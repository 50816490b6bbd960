#include "workloads/tickets_quota.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

TicketsQuota::TicketsQuota(double dataScale, double subsampleFraction)
    : DensityOf(
          WorkloadInfo{
              "tickets", "Logistic Regression",
              "Do police officers alter the ticket writing to match "
              "departmental targets?",
              "Auerbach 2017 [19]",
              "NYC parking/moving violation tickets 2014-2015",
              /*defaultIterations=*/800},
          dataScale)
{
    Rng rng = dataRng();
    numOfficers_ = 50;
    numCovariates_ = 10;
    const std::size_t months = scaled(14);

    const double muThetaTrue = 1.6;
    const double sigmaThetaTrue = 0.5;
    std::vector<double> thetaTrue(numOfficers_);
    for (auto& t : thetaTrue)
        t = rng.normal(muThetaTrue, sigmaThetaTrue);
    std::vector<double> betaTrue(numCovariates_);
    for (auto& b : betaTrue)
        b = rng.normal(0.0, 0.25);

    for (std::size_t o = 0; o < numOfficers_; ++o) {
        for (std::size_t m = 0; m < months; ++m) {
            for (int half = 0; half < 2; ++half) {
                // One design row: the end-of-month indicator first,
                // then the covariates, matching the coefficient order
                // {delta, beta...} the density assembles.
                const double eom = half == 1 ? 1.0 : 0.0;
                design_.push_back(eom);
                double eta = thetaTrue[o] + kTrueQuotaEffect * eom;
                for (std::size_t k = 0; k < numCovariates_; ++k) {
                    const double x = rng.normal(0.0, 1.0);
                    design_.push_back(x);
                    eta += betaTrue[k] * x;
                }
                counts_.push_back(rng.poisson(std::exp(eta)));
                officer_.push_back(static_cast<int>(o));
            }
        }
    }

    BAYES_CHECK(subsampleFraction > 0.0 && subsampleFraction <= 1.0,
                "subsampleFraction must be in (0, 1]");
    activeRows_ = std::max<std::size_t>(
        8, static_cast<std::size_t>(subsampleFraction
                                    * static_cast<double>(counts_.size())));
    likelihoodWeight_ =
        static_cast<double>(counts_.size()) / static_cast<double>(activeRows_);

    // The modeled data size is what one likelihood evaluation visits.
    const std::size_t rowBytes = sizeof(long) + sizeof(int)
        + (1 + numCovariates_) * sizeof(double);
    setModeledDataBytes(activeRows_ * rowBytes);

    setLayout({
        {"mu_theta", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_theta", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"theta", numOfficers_, ppl::TransformKind::Identity, 0, 0},
        {"delta", 1, ppl::TransformKind::Identity, 0, 0},
        {"beta", numCovariates_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
TicketsQuota::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& muTheta = p.scalar(kMuTheta);
    const T& sigmaTheta = p.scalar(kSigmaTheta);

    T lp = normal_lpdf(muTheta, 0.0, 3.0)
        + normal_lpdf(sigmaTheta, 0.0, 1.0)
        + normal_lpdf(p.scalar(kDelta), 0.0, 1.0);
    lp += normal_lpdf_vec(p.block(kBeta), 0.0, 0.5);
    lp += normal_lpdf_vec(p.block(kTheta), muTheta, sigmaTheta);

    // Coefficients in design-column order: {delta, beta...}.
    std::vector<T> coef;
    coef.reserve(1 + numCovariates_);
    coef.push_back(p.scalar(kDelta));
    for (std::size_t k = 0; k < numCovariates_; ++k)
        coef.push_back(p.at(kBeta, k));
    const std::size_t rowLen = 1 + numCovariates_;
    const T dataLp = poisson_log_glm_lpmf(
        std::span<const long>(counts_.data(), activeRows_),
        std::span<const double>(design_.data(), activeRows_ * rowLen),
        std::span<const int>(officer_.data(), activeRows_),
        std::span<const double>(), p.block(kTheta),
        std::span<const T>(coef));
    // Inverse-probability reweighting keeps the subsampled likelihood
    // an unbiased surrogate for the full one.
    lp += likelihoodWeight_ * dataLp;
    return lp;
}

template double
TicketsQuota::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
TicketsQuota::logDensity(const ppl::ParamView<ad::Var>&) const;

std::vector<double>
TicketsQuota::dataSufficientStats() const
{
    // Poisson GLM with subsampling: the active-row window and weight
    // are part of the likelihood's identity, not just the raw data.
    double sumCounts = 0.0;
    double sumCountsSq = 0.0;
    double officerChecksum = 0.0;
    const std::size_t rowLen = 1 + numCovariates_;
    double sumEom = 0.0;
    for (std::size_t i = 0; i < activeRows_; ++i) {
        const double c = static_cast<double>(counts_[i]);
        sumCounts += c;
        sumCountsSq += c * c;
        officerChecksum += static_cast<double>(officer_[i]) *
                           static_cast<double>(i + 1);
        sumEom += design_[i * rowLen];
    }
    double sumCov = 0.0;
    double sumCovSq = 0.0;
    for (std::size_t i = 0; i < activeRows_; ++i) {
        const double* covariates = &design_[i * rowLen + 1];
        for (std::size_t k = 0; k < numCovariates_; ++k) {
            sumCov += covariates[k];
            sumCovSq += covariates[k] * covariates[k];
        }
    }
    return {static_cast<double>(counts_.size()),
            static_cast<double>(activeRows_),
            static_cast<double>(numOfficers_),
            static_cast<double>(numCovariates_),
            likelihoodWeight_,
            sumCounts,
            sumCountsSq,
            officerChecksum,
            sumEom,
            sumCov,
            sumCovSq};
}

} // namespace bayes::workloads
