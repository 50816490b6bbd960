#include "workloads/votes_forecast.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/linalg.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

VotesForecast::VotesForecast(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "votes", "Hierarchical Gaussian Processes",
              "Forecasting presidential votes",
              "StanCon 2017",
              "historical (1976-2016) presidential vote shares",
              /*defaultIterations=*/1400},
          dataScale)
{
    Rng rng = dataRng();
    const std::size_t cycles = scaled(20); // 1976 .. 2052 every 4 years
    numObserved_ = std::max<std::size_t>(4, cycles * 11 / 20);

    cycleYears_.resize(cycles);
    for (std::size_t i = 0; i < cycles; ++i)
        cycleYears_[i] = static_cast<double>(i) / 4.0; // decades-ish scale

    // Ground truth: draw a smooth GP path and observe it with noise.
    const double alphaTrue = 0.35;
    const double rhoTrue = 1.2;
    const double sigmaTrue = 0.08;
    const double meanTrue = 0.1; // slight structural lean, logit scale

    const auto kTrue =
        math::gpCovSquaredExp(cycleYears_, alphaTrue, rhoTrue, 1e-8);
    const auto lTrue = math::cholesky(kTrue);
    std::vector<double> z(cycles);
    for (auto& zi : z)
        zi = rng.normal();
    const auto path = math::matVec(lTrue, z);

    observed_.resize(numObserved_);
    for (std::size_t i = 0; i < numObserved_; ++i)
        observed_[i] = meanTrue + path[i] + rng.normal(0.0, sigmaTrue);

    setModeledDataBytes((cycleYears_.size() + observed_.size())
                        * sizeof(double));

    setLayout({
        {"mean", 1, ppl::TransformKind::Identity, 0, 0},
        {"alpha", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"rho", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"sigma", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"z", cycles, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
VotesForecast::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& mean = p.scalar(kMean);
    const T& alpha = p.scalar(kAlpha);
    const T& rho = p.scalar(kRho);
    const T& sigma = p.scalar(kSigma);

    T lp = normal_lpdf(mean, 0.0, 1.0)
        + lognormal_lpdf(alpha, std::log(0.35), 0.4)
        + lognormal_lpdf(rho, std::log(1.2), 0.35)
        + lognormal_lpdf(sigma, std::log(0.1), 0.5);

    // Non-centered GP: f = mean + L z with z ~ N(0, I).
    const std::vector<T> z = p.vec(kZ);
    lp += std_normal_lpdf_vec(std::span<const T>(z));

    // The dense Cholesky stays on the scalar tape: its working set is
    // the triangular factor itself, not per-observation nodes.
    const Matrix<T> k = gpCovSquaredExp(cycleYears_, alpha, rho, 1e-6);
    const Matrix<T> l = cholesky(k);
    const std::vector<T> f = matVec(l, z);

    std::vector<T> mu;
    mu.reserve(observed_.size());
    for (std::size_t i = 0; i < observed_.size(); ++i)
        mu.push_back(mean + f[i]);
    lp += normal_lpdf_vec(std::span<const double>(observed_),
                          std::span<const T>(mu), sigma);
    return lp;
}

template double
VotesForecast::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
VotesForecast::logDensity(const ppl::ParamView<ad::Var>&) const;

std::vector<double>
VotesForecast::dataSufficientStats() const
{
    double sumCycle = 0.0;
    double sumCycleSq = 0.0;
    for (double c : cycleYears_) {
        sumCycle += c;
        sumCycleSq += c * c;
    }
    double sumObs = 0.0;
    double sumObsSq = 0.0;
    for (double o : observed_) {
        sumObs += o;
        sumObsSq += o * o;
    }
    return {static_cast<double>(cycleYears_.size()),
            static_cast<double>(numObserved_),
            sumCycle,
            sumCycleSq,
            sumObs,
            sumObsSq};
}

} // namespace bayes::workloads
