#include "workloads/ad_attribution.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

AdAttribution::AdAttribution(double dataScale)
    : Workload(
          WorkloadInfo{
              "ad", "Logistic Regression",
              "Advertising attribution in the movie industry",
              "Lei, Sanders & Dawson, StanCon 2017 [15]",
              "survey: demographics + advertising channels seen",
              /*defaultIterations=*/1400},
          dataScale)
{
    Rng rng = dataRng();
    numFeatures_ = 12; // 8 channels + 4 demographic covariates
    const std::size_t n = scaled(420);

    std::vector<double> betaTrue(numFeatures_);
    for (auto& b : betaTrue)
        b = rng.normal(0.0, 0.7);
    const double interceptTrue = -0.8;

    features_.resize(n * numFeatures_);
    outcomes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double eta = interceptTrue;
        for (std::size_t k = 0; k < numFeatures_; ++k) {
            // Channels (first 8) are binary exposures; demographics
            // are standardized continuous covariates.
            const double x =
                k < 8 ? static_cast<double>(rng.bernoulli(0.35))
                      : rng.normal(0.0, 1.0);
            features_[i * numFeatures_ + k] = x;
            eta += betaTrue[k] * x;
        }
        outcomes_[i] = rng.bernoulli(math::invLogit(eta));
    }

    setModeledDataBytes(features_.size() * sizeof(double)
                        + outcomes_.size() * sizeof(int));

    setLayout({
        {"intercept", 1, ppl::TransformKind::Identity, 0, 0},
        {"beta", numFeatures_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
AdAttribution::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& intercept = p.scalar(kIntercept);

    T lp = normal_lpdf(intercept, 0.0, 2.0);
    lp += normal_lpdf_vec(p.block(kBeta), 0.0, 1.0);
    lp += bernoulli_logit_glm_lpmf(std::span<const int>(outcomes_),
                                   std::span<const double>(features_),
                                   intercept, p.block(kBeta));
    return lp;
}

template <typename T>
T
AdAttribution::logDensityScalar(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& intercept = p.scalar(kIntercept);

    T lp = normal_lpdf(intercept, 0.0, 2.0);
    for (std::size_t k = 0; k < numFeatures_; ++k)
        // bayes-lint: allow(R007): reference scalar path; fused twin above
        lp += normal_lpdf(p.at(kBeta, k), 0.0, 1.0);

    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        T eta = intercept;
        const double* row = &features_[i * numFeatures_];
        for (std::size_t k = 0; k < numFeatures_; ++k)
            eta += p.at(kBeta, k) * row[k];
        // bayes-lint: allow(R007): reference scalar path; fused twin above
        lp += bernoulli_logit_lpmf(outcomes_[i], eta);
    }
    return lp;
}

double
AdAttribution::logProb(const ppl::ParamView<double>& p) const
{
    return logDensity(p);
}

ad::Var
AdAttribution::logProb(const ppl::ParamView<ad::Var>& p) const
{
    return logDensity(p);
}

double
AdAttribution::logProbScalar(const ppl::ParamView<double>& p) const
{
    return logDensityScalar(p);
}

ad::Var
AdAttribution::logProbScalar(const ppl::ParamView<ad::Var>& p) const
{
    return logDensityScalar(p);
}

std::vector<double>
AdAttribution::dataSufficientStats() const
{
    // Bernoulli GLM: dataset is identified by shape, the outcome count,
    // and feature moments plus the outcome/feature cross moment.
    double sumY = 0.0;
    for (int y : outcomes_)
        sumY += y;
    double sumX = 0.0;
    double sumXX = 0.0;
    for (double x : features_) {
        sumX += x;
        sumXX += x * x;
    }
    double cross = 0.0;
    for (std::size_t i = 0; i < outcomes_.size(); ++i) {
        if (outcomes_[i] == 0)
            continue;
        for (std::size_t j = 0; j < numFeatures_; ++j)
            cross += features_[i * numFeatures_ + j];
    }
    return {static_cast<double>(outcomes_.size()),
            static_cast<double>(numFeatures_),
            sumY,
            sumX,
            sumXX,
            cross};
}

} // namespace bayes::workloads
