#include "workloads/twelve_cities.hpp"

#include <array>
#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

TwelveCities::TwelveCities(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "12cities", "Poisson Regression",
              "Does lowering speed limits save pedestrian lives?",
              "Auerbach et al. 2017 [13]",
              "FARS-style city/year pedestrian fatality panel",
              /*defaultIterations=*/2000},
          dataScale)
{
    Rng rng = dataRng();
    numCities_ = 12;
    const std::size_t years = scaled(16);

    // Ground-truth generative process.
    const double muAlphaTrue = 2.1;
    const double sigmaAlphaTrue = 0.35;
    const double trendTrue = -0.015;
    std::vector<double> alphaTrue(numCities_);
    std::vector<double> popExposure(numCities_);
    std::vector<std::size_t> loweredAt(numCities_);
    for (std::size_t c = 0; c < numCities_; ++c) {
        alphaTrue[c] = rng.normal(muAlphaTrue, sigmaAlphaTrue);
        popExposure[c] = rng.uniform(0.4, 4.0); // millions of residents
        // A third of the cities never lower the limit.
        loweredAt[c] = rng.uniform() < 0.33
            ? years + 1
            : static_cast<std::size_t>(rng.uniformInt(years / 2)) + years / 4;
    }

    for (std::size_t c = 0; c < numCities_; ++c) {
        for (std::size_t y = 0; y < years; ++y) {
            const double yearC =
                (static_cast<double>(y) - static_cast<double>(years) / 2.0);
            const double lowered = y >= loweredAt[c] ? 1.0 : 0.0;
            const double logMu = alphaTrue[c] + kTrueLimitEffect * lowered
                + trendTrue * yearC + std::log(popExposure[c]);
            deaths_.push_back(rng.poisson(std::exp(logMu)));
            city_.push_back(static_cast<int>(c));
            design_.push_back(lowered);
            design_.push_back(yearC);
            logExposure_.push_back(std::log(popExposure[c]));
        }
    }

    setModeledDataBytes(deaths_.size() * sizeof(long)
                        + city_.size() * sizeof(int)
                        + (design_.size() + logExposure_.size())
                            * sizeof(double));

    setLayout({
        {"mu_alpha", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_alpha", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"alpha", numCities_, ppl::TransformKind::Identity, 0, 0},
        {"beta_limit", 1, ppl::TransformKind::Identity, 0, 0},
        {"beta_trend", 1, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
TwelveCities::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& muAlpha = p.scalar(kMuAlpha);
    const T& sigmaAlpha = p.scalar(kSigmaAlpha);

    T lp = normal_lpdf(muAlpha, 0.0, 5.0)
        + normal_lpdf(p.scalar(kSigmaAlpha), 0.0, 2.0) // half-normal
        + normal_lpdf(p.scalar(kBetaLimit), 0.0, 1.0)
        + normal_lpdf(p.scalar(kBetaTrend), 0.0, 1.0);

    lp += normal_lpdf_vec(p.block(kAlpha), muAlpha, sigmaAlpha);

    const std::array<T, 2> coef{p.scalar(kBetaLimit),
                                p.scalar(kBetaTrend)};
    lp += poisson_log_glm_lpmf(std::span<const long>(deaths_),
                               std::span<const double>(design_),
                               std::span<const int>(city_),
                               std::span<const double>(logExposure_),
                               p.block(kAlpha),
                               std::span<const T>(coef));
    return lp;
}

template double
TwelveCities::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
TwelveCities::logDensity(const ppl::ParamView<ad::Var>&) const;

std::vector<double>
TwelveCities::dataSufficientStats() const
{
    // Poisson panel regression: counts, count moments, covariate sums,
    // exposure total, and the city index checksum pin down the panel.
    double sumDeaths = 0.0;
    double sumDeathsSq = 0.0;
    for (long d : deaths_) {
        const double dd = static_cast<double>(d);
        sumDeaths += dd;
        sumDeathsSq += dd * dd;
    }
    double sumLowered = 0.0;
    double sumYearSq = 0.0;
    double sumExposure = 0.0;
    double cityChecksum = 0.0;
    for (std::size_t i = 0; i < deaths_.size(); ++i) {
        const double* row = &design_[i * 2];
        sumLowered += row[0];
        sumYearSq += row[1] * row[1];
        sumExposure += logExposure_[i];
        cityChecksum += static_cast<double>(city_[i]) *
                        static_cast<double>(i + 1);
    }
    return {static_cast<double>(deaths_.size()),
            static_cast<double>(numCities_),
            sumDeaths,
            sumDeathsSq,
            sumLowered,
            sumYearSq,
            sumExposure,
            cityChecksum};
}

} // namespace bayes::workloads
