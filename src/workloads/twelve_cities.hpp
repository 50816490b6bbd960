/**
 * @file
 * `12cities` — does lowering speed limits save pedestrian lives?
 *
 * Hierarchical Poisson regression over a city/year panel in the spirit
 * of Auerbach et al. (2017): per-city intercepts with a shared
 * hyperprior, a speed-limit treatment effect, and a secular time trend,
 * with the city's pedestrian exposure as an offset. Data are synthetic
 * but match the FARS panel's shape (12 cities x 16 years).
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Poisson-regression speed-limit policy workload. */
class TwelveCities : public ppl::DensityOf<TwelveCities, Workload>
{
  public:
    explicit TwelveCities(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Observed pedestrian death counts (one per city-year row). */
    const std::vector<long>& deaths() const { return deaths_; }

    /** Number of cities in the panel. */
    std::size_t numCities() const { return numCities_; }

    std::vector<double> dataSufficientStats() const override;

    /** Treatment effect used to generate the data (for recovery tests). */
    static constexpr double kTrueLimitEffect = -0.18;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMuAlpha,
        kSigmaAlpha,
        kAlpha,
        kBetaLimit,
        kBetaTrend,
    };

  private:
    std::size_t numCities_;
    std::vector<long> deaths_;
    std::vector<int> city_;
    std::vector<double> design_; ///< row-major [row]{lowered, yearC}
    std::vector<double> logExposure_;
};

} // namespace bayes::workloads
