/**
 * @file
 * `votes` — forecasting presidential vote share with a Gaussian
 * process.
 *
 * After the StanCon 2017 election-forecast model: a latent GP over
 * election cycles (squared-exponential kernel, non-centered via the
 * Cholesky factor) is observed through Gaussian noise at the historical
 * elections (1976-2016) and extrapolated to the future cycles
 * (2020-2028). Dense Cholesky work makes this the suite's highest-IPC,
 * most compute-regular workload.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Gaussian-process election-forecast workload. */
class VotesForecast : public ppl::DensityOf<VotesForecast, Workload>
{
  public:
    explicit VotesForecast(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of GP grid points (election cycles). */
    std::size_t numCycles() const { return cycleYears_.size(); }

    /** Standardized cycle coordinates (GP inputs). */
    const std::vector<double>& cycleYears() const { return cycleYears_; }

    /** Number of observed (historical) cycles. */
    std::size_t numObserved() const { return observed_.size(); }

    std::vector<double> dataSufficientStats() const override;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMean,   ///< long-run mean vote share (logit scale)
        kAlpha,  ///< GP amplitude, > 0
        kRho,    ///< GP length scale, > 0
        kSigma,  ///< observation noise, > 0
        kZ,      ///< non-centered latent GP innovations
    };

  private:
    std::vector<double> cycleYears_; ///< standardized cycle coordinates
    std::vector<double> observed_;   ///< observed vote share (logit)
    std::size_t numObserved_;
};

} // namespace bayes::workloads
