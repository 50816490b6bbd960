/**
 * @file
 * `ode` — Friberg-Karlsson semi-mechanistic myelosuppression model.
 *
 * After Margossian & Gillespie (2016): a proliferating-cell compartment
 * feeds a chain of transit compartments into circulating neutrophils;
 * drug concentration (a decaying exponential after a bolus dose)
 * suppresses proliferation. Parameters are inferred from noisy
 * neutrophil counts by integrating the nonlinear ODE system inside the
 * likelihood — gradients flow through the RK4 discretization.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** PK/PD ordinary-differential-equation workload. */
class PkpdOde : public ppl::DensityOf<PkpdOde, Workload>
{
  public:
    explicit PkpdOde(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Observation times (days after dose). */
    const std::vector<double>& times() const { return times_; }

    /** Observed circulating neutrophil counts. */
    const std::vector<double>& observed() const { return observed_; }

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMtt,    ///< mean transit time (days), > 0
        kCirc0,  ///< baseline circulating count, > 0
        kGamma,  ///< feedback exponent, > 0
        kSlope,  ///< linear drug effect, > 0
        kSigma,  ///< lognormal observation noise, > 0
    };

  private:
    /** Solve the Friberg-Karlsson system at the observation times. */
    template <typename T>
    std::vector<T> solveCirc(const T& mtt, const T& circ0, const T& gamma,
                             const T& slope) const;

    std::vector<double> times_;
    std::vector<double> observed_;
    double dose_ = 80.0;  ///< bolus dose driving the PK input
    double ke_ = 0.50;    ///< drug elimination rate (1/day), known
};

} // namespace bayes::workloads
