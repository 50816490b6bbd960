/**
 * @file
 * Static-trajectory Hamiltonian Monte Carlo: a fixed number of leapfrog
 * steps followed by a Metropolis accept/reject. The paper reports that
 * HMC's single-core profile closely tracks NUTS (§IV-A); this kernel
 * backs that comparison bench.
 */
#pragma once

#include <cstdint>

#include "samplers/hamiltonian.hpp"

namespace bayes::samplers {

/** Outcome of one static HMC transition. */
struct HmcTransition
{
    double acceptStat = 0.0;
    std::uint32_t gradEvals = 0;
    bool accepted = false;
    bool divergent = false;
};

/** One-chain static HMC kernel. */
class HmcSampler
{
  public:
    /**
     * @param ham            Hamiltonian over the model evaluator
     * @param leapfrogSteps  trajectory length in steps
     */
    HmcSampler(Hamiltonian& ham, int leapfrogSteps)
        : ham_(&ham), steps_(leapfrogSteps)
    {
    }

    void setStepSize(double eps) { stepSize_ = eps; }
    double stepSize() const { return stepSize_; }

    /** Run one transition from @p z (updated in place on accept). */
    HmcTransition transition(PhasePoint& z, Rng& rng);

  private:
    Hamiltonian* ham_;
    int steps_;
    double stepSize_ = 0.1;

    static constexpr double kDeltaMax = 1000.0;
};

} // namespace bayes::samplers
