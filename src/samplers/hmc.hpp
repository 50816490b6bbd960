/**
 * @file
 * Static-trajectory Hamiltonian Monte Carlo: a fixed number of leapfrog
 * steps followed by a Metropolis accept/reject. The paper reports that
 * HMC's single-core profile closely tracks NUTS (§IV-A); this kernel
 * backs that comparison bench.
 */
#pragma once

#include <cstdint>
#include <vector>

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

/**
 * In-flight state of one HMC transition, between begin() and finish().
 * The phased executor keeps one per chain so it can interleave K
 * trajectories and feed each pending position from a batched gradient
 * evaluation.
 */
struct HmcPhase
{
    PhasePoint trial;
    double joint0 = 0.0;
    int stepsDone = 0;
    bool active = true;
    std::uint32_t gradEvals = 0;
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

    // -- Split transition for batched execution ----------------------
    // transition() == begin; while (prepareStep) applyEval(eval);
    //                 finish — byte-identical by construction, since
    // the split consumes the chain's RNG in the same order and applies
    // the same floating-point operations.

    /** Refresh momentum and open a transition from @p z. */
    void
    begin(PhasePoint& z, Rng& rng, HmcPhase& ph)
    {
        ham_->sampleMomentum(rng, z);
        ph.joint0 = ham_->joint(z);
        ph.trial = z;
        ph.stepsDone = 0;
        ph.active = true;
        ph.gradEvals = 0;
    }

    /**
     * Advance the trajectory to its next pending position (half kick +
     * drift). Returns false when the trajectory is complete (or broke
     * on a non-finite density) and needs no further evaluation.
     */
    bool
    prepareStep(HmcPhase& ph)
    {
        if (!ph.active || ph.stepsDone >= steps_)
            return false;
        ham_->leapfrogBegin(ph.trial, stepSize_);
        return true;
    }

    /** Deliver the (batched) evaluation at the pending position. */
    void
    applyEval(HmcPhase& ph, double logProb, std::span<const double> grad)
    {
        ham_->leapfrogEnd(ph.trial, logProb, grad, stepSize_);
        ++ph.gradEvals;
        ++ph.stepsDone;
        if (!std::isfinite(ph.trial.logProb))
            ph.active = false;
    }

    /** Accept/reject the finished trajectory (updates @p z on accept). */
    HmcTransition finish(PhasePoint& z, HmcPhase& ph, Rng& rng);

  private:
    Hamiltonian* ham_;
    int steps_;
    double stepSize_ = 0.1;

    static constexpr double kDeltaMax = 1000.0;
};

} // namespace bayes::samplers
