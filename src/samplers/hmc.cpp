#include "samplers/hmc.hpp"

#include <algorithm>
#include <cmath>

namespace bayes::samplers {

HmcTransition
HmcSampler::transition(PhasePoint& z, Rng& rng)
{
    ham_->sampleMomentum(rng, z);
    const double joint0 = ham_->joint(z);
    PhasePoint trial = z;

    HmcTransition result;
    for (int step = 0; step < steps_; ++step) {
        ham_->leapfrog(trial, stepSize_);
        ++result.gradEvals;
        // The trajectory ends at the first non-finite density.
        if (!std::isfinite(trial.logProb))
            break;
    }

    double joint = ham_->joint(trial);
    if (!std::isfinite(joint))
        joint = -INFINITY;
    result.divergent = joint0 - joint > kDeltaMax;
    result.acceptStat = std::min(1.0, std::exp(joint - joint0));
    if (rng.uniform() < result.acceptStat) {
        z = trial;
        result.accepted = true;
    }
    return result;
}

} // namespace bayes::samplers
