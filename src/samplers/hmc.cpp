#include "samplers/hmc.hpp"

#include <algorithm>
#include <cmath>

namespace bayes::samplers {

HmcTransition
HmcSampler::transition(PhasePoint& z, Rng& rng)
{
    HmcPhase ph;
    begin(z, rng, ph);
    std::vector<double> grad;
    while (prepareStep(ph)) {
        const double lp =
            ham_->evaluator().logProbGrad(ph.trial.q, grad);
        applyEval(ph, lp, grad);
    }
    return finish(z, ph, rng);
}

HmcTransition
HmcSampler::finish(PhasePoint& z, HmcPhase& ph, Rng& rng)
{
    HmcTransition result;
    result.gradEvals = ph.gradEvals;

    double joint = ham_->joint(ph.trial);
    if (!std::isfinite(joint))
        joint = -INFINITY;
    result.divergent = ph.joint0 - joint > kDeltaMax;
    result.acceptStat = std::min(1.0, std::exp(joint - ph.joint0));
    if (rng.uniform() < result.acceptStat) {
        z = ph.trial;
        result.accepted = true;
    }
    return result;
}

} // namespace bayes::samplers
