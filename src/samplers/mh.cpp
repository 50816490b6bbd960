#include "samplers/mh.hpp"

#include <algorithm>
#include <cmath>

namespace bayes::samplers {

MhSampler::MhSampler(ppl::Evaluator& eval)
    : eval_(&eval),
      scale_(2.38 / std::sqrt(static_cast<double>(eval.dim())))
{
}

void
MhSampler::adaptScale(double acceptProb)
{
    ++adaptCount_;
    const double rate = 1.0 / std::sqrt(static_cast<double>(adaptCount_));
    scale_ *= std::exp(rate * (acceptProb - kTargetAccept));
    scale_ = std::clamp(scale_, 1e-6, 1e3);
}

MhTransition
MhSampler::transition(std::vector<double>& q, double& logProb, Rng& rng)
{
    std::vector<double> proposal(q.size());
    for (std::size_t i = 0; i < q.size(); ++i)
        proposal[i] = q[i] + scale_ * rng.normal();
    const double proposalLogProb = eval_->logProb(proposal);

    MhTransition result;
    const double logRatio = proposalLogProb - logProb;
    result.acceptProb = std::min(1.0, std::exp(std::min(logRatio, 0.0)));
    // An infeasible proposal is rejected without an accept draw.
    if (std::isfinite(proposalLogProb)
        && std::log(std::max(rng.uniform(), 1e-300)) < logRatio) {
        q = std::move(proposal);
        logProb = proposalLogProb;
        result.accepted = true;
    }
    return result;
}

} // namespace bayes::samplers
