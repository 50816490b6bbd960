/**
 * @file
 * Random-walk Metropolis-Hastings — the paper's Algorithm 1, kept as
 * the pedagogical baseline. The proposal is an isotropic Gaussian on
 * the unconstrained scale whose width is tuned during warmup toward
 * the classic 0.234 acceptance rate.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "ppl/evaluator.hpp"
#include "support/rng.hpp"

namespace bayes::samplers {

/** Outcome of one Metropolis-Hastings transition. */
struct MhTransition
{
    bool accepted = false;
    double acceptProb = 0.0;
};

/** One-chain random-walk Metropolis kernel. */
class MhSampler
{
  public:
    explicit MhSampler(ppl::Evaluator& eval);

    /** Proposal standard deviation. */
    void setScale(double scale) { scale_ = scale; }
    double scale() const { return scale_; }

    /** Robbins-Monro scale adaptation step (call during warmup only). */
    void adaptScale(double acceptProb);

    /**
     * One transition from @p q with cached density @p logProb (both
     * updated in place on acceptance).
     */
    MhTransition transition(std::vector<double>& q, double& logProb,
                            Rng& rng);

    // -- Split transition for batched execution ----------------------
    // transition() == propose; evaluate; finish — byte-identical by
    // construction: the split consumes the chain's RNG in the same
    // order, including the accept draw's dependence on the proposal
    // density being finite.

    /** Draw the Gaussian proposal (consumes q.size() normal draws). */
    void
    propose(const std::vector<double>& q, Rng& rng,
            std::vector<double>& proposal) const
    {
        proposal.resize(q.size());
        for (std::size_t i = 0; i < q.size(); ++i)
            proposal[i] = q[i] + scale_ * rng.normal();
    }

    /**
     * Accept/reject @p proposal given its (batched) log density.
     * @p proposal is consumed (moved into @p q) on acceptance.
     */
    MhTransition finish(std::vector<double>& q, double& logProb,
                        std::vector<double>& proposal,
                        double proposalLogProb, Rng& rng);

  private:
    ppl::Evaluator* eval_;
    double scale_;
    long adaptCount_ = 0;

    static constexpr double kTargetAccept = 0.234;
};

} // namespace bayes::samplers
