/**
 * @file
 * Bridges the sampler's unconstrained space to a Model: applies the
 * constraining transforms, accumulates log-Jacobians, and evaluates the
 * log density with or without gradients. Owns the AD tape, which it
 * reuses across evaluations (arena-style) exactly like Stan's autodiff
 * stack.
 *
 * Every evaluation is one point: logProb / logProbGrad record the
 * model's fused single-point density and, for the gradient, run one
 * reverse sweep over it. Parallelism comes from chains, each with its
 * own evaluator. logProbBatch / logProbGradBatch take an EvalBatch of
 * K points and evaluate its lanes one at a time through the
 * single-point calls.
 *
 * For architecture tracing, logProbGrad records one index: where the
 * model's density began on the tape (densityBegin), after the leaves
 * and transforms. archsim places the likelihood's pass over the
 * observed data there when it derives the gradient's memory trace from
 * the tape (archsim/trace.hpp).
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ad/tape.hpp"
#include "ppl/eval_batch.hpp"
#include "ppl/model.hpp"

namespace bayes::ppl {

/** Unconstrained-space evaluator of a model's log density. */
class Evaluator
{
  public:
    /** Bind to a model; the model must outlive the evaluator. */
    explicit Evaluator(const Model& model);

    /** Number of unconstrained dimensions. */
    std::size_t dim() const { return layout_->dim(); }

    /** Model being evaluated. */
    const Model& model() const { return *model_; }

    /**
     * Log density (including Jacobian) at unconstrained point @p q,
     * value-only path (no tape traffic). A point the model or a
     * transform rejects (bayes::Error) gets -inf.
     */
    double logProb(const std::vector<double>& q);

    /**
     * Log density and its gradient at unconstrained @p q, from one
     * reverse sweep. A rejected point gets -inf, and a non-finite
     * density a zero gradient (well-formed for the sampler's rejection
     * logic).
     * @param grad  resized to dim()
     * @return the log density
     */
    double logProbGrad(const std::vector<double>& q,
                       std::vector<double>& grad);

    /**
     * logProb of each of the K points in @p batch, one lane at a time.
     * @param lp  one log density per lane, lp.size() == batch.lanes()
     */
    void logProbBatch(const EvalBatch& batch, std::span<double> lp);

    /**
     * logProbGrad of each of the K points in @p batch, one lane at a
     * time; lane k's gradient lands in grad column k.
     * @param lp    one log density per lane
     * @param grad  resized to dim() × batch.lanes()
     */
    void logProbGradBatch(const EvalBatch& batch, std::span<double> lp,
                          EvalBatch& grad);

    /** Map an unconstrained point to constrained parameter values. */
    std::vector<double> constrain(const std::vector<double>& q) const;

    /**
     * AD tape: inspect its arenas and size, or switch it to the
     * per-observation reference tape (ad::Tape::setPerObservation).
     */
    ad::Tape& tape() { return tape_; }

    /** Number of gradient evaluations performed (lanes, not calls). */
    std::uint64_t numGradEvals() const { return numGradEvals_; }

    /** Tape nodes used by the most recent gradient evaluation. */
    std::size_t lastTapeNodes() const { return lastTapeNodes_; }

    /**
     * Tape index where the most recent gradient evaluation's model
     * density began: the leaves and transforms occupy the nodes before
     * it.
     */
    std::size_t densityBegin() const { return densityBegin_; }

  private:
    const Model* model_;
    const ParamLayout* layout_;
    ad::Tape tape_;
    std::vector<double> adjoints_;
    std::uint64_t numGradEvals_ = 0;
    std::size_t lastTapeNodes_ = 0;
    std::size_t densityBegin_ = 0;
    std::size_t reserveNodes_ = 0; ///< tape pre-size hint
    std::size_t reserveEdges_ = 0; ///< edge pre-size hint
};

} // namespace bayes::ppl
