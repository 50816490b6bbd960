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
 * For architecture tracing, the evaluator also owns a "data shadow"
 * buffer of modeledDataBytes() and, when a memory probe is attached to
 * the tape, streams sequential reads over it once per gradient —
 * modeling the likelihood's pass over the observed data.
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
     * Route evaluations through the model's scalar-loop path
     * (Model::logProbScalar) instead of the fused-kernel path. Used by
     * tests and benchmarks to compare the two tapes; defaults to off.
     * Toggling resets the tape reserve hint so the next evaluation on
     * the other path does not pre-size to the wrong tape shape.
     */
    void
    setScalarLikelihood(bool on)
    {
        if (on != scalarLikelihood_) {
            reserveNodes_ = 0;
            reserveEdges_ = 0;
        }
        scalarLikelihood_ = on;
    }

    /** True when evaluations use the scalar-loop path. */
    bool scalarLikelihood() const { return scalarLikelihood_; }

    /** AD tape (attach probes or inspect size here). */
    ad::Tape& tape() { return tape_; }

    /** Number of value-only evaluations performed (lanes, not calls). */
    std::uint64_t numEvals() const { return numEvals_; }

    /** Number of gradient evaluations performed (lanes, not calls). */
    std::uint64_t numGradEvals() const { return numGradEvals_; }

    /** Tape nodes used by the most recent gradient evaluation. */
    std::size_t lastTapeNodes() const { return lastTapeNodes_; }

    /** Wide-node edges used by the most recent gradient evaluation. */
    std::size_t lastTapeEdges() const { return lastTapeEdges_; }

    /** Tape bytes (nodes + edges + adjoints) of the last gradient eval. */
    std::size_t lastTapeBytes() const { return lastTapeBytes_; }

  private:
    void streamDataShadow();

    const Model* model_;
    const ParamLayout* layout_;
    ad::Tape tape_;
    std::vector<double> adjoints_;
    std::vector<std::uint8_t> dataShadow_;
    std::uint64_t numEvals_ = 0;
    std::uint64_t numGradEvals_ = 0;
    std::size_t lastTapeNodes_ = 0;
    std::size_t lastTapeEdges_ = 0;
    std::size_t lastTapeBytes_ = 0;
    std::size_t reserveNodes_ = 0; ///< tape pre-size hint
    std::size_t reserveEdges_ = 0; ///< edge pre-size hint
    bool scalarLikelihood_ = false;
};

} // namespace bayes::ppl
