/**
 * @file
 * Runtime convergence detection / computation elision (paper §VI).
 *
 * Instead of running the user-configured iteration count to the end,
 * the elided runner computes the Gelman-Rubin split R-hat across chains
 * every few iterations (over the most recent half of the sampling
 * draws, matching the paper's "second half of samples" convention) and
 * terminates the job once every coordinate's R-hat drops below the
 * threshold (1.1, per Brooks et al.).
 */
#pragma once

#include <vector>

#include "ppl/model.hpp"
#include "samplers/types.hpp"

namespace bayes::elide {

/** Convergence-detection policy. */
struct ElisionConfig
{
    /** R-hat level taken as converged (paper uses 1.1). */
    double rhatThreshold = 1.1;
    /** Draws between R-hat evaluations. */
    int checkInterval = 25;
    /** Minimum draws per chain before the first check. */
    int minDraws = 100;
    /** Fraction of draws the diagnostic window keeps (paper: 0.5). */
    double windowFraction = 0.5;
    /**
     * Adaptation iterations for the elided schedule. The paper's
     * detection treats the whole run uniformly (12cities "converges
     * after 600 iterations" of a 2000-iteration budget, warmup
     * included), so the elided runner uses a short fixed adaptation
     * phase instead of Stan's iterations/2 and lets detection govern
     * everything after it.
     */
    int adaptationIters = 150;
};

/** One R-hat evaluation along the run. */
struct RhatSample
{
    int draw;    ///< post-warmup draws per chain at evaluation time
    double rhat; ///< max split R-hat across coordinates
};

/** Result of an elided run. */
struct ElisionResult
{
    samplers::RunResult run;
    /** True when the run stopped on detection (not budget exhaustion). */
    bool converged = false;
    /** Post-warmup draws per chain when sampling stopped. */
    int stoppedAtDraw = 0;
    /** Draws the elided schedule could have taken. */
    int budgetDraws = 0;
    /** Total iterations executed per chain (adaptation + draws). */
    int executedIterations = 0;
    /** Total iterations of the user's configuration. */
    int budgetIterations = 0;
    /** R-hat trace at every check. */
    std::vector<RhatSample> rhatTrace;
    /** Wall-clock seconds spent inside the detector itself. */
    double detectorSeconds = 0.0;

    /**
     * Fraction of the user's total iteration budget elided — the
     * paper's "excess iterations" metric (0 when not converged).
     */
    double elidedFraction() const;
};

/**
 * Run @p model under @p config with runtime convergence detection.
 * The sampler configuration's iteration count acts as the budget; the
 * run stops early at detection. Elision composes with parallelism:
 * `config.execution` maps the chains onto threads, and each chain runs
 * from one R-hat check to the next as one task, so Sequential and Pool
 * deliver the same draws and the same stop iteration.
 */
ElisionResult runWithElision(const ppl::Model& model,
                             const samplers::Config& config,
                             const ElisionConfig& elision = ElisionConfig{});

/**
 * Max split R-hat over all coordinates of the most recent
 * @p windowFraction of draws (the detector's inner computation,
 * exposed for tests and the overhead micro-bench).
 */
double detectorRhat(const std::vector<samplers::ChainResult>& chains,
                    int drawsSoFar, double windowFraction);

/** True when the detector evaluates R-hat at @p draw under @p config. */
bool detectorChecksAt(const ElisionConfig& config, int draw);

/**
 * Replay the detector's check schedule over an already-completed run:
 * one RhatSample per point where the live detector would have
 * evaluated, across *all* available draws (no early stop). This is the
 * offline twin of the `ElisionResult::rhatTrace` a live elided run
 * records — benches use it to trace convergence beyond the stop point
 * (Fig. 5) without re-implementing the check schedule.
 */
std::vector<RhatSample>
convergenceTrace(const std::vector<samplers::ChainResult>& chains,
                 const ElisionConfig& config = ElisionConfig{});

} // namespace bayes::elide
