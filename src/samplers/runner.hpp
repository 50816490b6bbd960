/**
 * @file
 * Multi-chain driver. The schedule across threads never changes any
 * chain's own trajectory: each chain has an independent RNG stream and
 * evaluator, so every ExecutionPolicy yields identical draws and the
 * identical stop decision.
 *
 * Execution is selected by Config::execution:
 *  - Sequential: the chains run inline on the calling thread.
 *  - Pool: one task per chain on the process-shared
 *    support::ThreadPool, reused across runs.
 *
 * One schedule: the chains advance in segments. A segment is one task
 * per chain (the first also runs that chain's warmup) and ends at the
 * monitor's next check draw, or at the last draw without a monitor.
 * Inside a segment each chain reads the clock after every draw and
 * stops once the deadline has passed; after the join every chain is cut
 * to the shortest chain's draws. The calling thread then checks the
 * deadline and, at a check draw, lets the monitor observe all chains at
 * the same draw count and decide continue/stop — the hook the
 * convergence-elision mechanism (§VI) plugs into. The monitor runs
 * while every chain is parked, so it may touch caller state without
 * locking. Under a finite deadline with fewer workers than chains,
 * segments are one draw long, so a chain queued behind others never
 * starts sampling after the deadline.
 *
 * Warmup adaptation mirrors Stan's windowed scheme in simplified form:
 * an initial step-size-only phase, a long variance-accumulation phase
 * that ends by installing the diagonal metric, and a final step-size
 * re-adaptation phase. Neither the monitor nor the deadline acts during
 * warmup.
 */
#pragma once

#include <cstdint>
#include <functional>

#include "ppl/evaluator.hpp"
#include "ppl/model.hpp"
#include "samplers/types.hpp"
#include "support/rng.hpp"

namespace bayes::samplers {

/** Monitor verdict at a check draw. */
enum class MonitorAction
{
    Continue, ///< keep sampling
    Stop,     ///< terminate the run now (computation elision)
};

/**
 * Synchronized cross-chain view handed to the monitor at every check
 * draw. References stay valid only for the duration of the callback.
 */
struct MonitorContext
{
    /** Post-warmup draws every chain holds. */
    int draws;
    /** All chains, each holding exactly `draws` draws. */
    const std::vector<ChainResult>& chains;
};

/**
 * Early-termination observer: `check` runs whenever the post-warmup
 * draw count reaches a multiple of `every`.
 */
struct IterationMonitor
{
    std::function<MonitorAction(const MonitorContext&)> check;
    /** Post-warmup draws between consultations (>= 1). */
    int every = 1;
};

/**
 * Run a multi-chain inference job under Config::execution.
 * @param model    the Bayesian model to sample
 * @param config   chains / iterations / algorithm / execution policy
 * @param monitor  optional early-termination observer (any policy)
 */
RunResult run(const ppl::Model& model, const Config& config,
              const IterationMonitor& monitor = {});

/** Outcome of a deadline-bounded run (see runWithDeadline). */
struct DeadlineRunResult
{
    RunResult run;
    /**
     * True when the deadline, not the monitor, ended the run before
     * Config::postWarmup() draws.
     */
    bool expired = false;
};

/**
 * Run a multi-chain job under a wall-clock budget. The deadline is a
 * stop time for run()'s schedule: every chain reads the clock after
 * every post-warmup draw, and the calling thread checks it after every
 * segment, before the monitor. Consequences of that design:
 *
 *  - warmup always completes, and every chain keeps at least one draw,
 *    so a deadline shorter than warmup still pays for warmup plus one
 *    sampling iteration;
 *  - chains stop at draw granularity, then every chain is cut to the
 *    shortest chain's draws: draws, logProbs, iterStats, acceptRate and
 *    divergences describe that kept prefix, while totalGradEvals counts
 *    the discarded iterations too;
 *  - infinity disables the check and the run is plain run();
 *  - the deadline changes only *when the run stops*, never any chain's
 *    trajectory, so delivered draws are a prefix of the undeadlined
 *    run's draws under every ExecutionPolicy.
 *
 * This is the entry the bayes::serve runtime uses to keep one tenant's
 * over-budget request from blowing through everyone else's SLO.
 * @param deadlineSeconds  wall budget; <= 0 stops after the first draw
 * @param monitor          optional inner monitor (elision etc.); its
 *                         Stop verdict is honored alongside the deadline
 */
DeadlineRunResult runWithDeadline(const ppl::Model& model,
                                  const Config& config,
                                  double deadlineSeconds,
                                  const IterationMonitor& monitor = {});

/**
 * Draw a finite-density initial point on the unconstrained scale
 * (uniform(-2, 2) per coordinate, up to 100 attempts — Stan's rule).
 * @param seed  base RNG seed, echoed in the failure diagnostic
 */
std::vector<double> findInitialPoint(ppl::Evaluator& eval, Rng& rng,
                                     std::uint64_t seed = 0);

} // namespace bayes::samplers
