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
 * Two schedules, picked only by the monitor, the policy and the pool
 * width:
 *  - Free run — no monitor and a pool with a worker per chain. Each
 *    chain runs warmup and sampling as one task and checks the deadline
 *    after every post-warmup iteration; after the join every chain is
 *    cut to the shortest chain's draw count.
 *  - Barrier rounds — a monitor, Sequential, or more chains than
 *    workers. Every chain warms up, then the chains advance one
 *    iteration per round; after every round the calling thread checks
 *    the deadline, then the monitor observes all chains at the same
 *    draw count and decides continue/stop — the hook the
 *    convergence-elision mechanism (§VI) plugs into. The monitor runs
 *    while every chain is parked, so it may touch caller state without
 *    locking.
 *
 * Warmup adaptation mirrors Stan's windowed scheme in simplified form:
 * an initial step-size-only phase, a long variance-accumulation phase
 * that ends by installing the diagonal metric, and a final step-size
 * re-adaptation phase. Neither the monitor nor the deadline acts during
 * warmup, so each chain's warmup always runs without barriers.
 */
#pragma once

#include <cstdint>
#include <functional>

#include "ppl/evaluator.hpp"
#include "ppl/model.hpp"
#include "samplers/types.hpp"
#include "support/rng.hpp"

namespace bayes::samplers {

/** Monitor verdict after a sampling round. */
enum class MonitorAction
{
    Continue, ///< keep sampling
    Stop,     ///< terminate the run now (computation elision)
};

/**
 * Synchronized cross-chain view handed to the monitor after every
 * completed post-warmup round. References stay valid only for the
 * duration of the callback.
 */
struct MonitorContext
{
    /** Completed post-warmup rounds == draws available per chain. */
    int round;
    /** All chains, draws valid up to `round`. */
    const std::vector<ChainResult>& chains;
    /** Wall-clock seconds since run() started (warmup included). */
    double elapsedSeconds;
    /** Gradient evaluations consumed so far, per chain (all phases). */
    const std::vector<std::uint64_t>& gradEvalsPerChain;
};

/** Observer invoked after every completed post-warmup round. */
using IterationMonitor = std::function<MonitorAction(const MonitorContext&)>;

/**
 * Run a multi-chain inference job under Config::execution.
 * @param model    the Bayesian model to sample
 * @param config   chains / iterations / algorithm / execution policy
 * @param monitor  optional early-termination observer (any policy)
 */
RunResult run(const ppl::Model& model, const Config& config,
              const IterationMonitor& monitor = nullptr);

/** Outcome of a deadline-bounded run (see runWithDeadline). */
struct DeadlineRunResult
{
    RunResult run;
    /**
     * True when the deadline, not the monitor, ended the run before
     * Config::postWarmup() draws.
     */
    bool expired = false;
    /** Wall-clock seconds the run consumed (warmup included). */
    double elapsedSeconds = 0.0;
};

/**
 * Run a multi-chain job under a wall-clock budget. The deadline is a
 * stop time for run()'s schedule: free-running chains each read the
 * clock after every post-warmup iteration, and barrier rounds check it
 * after every round, before the monitor. Consequences of that design:
 *
 *  - warmup always completes, and every chain keeps at least one draw,
 *    so a deadline shorter than warmup still pays for warmup plus one
 *    sampling iteration;
 *  - free-running chains stop at draw granularity, then every chain is
 *    cut to the shortest chain's draws: draws, logProbs, iterStats,
 *    acceptRate and divergences describe that kept prefix, while
 *    totalGradEvals counts the discarded iterations too;
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
                                  const IterationMonitor& monitor = nullptr);

/**
 * Draw a finite-density initial point on the unconstrained scale
 * (uniform(-2, 2) per coordinate, up to 100 attempts — Stan's rule).
 * @param seed  base RNG seed, echoed in the failure diagnostic
 */
std::vector<double> findInitialPoint(ppl::Evaluator& eval, Rng& rng,
                                     std::uint64_t seed = 0);

} // namespace bayes::samplers
