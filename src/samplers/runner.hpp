/**
 * @file
 * Multi-chain driver — the phased barrier executor. Chains advance in
 * rounds (one iteration per chain per round); after every post-warmup
 * round the monitor observes all chains at the same draw count and
 * decides continue/stop — the hook the convergence-elision mechanism
 * (§VI) plugs into. The schedule across threads never changes any
 * chain's own trajectory: each chain has an independent RNG stream and
 * evaluator, so every ExecutionPolicy yields identical draws and —
 * because the monitor always sees the same synchronized view — the
 * identical stop decision.
 *
 * Execution is selected by Config::execution:
 *  - Sequential: the chains run inline on the calling thread.
 *  - Pool: one task per chain on the process-shared
 *    support::ThreadPool, reused across runs.
 * Without a monitor every chain free-runs (no barriers); with a monitor
 * the chains advance in barrier rounds and the monitor executes on the
 * calling thread while every chain is parked, so it may touch caller
 * state without locking. Pooled HMC/MH with Config::batchEval always
 * advances in rounds: each round evaluates every chain's pending point
 * in one shared EvalBatch on the calling thread.
 *
 * Warmup adaptation mirrors Stan's windowed scheme in simplified form:
 * an initial step-size-only phase, a long variance-accumulation phase
 * that ends by installing the diagonal metric, and a final step-size
 * re-adaptation phase. No monitor runs during warmup, so each chain's
 * warmup always runs without barriers.
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
    /** True when the deadline cut the run short of its iteration budget. */
    bool expired = false;
    /** Wall-clock seconds the run consumed (warmup included). */
    double elapsedSeconds = 0.0;
};

/**
 * Run a multi-chain job under a wall-clock budget. The deadline is
 * enforced at round granularity through the phased executor's monitor:
 * after every post-warmup round the elapsed time is compared against
 * @p deadlineSeconds and the run stops — keeping every draw taken so
 * far — the first time it is exceeded. Consequences of that design:
 *
 *  - warmup always completes (no monitor fires during warmup), so a
 *    deadline shorter than warmup still pays for warmup plus exactly
 *    one sampling round;
 *  - a non-finite deadline (or infinity) disables the check and the
 *    run degenerates to plain run();
 *  - the deadline changes only *when the run stops*, never any chain's
 *    trajectory, so delivered draws are a prefix of the undeadlined
 *    run's draws under every ExecutionPolicy.
 *
 * This is the entry the bayes::serve runtime uses to keep one tenant's
 * over-budget request from blowing through everyone else's SLO.
 * @param deadlineSeconds  wall budget; <= 0 stops after the first round
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
