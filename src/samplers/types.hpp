/**
 * @file
 * Shared sampler result and configuration types. Work counters
 * (gradient evaluations per iteration and per chain, tree depths) are
 * first-class because the architecture model consumes them to
 * reconstruct per-chain latency — including the paper's slowest-chain
 * effect. The tape's size per gradient is not a run counter: archsim
 * reads it from its own profile (`archsim::profileWorkload`).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bayes::samplers {

/** Inference algorithm selector. */
enum class Algorithm
{
    Nuts,  ///< No-U-Turn sampler (paper's default, Stan's default)
    Hmc,   ///< static-trajectory Hamiltonian Monte Carlo
    Mh,    ///< random-walk Metropolis-Hastings (Algorithm 1 baseline)
    Slice, ///< coordinate-wise slice sampler (Neal 2003)
};

/** Human-readable algorithm name. */
const char* algorithmName(Algorithm algo);

/** How the chains of one run are mapped onto threads. */
enum class ExecutionMode
{
    Sequential, ///< every chain inline on the calling thread
    Pool,       ///< process-shared worker pool, reused across runs
};

/** Human-readable execution-mode name. */
const char* executionModeName(ExecutionMode mode);

/**
 * Chain execution policy. Both modes are draw-for-draw identical
 * (chains own independent RNG streams and evaluators) and share one
 * schedule: each chain samples to the IterationMonitor's next check
 * draw, or to the end, as one task, and the monitor decides
 * continue/stop on the calling thread between those segments — so
 * computation elision composes with parallelism. Under a finite
 * deadline with fewer workers than chains (Sequential included), the
 * segments shrink to one draw.
 */
struct ExecutionPolicy
{
    ExecutionMode mode = ExecutionMode::Sequential;
    /** Pool mode: worker count; 0 = hardware concurrency. Else unused. */
    int workers = 0;

    static ExecutionPolicy sequential() { return {}; }
    static ExecutionPolicy pool(int workers = 0)
    {
        return {ExecutionMode::Pool, workers};
    }
};

/** Configuration of a multi-chain run. */
struct Config
{
    Algorithm algorithm = Algorithm::Nuts;
    /** Number of Markov chains (paper follows [36] and uses 4). */
    int chains = 4;
    /** Total iterations per chain, including warmup. */
    int iterations = 2000;
    /**
     * Warmup (adaptation) iterations; draws from warmup are discarded.
     * Negative means "half of iterations" (the Stan default).
     */
    int warmup = -1;
    /** Target Metropolis acceptance statistic for step-size adaptation. */
    double targetAccept = 0.8;
    /** NUTS doubling limit. */
    int maxTreeDepth = 10;
    /** Leapfrog steps for static HMC. */
    int hmcLeapfrogSteps = 32;
    /**
     * Adapt the diagonal metric during warmup, in Stan's doubling
     * windows (samplers::metricWindowEnds); an ablation knob.
     */
    bool adaptMetric = true;
    /** How chains are executed (see ExecutionPolicy). */
    ExecutionPolicy execution;
    /** Base RNG seed; chain c uses the c-th fork of this stream. */
    std::uint64_t seed = 20190331;

    /** Resolved warmup count. */
    int resolvedWarmup() const { return warmup < 0 ? iterations / 2 : warmup; }

    /** Post-warmup draws per chain. */
    int postWarmup() const { return iterations - resolvedWarmup(); }
};

/** Per-iteration record used for work/latency reconstruction. */
struct IterationStat
{
    /** Gradient (leapfrog) evaluations consumed by this iteration. */
    std::uint32_t gradEvals;
    /** Tree depth (NUTS) or fixed step count (HMC); 0 for MH. */
    std::uint16_t treeDepth;
    /** True when the trajectory diverged. */
    bool divergent;

    bool operator==(const IterationStat&) const = default;
};

/** Result of a single chain. */
struct ChainResult
{
    /** Post-warmup draws on the constrained scale, [draw][coordinate]. */
    std::vector<std::vector<double>> draws;
    /** Log density of every post-warmup draw. */
    std::vector<double> logProbs;
    /** One entry per iteration including warmup. */
    std::vector<IterationStat> iterStats;
    /** Mean acceptance statistic over post-warmup iterations. */
    double acceptRate = 0.0;
    /** Adapted step size at the end of warmup (NUTS/HMC). */
    double stepSize = 0.0;
    /** Total gradient evaluations (all phases). */
    std::uint64_t totalGradEvals = 0;
    /** Count of divergent transitions post warmup. */
    std::uint64_t divergences = 0;

    /** Post-warmup gradient-evaluation count (latency proxy). */
    std::uint64_t postWarmupGradEvals() const;
};

/** Result of a multi-chain run. */
struct RunResult
{
    std::vector<ChainResult> chains;

    /** Extract one coordinate's draws from every chain. */
    std::vector<std::vector<double>> coordinate(std::size_t i) const;

    /** Total gradient evaluations across chains. */
    std::uint64_t totalGradEvals() const;
};

} // namespace bayes::samplers
