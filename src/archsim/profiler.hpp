/**
 * @file
 * Workload profiling for the architecture model. profileWorkload runs a
 * short, real NUTS adaptation per chain (so the captured behavior is
 * post-warmup steady state), then records one instrumented gradient
 * evaluation per chain: its memory trace, tape size, and op-class mix.
 * Each chain owns a separate evaluator, so chains occupy disjoint
 * arenas — exactly the "every chain fetches data independently"
 * property behind the paper's multicore LLC contention.
 */
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "archsim/trace.hpp"
#include "ppl/model.hpp"

namespace bayes::archsim {

/** Steady-state profile of one chain's gradient evaluation. */
struct EvalProfile
{
    /** Memory accesses of one representative gradient evaluation. */
    std::vector<Access> trace;
    /** Tape nodes per evaluation. */
    std::size_t tapeNodes = 0;
    /** Node count per ad::OpClass. */
    std::array<std::uint64_t, ad::kNumOpClasses> opCounts{};
    /** Unconstrained dimensionality. */
    std::size_t dim = 0;
    /** Bytes of observed data streamed per evaluation. */
    std::size_t dataBytes = 0;
};

/** Per-chain steady-state profiles of a workload. */
struct WorkloadProfile
{
    std::vector<EvalProfile> chains;
};

/**
 * Profile @p model with @p chains instrumented chains.
 * @param warmupIters  adaptation iterations before capturing (enough to
 *                     reach a representative step size / position)
 * @param scalarLikelihood  profile the reference per-observation scalar
 *                     path (`Model::logProbScalar`) instead of the
 *                     fused-kernel path — the implementation the paper
 *                     characterizes as LLC-bound
 */
WorkloadProfile profileWorkload(const ppl::Model& model, int chains,
                                int warmupIters = 30,
                                std::uint64_t seed = 20190331,
                                bool scalarLikelihood = false);

} // namespace bayes::archsim
