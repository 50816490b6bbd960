/**
 * @file
 * Workload profiling for the architecture model. profileWorkload runs a
 * short, real NUTS adaptation per chain (so the profiled behavior is
 * post-warmup steady state), then evaluates one gradient per chain and
 * keeps its memory trace (derived from the tape, archsim/trace.hpp),
 * tape size, and op-class mix. Each chain's trace is placed in its own
 * arenas, so chains never share a line — exactly the "every chain
 * fetches data independently" property behind the paper's multicore
 * LLC contention.
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

/** Which of a model's two gradient tapes a profile characterizes. */
enum class TapeKind
{
    /**
     * The per-observation tape (`ad::Tape::setPerObservation`), on
     * which the fused kernels record one term per observation: Stan's
     * autodiff tape, the implementation the paper characterizes (and
     * finds LLC-bound on ad, survival and tickets). The paper's
     * figures, ablations and the DSE profile this one.
     */
    Reference,
    /** The fused-kernel tape the samplers actually run (wide nodes). */
    Fused,
};

/**
 * Profile @p model with @p chains independently adapted chains.
 * @param tape         which gradient tape to characterize; there is no
 *                     default, because the two differ by an order of
 *                     magnitude in working set
 * @param warmupIters  adaptation iterations before profiling (enough to
 *                     reach a representative step size / position)
 */
WorkloadProfile profileWorkload(const ppl::Model& model, int chains,
                                TapeKind tape, int warmupIters = 30,
                                std::uint64_t seed = 20190331);

} // namespace bayes::archsim
