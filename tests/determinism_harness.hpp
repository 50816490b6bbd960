/**
 * @file
 * Shared determinism harness: byte-level run-equality checks and the
 * policy × batchEval sweep used by the sampler, batched-evaluation,
 * elision and determinism suites.
 *
 * The executor's core guarantee — every ExecutionPolicy, with or
 * without batched evaluation, yields draws byte-identical to the
 * sequential unbatched schedule — used to be asserted by three
 * near-identical helpers in three test files.
 * This header is the single implementation: comparisons are *bitwise*
 * (memcmp on the double representations, so -0.0 vs 0.0 and NaN
 * payload differences are divergences), and a failure reports the
 * first diverging chain/draw/coordinate with both operands' bit
 * patterns, which is what you need to debug an RNG-replay or
 * reduction-order slip.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "samplers/runner.hpp"

namespace bayes::harness {

/** Hex bit pattern of a double (for first-divergence diagnostics). */
inline std::string
doubleBits(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    std::ostringstream os;
    os << v << " (0x" << std::hex << bits << ")";
    return os.str();
}

/** True iff two doubles have the same byte representation. */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

namespace detail {

/** Bitwise-compare two draw sequences; empty string means identical. */
inline std::string
compareDraws(std::size_t c, const std::vector<std::vector<double>>& a,
             const std::vector<std::vector<double>>& b, std::size_t count)
{
    std::ostringstream os;
    for (std::size_t t = 0; t < count; ++t) {
        if (a[t].size() != b[t].size()) {
            os << "chain " << c << " draw " << t << ": dimension "
               << a[t].size() << " vs " << b[t].size();
            return os.str();
        }
        for (std::size_t d = 0; d < a[t].size(); ++d) {
            if (!sameBits(a[t][d], b[t][d])) {
                os << "first divergence at chain " << c << " draw " << t
                   << " coordinate " << d << ": " << doubleBits(a[t][d])
                   << " vs " << doubleBits(b[t][d]);
                return os.str();
            }
        }
    }
    return {};
}

} // namespace detail

/**
 * Assert two runs are byte-identical: same chain count, same draw
 * count, bitwise-equal draws and log densities, equal gradient-eval
 * totals. Use as EXPECT_TRUE(identicalRuns(a, b)).
 */
inline ::testing::AssertionResult
identicalRuns(const samplers::RunResult& a, const samplers::RunResult& b)
{
    if (a.chains.size() != b.chains.size())
        return ::testing::AssertionFailure()
            << "chain count " << a.chains.size() << " vs "
            << b.chains.size();
    for (std::size_t c = 0; c < a.chains.size(); ++c) {
        const auto& ca = a.chains[c];
        const auto& cb = b.chains[c];
        if (ca.draws.size() != cb.draws.size())
            return ::testing::AssertionFailure()
                << "chain " << c << ": " << ca.draws.size() << " vs "
                << cb.draws.size() << " draws";
        const auto diverged =
            detail::compareDraws(c, ca.draws, cb.draws, ca.draws.size());
        if (!diverged.empty())
            return ::testing::AssertionFailure() << diverged;
        for (std::size_t t = 0; t < ca.logProbs.size(); ++t)
            if (!sameBits(ca.logProbs[t], cb.logProbs[t]))
                return ::testing::AssertionFailure()
                    << "chain " << c << " logProb " << t << ": "
                    << doubleBits(ca.logProbs[t]) << " vs "
                    << doubleBits(cb.logProbs[t]);
        if (ca.totalGradEvals != cb.totalGradEvals)
            return ::testing::AssertionFailure()
                << "chain " << c << " totalGradEvals "
                << ca.totalGradEvals << " vs " << cb.totalGradEvals;
    }
    return ::testing::AssertionSuccess();
}

/**
 * Assert @p prefix is an exact (bitwise) prefix of @p full: every
 * chain's draws and log densities match @p full's leading entries.
 * This is the deadline contract — stopping early never changes any
 * delivered draw.
 */
inline ::testing::AssertionResult
identicalPrefix(const samplers::RunResult& prefix,
                const samplers::RunResult& full)
{
    if (prefix.chains.size() != full.chains.size())
        return ::testing::AssertionFailure()
            << "chain count " << prefix.chains.size() << " vs "
            << full.chains.size();
    for (std::size_t c = 0; c < prefix.chains.size(); ++c) {
        const auto& cp = prefix.chains[c];
        const auto& cf = full.chains[c];
        if (cp.draws.size() > cf.draws.size())
            return ::testing::AssertionFailure()
                << "chain " << c << ": prefix has " << cp.draws.size()
                << " draws, full run only " << cf.draws.size();
        const auto diverged =
            detail::compareDraws(c, cp.draws, cf.draws, cp.draws.size());
        if (!diverged.empty())
            return ::testing::AssertionFailure() << diverged;
        for (std::size_t t = 0; t < cp.logProbs.size(); ++t)
            if (!sameBits(cp.logProbs[t], cf.logProbs[t]))
                return ::testing::AssertionFailure()
                    << "chain " << c << " logProb " << t << ": "
                    << doubleBits(cp.logProbs[t]) << " vs "
                    << doubleBits(cf.logProbs[t]);
    }
    return ::testing::AssertionSuccess();
}

/** One cell of the execution-policy sweep. */
struct PolicyCase
{
    std::string label;
    samplers::ExecutionPolicy execution;
    bool batchEval = false;
};

/**
 * The standard sweep: pool(chains) (a worker per chain), pool(2)
 * unbatched, and pool(2) batched. The reference cell (sequential,
 * unbatched) is *not* in the grid — callers run it once and compare
 * every grid cell against it.
 */
inline std::vector<PolicyCase>
policyGrid(int chains)
{
    return {{"pool(chains)", samplers::ExecutionPolicy::pool(chains), false},
            {"pool(2) unbatched", samplers::ExecutionPolicy::pool(2), false},
            {"pool(2) batched", samplers::ExecutionPolicy::pool(2), true}};
}

/**
 * Run @p model under the sequential unbatched reference schedule, then
 * under every policyGrid(cfg.chains) cell, asserting byte-identical
 * runs throughout. @p cfg's execution/batchEval fields are overwritten
 * per cell; everything else (algorithm, chains, seed, ...) is the
 * caller's workload definition.
 */
inline void
expectPolicyInvariantDraws(const ppl::Model& model, samplers::Config cfg,
                           const samplers::IterationMonitor& monitor =
                               nullptr)
{
    cfg.execution = samplers::ExecutionPolicy::sequential();
    cfg.batchEval = false;
    const auto reference = samplers::run(model, cfg, monitor);

    for (const auto& cell : policyGrid(cfg.chains)) {
        SCOPED_TRACE(cell.label);
        cfg.execution = cell.execution;
        cfg.batchEval = cell.batchEval;
        EXPECT_TRUE(identicalRuns(samplers::run(model, cfg, monitor),
                                  reference));
    }
}

} // namespace bayes::harness
