/**
 * @file
 * The memory trace of one gradient evaluation, derived from its tape.
 * The trace is a function of the recorded tape alone: the forward pass
 * writes the nodes in push order (a wide node's edges just before the
 * node) with the likelihood's pass over the observed data at the index
 * where the density began, and the reverse sweep visits the nodes from
 * the output down, skipping each node whose adjoint is zero. One
 * gradient's trace is the repeating unit of a chain's memory behavior
 * (each leapfrog step replays the same pattern over the same arenas),
 * so replaying it through the cache model reproduces a chain's
 * steady-state traffic.
 *
 * Placement is a model parameter, not something the allocator decides,
 * so a trace (and every figure built on it) is a function of the seed.
 * Each (chain, arena) pair starts at its own 64 GB-aligned base plus a
 * fixed page colour: 0..63 pages of 4 KB, hashed from (chain, arena),
 * because the scaled Broadwell LLC's 4096 sets of 64 B span 64 pages.
 * Without the colour every arena would start in set 0.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ad/tape.hpp"

namespace bayes::archsim {

/** One memory access of a trace. */
struct Access
{
    std::uint64_t addr;
    bool write;

    friend bool operator==(const Access&, const Access&) = default;
};

/** The five arenas a gradient evaluation touches. */
enum class Arena
{
    Nodes,    ///< ad::Node per tape node
    Edges,    ///< ad::Edge per wide-node edge
    Spans,    ///< ad::WideSpan per wide node
    Adjoints, ///< one double per tape node
    Data,     ///< the observed data, read in 64 B lines
};

/** First byte of @p arena for chain @p chain (see the file comment). */
std::uint64_t arenaBase(int chain, Arena arena);

/**
 * Derive the memory trace of the gradient evaluation recorded on
 * @p tape, whose last node is the output (ppl::Evaluator::logProbGrad's
 * `lp + logJ`). The reverse sweep's skip decisions come from the tape's
 * own gradient of that node.
 * @param densityBegin  tape index where the data pass happens
 *                      (ppl::Evaluator::densityBegin)
 * @param dataBytes     observed data read per gradient
 *                      (ppl::Model::modeledDataBytes)
 * @param chain         placement slot; distinct chains never share a line
 */
std::vector<Access> gradientTrace(const ad::Tape& tape,
                                  std::size_t densityBegin,
                                  std::size_t dataBytes, int chain);

} // namespace bayes::archsim
