/**
 * @file
 * Arena tape for reverse-mode automatic differentiation.
 *
 * The tape stores one Node per elementary operation. Each node holds up
 * to two parent indices with the local partial derivatives already
 * evaluated (the "precomputed adjoint weights" layout Stan's math
 * library popularized). The gradient is a single reverse sweep.
 *
 * Fused likelihood kernels need more than two parents per node, so the
 * tape also keeps a side edge arena: a wide node stores a sentinel in
 * parent[0] and an index into `wideSpans_` in parent[1], and its K
 * weighted edges live contiguously in `edges_`. One wide node replaces
 * the O(data) scalar subgraph a vectorized lpdf would otherwise record
 * (see docs/architecture.md, "Wide tape nodes & fused kernels"). A tape
 * switched to per-observation mode (setPerObservation) has the kernels
 * record that scalar subgraph instead: the reference tape.
 *
 * The arenas are readable (nodes, edges, wideSpans), and a gradient's
 * memory traffic is a function of them and its adjoints:
 * archsim::gradientTrace derives the trace the cache simulator replays
 * from a recorded tape (see archsim/trace.hpp), so the gradient path
 * carries no observer.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "support/error.hpp"

namespace bayes::ad {

/** Index of a node on the tape. */
using NodeId = std::uint32_t;

/** Sentinel parent id meaning "no parent" (leaf or unused slot). */
inline constexpr NodeId kNoParent = 0xffffffffu;

/**
 * Sentinel in Node::parent[0] marking a wide node: parent[1] then holds
 * the index of its WideSpan rather than a parent id.
 */
inline constexpr NodeId kWideNode = 0xfffffffeu;

/** One elementary operation: two weighted parent edges. */
struct Node
{
    double weight[2];
    NodeId parent[2];
};

/** One weighted parent edge of a wide node, stored in the edge arena. */
struct Edge
{
    NodeId parent;
    double weight;
};

/** Contiguous run of edges in the edge arena owned by one wide node. */
struct WideSpan
{
    std::uint32_t begin;
    std::uint32_t count;
};

/**
 * Cost class of an elementary operation. The architecture model maps
 * each class to an issue cost, so a workload's op mix determines its
 * base CPI (e.g. the lgamma/log-heavy hierarchical models run at lower
 * IPC than the mul/add-dominated Gaussian-process models, matching the
 * diversity in the paper's Fig. 1a).
 */
enum class OpClass : std::uint8_t
{
    Leaf,    ///< parameter input (no arithmetic)
    AddSub,  ///< addition / subtraction / negation
    Mul,     ///< multiplication
    Div,     ///< division / reciprocal / sqrt
    Special, ///< transcendental (exp, log, lgamma, erf, ...)
};

/** Number of OpClass values. */
inline constexpr std::size_t kNumOpClasses = 5;

/**
 * Growable arena of AD nodes plus the reverse-sweep gradient driver.
 *
 * Typical lifecycle per sampler iteration:
 *   tape.clear();
 *   Var x = tape.variable(...);   // leaves
 *   Var lp = model.logProb(...);  // builds nodes
 *   tape.gradient(lp.id(), grad); // reverse sweep
 */
class Tape
{
  public:
    Tape() = default;

    Tape(const Tape&) = delete;
    Tape& operator=(const Tape&) = delete;

    /** Create an independent leaf node (a differentiable input). */
    NodeId
    newLeaf()
    {
        return push(kNoParent, 0.0, kNoParent, 0.0, OpClass::Leaf);
    }

    /** Create a node with one parent edge. */
    NodeId
    pushUnary(NodeId parent, double weight,
              OpClass cls = OpClass::AddSub)
    {
        return push(parent, weight, kNoParent, 0.0, cls);
    }

    /** Create a node with two parent edges. */
    NodeId
    pushBinary(NodeId p0, double w0, NodeId p1, double w1,
               OpClass cls = OpClass::AddSub)
    {
        return push(p0, w0, p1, w1, cls);
    }

    /**
     * Create a wide node carrying K weighted parent edges (K may be 0,
     * e.g. a fused likelihood whose parameters are all constants).
     * @param parents  ids of the K parents
     * @param weights  the K precomputed local partials, same order
     */
    NodeId pushWide(std::span<const NodeId> parents,
                    std::span<const double> weights,
                    OpClass cls = OpClass::AddSub);

    /** Number of nodes recorded since the last clear(). */
    std::size_t size() const { return nodes_.size(); }

    /** Nodes recorded since the last clear(), in push order. */
    std::span<const Node> nodes() const { return nodes_; }

    /** Wide-node edges recorded since the last clear(), in push order. */
    std::span<const Edge> edges() const { return edges_; }

    /** Wide-node spans; a wide node's parent[1] indexes this. */
    std::span<const WideSpan> wideSpans() const { return wideSpans_; }

    /**
     * Record the per-observation reference tape: with this on, the
     * fused kernels in math/vec_kernels.hpp record the scalar loop a
     * Stan model would, one term per observation, instead of one wide
     * node. archsim characterizes this tape (the paper's); the samplers
     * run with it off, the default. clear() keeps the setting.
     */
    void setPerObservation(bool on) { perObservation_ = on; }

    /** True when kernels record the per-observation reference tape. */
    bool perObservation() const { return perObservation_; }

    /** Discard all nodes but keep the arena capacity. */
    void
    clear()
    {
        nodes_.clear();
        edges_.clear();
        wideSpans_.clear();
        opCounts_ = {};
    }

    /** Pre-size the arenas (e.g. to the previous eval's footprint). */
    void
    reserve(std::size_t nodes, std::size_t edges = 0)
    {
        nodes_.reserve(nodes);
        edges_.reserve(edges);
    }

    /** Node count per OpClass since the last clear() (op-mix profile). */
    const std::array<std::uint64_t, kNumOpClasses>&
    opCounts() const
    {
        return opCounts_;
    }

    /**
     * Reverse sweep: fill @p out with d(output)/d(node) for every node.
     * @param output  node whose gradient is requested
     * @param out     resized to size(); out[i] is the adjoint of node i
     */
    void gradient(NodeId output, std::vector<double>& out) const;

  private:
    NodeId
    push(NodeId p0, double w0, NodeId p1, double w1, OpClass cls)
    {
        BAYES_ASSERT(nodes_.size() < kWideNode);
        const NodeId id = static_cast<NodeId>(nodes_.size());
        nodes_.push_back(Node{{w0, w1}, {p0, p1}});
        ++opCounts_[static_cast<std::size_t>(cls)];
        return id;
    }

    std::vector<Node> nodes_;
    std::vector<Edge> edges_;
    std::vector<WideSpan> wideSpans_;
    std::array<std::uint64_t, kNumOpClasses> opCounts_{};
    bool perObservation_ = false;
};

} // namespace bayes::ad
