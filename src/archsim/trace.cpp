#include "archsim/trace.hpp"

#include "support/error.hpp"

namespace bayes::archsim {
namespace {

constexpr auto kArenas = static_cast<std::uint64_t>(Arena::Data) + 1;
constexpr std::size_t kLine = 64;

} // namespace

std::uint64_t
arenaBase(int chain, Arena arena)
{
    const std::uint64_t slot = static_cast<std::uint64_t>(chain) * kArenas
        + static_cast<std::uint64_t>(arena) + 1;
    // Fibonacci hashing: the top 6 bits of slot * 2^64/phi pick the
    // page colour, which spreads consecutive slots over all 64.
    return (slot << 36) + ((slot * 0x9e3779b97f4a7c15ull) >> 58) * 4096;
}

std::vector<Access>
gradientTrace(const ad::Tape& tape, std::size_t densityBegin,
              std::size_t dataBytes, int chain)
{
    const auto nodes = tape.nodes();
    const auto spans = tape.wideSpans();
    BAYES_CHECK(!nodes.empty() && densityBegin <= nodes.size(),
                "gradientTrace: empty tape, or density begins past its end");
    std::vector<Access> trace;
    const auto touch = [&](Arena arena, std::size_t offset, bool write) {
        trace.push_back(Access{arenaBase(chain, arena) + offset, write});
    };

    // Forward: node writes in push order, a wide node's edges just
    // before it, and the data pass where the density began.
    for (std::size_t i = 0; i <= nodes.size(); ++i) {
        if (i == densityBegin)
            for (std::size_t offset = 0; offset < dataBytes; offset += kLine)
                touch(Arena::Data, offset, false);
        if (i == nodes.size())
            break;
        if (nodes[i].parent[0] == ad::kWideNode) {
            const ad::WideSpan s = spans[nodes[i].parent[1]];
            for (std::size_t k = s.begin; k < s.begin + s.count; ++k)
                touch(Arena::Edges, k * sizeof(ad::Edge), true);
        }
        touch(Arena::Nodes, i * sizeof(ad::Node), true);
    }

    // Reverse: a parent precedes its child, so each adjoint is final
    // when the sweep reaches it and the final adjoints reproduce the
    // sweep's skip decisions.
    std::vector<double> adjoints;
    tape.gradient(static_cast<ad::NodeId>(nodes.size() - 1), adjoints);
    for (std::size_t i = nodes.size(); i-- > 0;) {
        touch(Arena::Adjoints, i * sizeof(double), false);
        if (adjoints[i] == 0.0)
            continue;
        touch(Arena::Nodes, i * sizeof(ad::Node), false);
        const ad::Node& node = nodes[i];
        if (node.parent[0] == ad::kWideNode) {
            touch(Arena::Spans, node.parent[1] * sizeof(ad::WideSpan), false);
            const ad::WideSpan s = spans[node.parent[1]];
            for (std::size_t k = s.begin; k < s.begin + s.count; ++k) {
                touch(Arena::Edges, k * sizeof(ad::Edge), false);
                touch(Arena::Adjoints,
                      tape.edges()[k].parent * sizeof(double), true);
            }
            continue;
        }
        for (const ad::NodeId p : node.parent)
            if (p != ad::kNoParent)
                touch(Arena::Adjoints, p * sizeof(double), true);
    }
    return trace;
}

} // namespace bayes::archsim
