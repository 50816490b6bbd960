#include "ad/tape.hpp"

namespace bayes::ad {

NodeId
Tape::pushWide(std::span<const NodeId> parents,
               std::span<const double> weights, OpClass cls)
{
    BAYES_CHECK(parents.size() == weights.size(),
                "pushWide: parents/weights size mismatch");
    BAYES_ASSERT(nodes_.size() < kWideNode);
    BAYES_ASSERT(edges_.size() + parents.size()
                 <= static_cast<std::size_t>(kWideNode));
    const auto begin = static_cast<std::uint32_t>(edges_.size());
    for (std::size_t k = 0; k < parents.size(); ++k) {
        BAYES_ASSERT(parents[k] < nodes_.size());
        edges_.push_back(Edge{parents[k], weights[k]});
    }
    const auto span = static_cast<NodeId>(wideSpans_.size());
    wideSpans_.push_back(
        WideSpan{begin, static_cast<std::uint32_t>(parents.size())});
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{{0.0, 0.0}, {kWideNode, span}});
    ++opCounts_[static_cast<std::size_t>(cls)];
    return id;
}

void
Tape::gradient(NodeId output, std::vector<double>& out) const
{
    BAYES_CHECK(output < nodes_.size(), "gradient of unknown node");
    out.assign(nodes_.size(), 0.0);
    out[output] = 1.0;
    for (NodeId i = output + 1; i-- > 0;) {
        const double adj = out[i];
        if (adj == 0.0)
            continue;
        const Node& node = nodes_[i];
        if (node.parent[0] == kWideNode) {
            const WideSpan span = wideSpans_[node.parent[1]];
            const Edge* edges = edges_.data() + span.begin;
            for (std::uint32_t k = 0; k < span.count; ++k)
                out[edges[k].parent] += edges[k].weight * adj;
            continue;
        }
        for (int k = 0; k < 2; ++k) {
            const NodeId p = node.parent[k];
            if (p == kNoParent)
                continue;
            out[p] += node.weight[k] * adj;
        }
    }
}

} // namespace bayes::ad
