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
        if (probe_)
            probe_->access(&edges_.back(), sizeof(Edge), true);
    }
    const auto span = static_cast<NodeId>(wideSpans_.size());
    wideSpans_.push_back(
        WideSpan{begin, static_cast<std::uint32_t>(parents.size())});
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{{0.0, 0.0}, {kWideNode, span}});
    ++opCounts_[static_cast<std::size_t>(cls)];
    if (probe_)
        probe_->access(&nodes_[id], sizeof(Node), true);
    return id;
}

void
Tape::gradient(NodeId output, std::vector<double>& out)
{
    BAYES_CHECK(output < nodes_.size(), "gradient of unknown node");
    out.assign(nodes_.size(), 0.0);
    out[output] = 1.0;
    for (NodeId i = output + 1; i-- > 0;) {
        const double adj = out[i];
        if (probe_)
            probe_->access(&out[i], sizeof(double), false);
        if (adj == 0.0)
            continue;
        const Node& node = nodes_[i];
        if (probe_)
            probe_->access(&node, sizeof(Node), false);
        if (node.parent[0] == kWideNode) {
            const WideSpan span = wideSpans_[node.parent[1]];
            if (probe_)
                probe_->access(&wideSpans_[node.parent[1]],
                               sizeof(WideSpan), false);
            const Edge* edges = edges_.data() + span.begin;
            for (std::uint32_t k = 0; k < span.count; ++k) {
                out[edges[k].parent] += edges[k].weight * adj;
                if (probe_) {
                    probe_->access(&edges[k], sizeof(Edge), false);
                    probe_->access(&out[edges[k].parent], sizeof(double),
                                   true);
                }
            }
            continue;
        }
        for (int k = 0; k < 2; ++k) {
            const NodeId p = node.parent[k];
            if (p == kNoParent)
                continue;
            out[p] += node.weight[k] * adj;
            if (probe_)
                probe_->access(&out[p], sizeof(double), true);
        }
    }
}

} // namespace bayes::ad
