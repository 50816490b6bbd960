#include "samplers/types.hpp"

#include "support/error.hpp"

namespace bayes::samplers {

const char*
algorithmName(Algorithm algo)
{
    switch (algo) {
      case Algorithm::Nuts:
        return "NUTS";
      case Algorithm::Hmc:
        return "HMC";
      case Algorithm::Mh:
        return "MH";
      case Algorithm::Slice:
        return "slice";
    }
    return "?";
}

const char*
executionModeName(ExecutionMode mode)
{
    switch (mode) {
      case ExecutionMode::Sequential:
        return "sequential";
      case ExecutionMode::Pool:
        return "pool";
    }
    return "?";
}

std::uint64_t
ChainResult::postWarmupGradEvals() const
{
    const std::size_t warmupIters = iterStats.size() - draws.size();
    std::uint64_t total = 0;
    for (std::size_t i = warmupIters; i < iterStats.size(); ++i)
        total += iterStats[i].gradEvals;
    return total;
}

std::vector<std::vector<double>>
RunResult::coordinate(std::size_t i) const
{
    std::vector<std::vector<double>> out;
    out.reserve(chains.size());
    for (const auto& chain : chains) {
        std::vector<double> xs;
        xs.reserve(chain.draws.size());
        for (const auto& draw : chain.draws) {
            BAYES_CHECK(i < draw.size(), "coordinate out of range");
            xs.push_back(draw[i]);
        }
        out.push_back(std::move(xs));
    }
    return out;
}

std::uint64_t
RunResult::totalGradEvals() const
{
    std::uint64_t total = 0;
    for (const auto& chain : chains)
        total += chain.totalGradEvals;
    return total;
}

} // namespace bayes::samplers
