/**
 * @file
 * Workload profiler tests: per-chain traces exist, chains occupy
 * disjoint arenas, op counts and tape sizes are consistent.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "archsim/profiler.hpp"
#include "workloads/suite.hpp"

namespace bayes::archsim {
namespace {

TEST(Profiler, ProducesOneProfilePerChain)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    const auto profile = profileWorkload(*wl, 3, 10);
    ASSERT_EQ(profile.chains.size(), 3u);
    for (const auto& chain : profile.chains) {
        EXPECT_FALSE(chain.trace.empty());
        // Fused kernels keep the tape small but never trivial: priors,
        // link transforms and the wide likelihood nodes remain.
        EXPECT_GT(chain.tapeNodes, 30u);
        EXPECT_EQ(chain.dim, wl->layout().dim());
        EXPECT_EQ(chain.dataBytes, wl->modeledDataBytes());
    }
}

TEST(Profiler, ScalarPathProfilesLargerThanFused)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    const auto fused = profileWorkload(*wl, 1, 10);
    const auto scalar = profileWorkload(*wl, 1, 10, 20190331,
                                        /*scalarLikelihood=*/true);
    // The scalar reference path builds per-observation nodes; the fused
    // path must be at least 4x smaller (the PR's acceptance bar).
    EXPECT_GT(scalar.chains[0].tapeNodes, 4 * fused.chains[0].tapeNodes);
    EXPECT_GT(scalar.chains[0].trace.size(), fused.chains[0].trace.size());
}

TEST(Profiler, OpCountsSumToTapeNodes)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    const auto profile = profileWorkload(*wl, 1, 10);
    const auto& chain = profile.chains[0];
    std::uint64_t total = 0;
    for (auto c : chain.opCounts)
        total += c;
    EXPECT_EQ(total, chain.tapeNodes);
}

TEST(Profiler, ChainsOccupyDisjointAddressRanges)
{
    const auto wl = workloads::makeWorkload("ode", 0.5);
    const auto profile = profileWorkload(*wl, 2, 10);
    auto range = [](const EvalProfile& p) {
        std::uint64_t lo = ~0ull, hi = 0;
        for (const auto& a : p.trace) {
            lo = std::min(lo, a.addr);
            hi = std::max(hi, a.addr);
        }
        return std::pair{lo, hi};
    };
    const auto [lo0, hi0] = range(profile.chains[0]);
    const auto [lo1, hi1] = range(profile.chains[1]);
    // The tape arenas are separate allocations: their address midpoints
    // must differ (overlap of incidental stack/data lines is fine, but
    // the bulk of the traces must not coincide).
    std::size_t shared = 0;
    std::vector<std::uint64_t> lines0;
    for (const auto& a : profile.chains[0].trace)
        lines0.push_back(a.addr >> 6);
    std::sort(lines0.begin(), lines0.end());
    lines0.erase(std::unique(lines0.begin(), lines0.end()), lines0.end());
    std::vector<std::uint64_t> lines1;
    for (const auto& a : profile.chains[1].trace)
        lines1.push_back(a.addr >> 6);
    std::sort(lines1.begin(), lines1.end());
    lines1.erase(std::unique(lines1.begin(), lines1.end()), lines1.end());
    for (auto l : lines1)
        shared += std::binary_search(lines0.begin(), lines0.end(), l);
    EXPECT_LT(static_cast<double>(shared),
              0.2 * static_cast<double>(lines1.size()));
    (void)lo0;
    (void)hi0;
    (void)lo1;
    (void)hi1;
}

TEST(Profiler, TraceContainsReadsAndWrites)
{
    const auto wl = workloads::makeWorkload("votes", 0.5);
    const auto profile = profileWorkload(*wl, 1, 10);
    std::size_t reads = 0, writes = 0;
    for (const auto& a : profile.chains[0].trace)
        (a.write ? writes : reads) += 1;
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, 0u);
}

TEST(Profiler, TraceSizeTracksTapeSize)
{
    // On the scalar reference path, the larger modeled dataset builds
    // the larger tape and therefore the larger trace.
    const auto big = workloads::makeWorkload("tickets", 0.5);
    const auto small = workloads::makeWorkload("butterfly", 0.5);
    const auto bp = profileWorkload(*big, 1, 8, 20190331,
                                    /*scalarLikelihood=*/true);
    const auto sp = profileWorkload(*small, 1, 8, 20190331,
                                    /*scalarLikelihood=*/true);
    EXPECT_GT(bp.chains[0].trace.size(), sp.chains[0].trace.size());
}

TEST(Profiler, DeterministicAcrossCalls)
{
    const auto wl = workloads::makeWorkload("racial", 0.5);
    const auto a = profileWorkload(*wl, 1, 10, 99);
    const auto b = profileWorkload(*wl, 1, 10, 99);
    EXPECT_EQ(a.chains[0].tapeNodes, b.chains[0].tapeNodes);
    EXPECT_EQ(a.chains[0].trace.size(), b.chains[0].trace.size());
}

TEST(Profiler, RejectsZeroChains)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    EXPECT_THROW(profileWorkload(*wl, 0), Error);
}

TEST(TraceCapture, RespectsCap)
{
    TraceCapture capture(3);
    int x = 0;
    for (int i = 0; i < 5; ++i)
        capture.access(&x, 8, false);
    EXPECT_EQ(capture.trace().size(), 3u);
    EXPECT_TRUE(capture.truncated());
    capture.clear();
    EXPECT_TRUE(capture.trace().empty());
    EXPECT_FALSE(capture.truncated());
}

} // namespace
} // namespace bayes::archsim
