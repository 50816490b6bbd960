/**
 * @file
 * System-model tests on synthetic profiles: LLC contention appears
 * when concurrent working sets exceed capacity, the slowest chain
 * bounds latency, bandwidth saturates, and energy accounting holds.
 */
#include <gtest/gtest.h>

#include "archsim/system.hpp"

namespace bayes::archsim {
namespace {

/**
 * Build a synthetic chain profile that streams a working set of
 * @p bytes at @p base, forward then backward (tape-like).
 */
EvalProfile
syntheticChain(std::uint64_t base, std::size_t bytes)
{
    EvalProfile p;
    p.tapeNodes = bytes / 32;
    p.opCounts[static_cast<int>(ad::OpClass::AddSub)] = p.tapeNodes / 2;
    p.opCounts[static_cast<int>(ad::OpClass::Mul)] = p.tapeNodes / 2;
    p.dim = 8;
    p.dataBytes = 0;
    for (std::uint64_t off = 0; off < bytes; off += 64)
        p.trace.push_back(Access{base + off, true});
    for (std::uint64_t off = bytes; off >= 64; off -= 64)
        p.trace.push_back(Access{base + off - 64, false});
    return p;
}

WorkloadProfile
syntheticWorkload(int chains, std::size_t bytesPerChain)
{
    WorkloadProfile wp;
    for (int c = 0; c < chains; ++c)
        wp.chains.push_back(syntheticChain(
            0x10000000ull + static_cast<std::uint64_t>(c) * 0x4000000ull,
            bytesPerChain));
    return wp;
}

RunWork
uniformWork(int chains, std::uint64_t evals)
{
    RunWork work;
    work.chainGradEvals.assign(chains, evals);
    work.chainIterations.assign(chains, evals / 16);
    return work;
}

TEST(System, SmallWorkingSetsScaleAcrossCores)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(4, 64 * 1024);
    const auto work = uniformWork(4, 1000);
    const auto s1 = simulateSystem(profile, work, platform, 1);
    const auto s4 = simulateSystem(profile, work, platform, 4);
    EXPECT_NEAR(s1.seconds / s4.seconds, 4.0, 0.4);
    EXPECT_LT(s4.llcMpki, 1.0);
}

TEST(System, OversizedConcurrentWorkingSetsCauseContention)
{
    const auto platform = Platform::skylake(); // 1 MB scaled LLC
    const auto profile = syntheticWorkload(4, 640 * 1024);
    const auto work = uniformWork(4, 300);
    const auto s1 = simulateSystem(profile, work, platform, 1);
    const auto s4 = simulateSystem(profile, work, platform, 4);
    EXPECT_GT(s4.llcMpki, s1.llcMpki);
    EXPECT_LT(s1.seconds / s4.seconds, 3.0); // scaling capped
}

TEST(System, BiggerLlcReducesMisses)
{
    const auto sky = Platform::skylake();
    const auto bdw = Platform::broadwell();
    const auto profile = syntheticWorkload(4, 640 * 1024);
    const auto work = uniformWork(4, 300);
    const auto onSky = simulateSystem(profile, work, sky, 4);
    const auto onBdw = simulateSystem(profile, work, bdw, 4);
    EXPECT_LT(onBdw.llcMpki, onSky.llcMpki);
}

TEST(System, SlowestChainBoundsLatency)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(4, 64 * 1024);
    RunWork work;
    work.chainGradEvals = {1000, 1000, 1000, 3000}; // one straggler
    work.chainIterations = {100, 100, 100, 100};
    const auto s4 = simulateSystem(profile, work, platform, 4);
    // The slowest chain does 3x the work: job time tracks it.
    EXPECT_NEAR(s4.seconds, s4.chainSeconds[3], 1e-9);
    EXPECT_GT(s4.chainSeconds[3] / s4.chainSeconds[0], 2.5);
}

TEST(System, TwoCoresSumChainsPerCore)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(4, 64 * 1024);
    const auto work = uniformWork(4, 1000);
    const auto s2 = simulateSystem(profile, work, platform, 2);
    // Each core runs two chains back to back.
    EXPECT_NEAR(s2.seconds,
                s2.chainSeconds[0] + s2.chainSeconds[2], 0.25 * s2.seconds);
}

TEST(System, EnergyIsPowerTimesTime)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(2, 64 * 1024);
    const auto work = uniformWork(2, 500);
    const auto s = simulateSystem(profile, work, platform, 2);
    EXPECT_NEAR(s.energyJ, s.powerW * s.seconds, 1e-9);
    EXPECT_NEAR(s.powerW, platform.idlePowerW + 2 * platform.corePowerW,
                1e-9);
}

TEST(System, HigherFrequencyWinsWhenComputeBound)
{
    const auto sky = Platform::skylake();   // 4.2 GHz
    const auto bdw = Platform::broadwell(); // 3.6 GHz
    const auto profile = syntheticWorkload(4, 32 * 1024);
    const auto work = uniformWork(4, 1000);
    const auto onSky = simulateSystem(profile, work, sky, 4);
    const auto onBdw = simulateSystem(profile, work, bdw, 4);
    EXPECT_LT(onSky.seconds, onBdw.seconds);
    EXPECT_NEAR(onBdw.seconds / onSky.seconds, 4.2 / 3.6, 0.12);
}

TEST(System, BandwidthNeverExceedsPlatformCeiling)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(4, 4 * 1024 * 1024);
    const auto work = uniformWork(4, 100);
    const auto s = simulateSystem(profile, work, platform, 4);
    EXPECT_LE(s.bandwidthMBps, platform.memBandwidthGBps * 1000.0 + 1e-6);
}

TEST(System, ExtractRunWorkCountsAllPhases)
{
    samplers::RunResult run;
    run.chains.resize(2);
    for (auto& chain : run.chains) {
        chain.iterStats = {{10, 3, false}, {20, 4, false}, {5, 2, true}};
        chain.draws = {{0.0}};
    }
    const auto work = extractRunWork(run);
    ASSERT_EQ(work.chainGradEvals.size(), 2u);
    EXPECT_EQ(work.chainGradEvals[0], 35u);
    EXPECT_EQ(work.chainIterations[0], 3u);
}

TEST(System, ValidatesArguments)
{
    const auto platform = Platform::skylake();
    const auto profile = syntheticWorkload(2, 1024);
    const auto work = uniformWork(2, 10);
    EXPECT_THROW(simulateSystem(profile, work, platform, 0), Error);
    EXPECT_THROW(simulateSystem(profile, work, platform, 99), Error);
    EXPECT_THROW(
        simulateSystem(profile, uniformWork(3, 10), platform, 2), Error);
    EXPECT_THROW(simulateSystem(profile, RunWork{{10, 10}, {1}}, platform, 2),
                 Error);
}

} // namespace
} // namespace bayes::archsim
