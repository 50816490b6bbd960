/**
 * @file
 * The determinism sweep (ctest label: determinism): drives the shared
 * harness across workloads × algorithms × seeds × execution policies
 * and asserts every cell's draws are byte-identical to the sequential
 * reference — with and without a monitor that stops the run mid-way.
 */
#include <gtest/gtest.h>

#include "determinism_harness.hpp"
#include "samplers/runner.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

samplers::Config
sweepConfig(samplers::Algorithm algo, std::uint64_t seed)
{
    samplers::Config cfg;
    cfg.algorithm = algo;
    cfg.chains = 3;
    cfg.iterations = 36;
    cfg.warmup = 18;
    cfg.hmcLeapfrogSteps = 8;
    cfg.seed = seed;
    return cfg;
}

TEST(Determinism, DrawsAreByteIdenticalAcrossPolicySweep)
{
    for (const char* name : {"ad", "12cities"}) {
        const auto wl = workloads::makeWorkload(name, 0.1);
        for (const auto algo :
             {samplers::Algorithm::Mh, samplers::Algorithm::Hmc,
              samplers::Algorithm::Nuts, samplers::Algorithm::Slice}) {
            for (const std::uint64_t seed : {777ull, 20190331ull}) {
                SCOPED_TRACE(::testing::Message()
                             << name << " algo "
                             << samplers::algorithmName(algo) << " seed "
                             << seed);
                harness::expectPolicyInvariantDraws(
                    *wl, sweepConfig(algo, seed));
            }
        }
    }
    // Warmup 18 has one metric window; warmup 100 has two (ending at
    // iterations 40 and 90), so these cells also cover the resets.
    const auto ad = workloads::makeWorkload("ad", 0.25);
    for (const auto algo :
         {samplers::Algorithm::Hmc, samplers::Algorithm::Nuts}) {
        SCOPED_TRACE(::testing::Message() << "ad warmup 100 algo "
                                          << samplers::algorithmName(algo));
        auto cfg = sweepConfig(algo, 777);
        cfg.iterations = 110;
        cfg.warmup = 100;
        harness::expectPolicyInvariantDraws(*ad, cfg);
    }
}

TEST(Determinism, StopIterationIsPolicyInvariant)
{
    // A monitor that stops mid-run must fire at the same round, with
    // the same delivered draws, under every schedule.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    const samplers::IterationMonitor stopAt13{
        [](const samplers::MonitorContext& ctx) {
            return ctx.draws >= 13 ? samplers::MonitorAction::Stop
                                   : samplers::MonitorAction::Continue;
        }};
    for (const auto algo :
         {samplers::Algorithm::Mh, samplers::Algorithm::Hmc,
          samplers::Algorithm::Nuts, samplers::Algorithm::Slice}) {
        SCOPED_TRACE(samplers::algorithmName(algo));
        auto cfg = sweepConfig(algo, 777);
        cfg.iterations = 60;
        cfg.warmup = 20;
        harness::expectPolicyInvariantDraws(*wl, cfg, stopAt13);

        cfg.execution = samplers::ExecutionPolicy::pool(2);
        const auto stopped = samplers::run(*wl, cfg, stopAt13);
        for (const auto& chain : stopped.chains)
            EXPECT_EQ(chain.draws.size(), 13u);
    }
}

} // namespace
} // namespace bayes
