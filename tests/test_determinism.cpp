/**
 * @file
 * The determinism sweep (ctest label: determinism): drives the shared
 * harness across workloads × algorithms × seeds × execution policies ×
 * batchEval and asserts every cell's draws are byte-identical to the
 * sequential unbatched reference — with and without a monitor that
 * stops the run mid-way.
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
             {samplers::Algorithm::Mh, samplers::Algorithm::Hmc}) {
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
}

TEST(Determinism, StopIterationIsPolicyInvariant)
{
    // A monitor that stops mid-run must fire at the same round, with
    // the same delivered draws, under every schedule — batched rounds
    // included.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    const samplers::IterationMonitor stopAt13 =
        [](const samplers::MonitorContext& ctx) {
            return ctx.round >= 13 ? samplers::MonitorAction::Stop
                                   : samplers::MonitorAction::Continue;
        };
    for (const auto algo :
         {samplers::Algorithm::Mh, samplers::Algorithm::Hmc,
          samplers::Algorithm::Nuts, samplers::Algorithm::Slice}) {
        SCOPED_TRACE(samplers::algorithmName(algo));
        auto cfg = sweepConfig(algo, 777);
        cfg.iterations = 60;
        cfg.warmup = 20;
        harness::expectPolicyInvariantDraws(*wl, cfg, stopAt13);

        cfg.execution = samplers::ExecutionPolicy::pool(2);
        cfg.batchEval = true;
        const auto stopped = samplers::run(*wl, cfg, stopAt13);
        for (const auto& chain : stopped.chains)
            EXPECT_EQ(chain.draws.size(), 13u);
    }
}

TEST(Determinism, NutsAndSliceStayPolicyInvariant)
{
    // NUTS and slice take the unbatched schedule regardless of
    // batchEval; the knob must be inert for them.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    for (const auto algo :
         {samplers::Algorithm::Nuts, samplers::Algorithm::Slice}) {
        SCOPED_TRACE(samplers::algorithmName(algo));
        harness::expectPolicyInvariantDraws(*wl, sweepConfig(algo, 777));
    }
}

} // namespace
} // namespace bayes
