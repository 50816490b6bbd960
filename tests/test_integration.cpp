/**
 * @file
 * End-to-end integration: run reduced versions of the pipeline the
 * figure benches use — sample, profile, simulate both platforms,
 * classify with the static feature — and assert the paper's headline
 * shapes hold (LLC-bound set, platform winners, elision savings).
 */
#include <gtest/gtest.h>

#include "archsim/system.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "samplers/runner.hpp"
#include "sched/scheduler.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

struct MiniResult
{
    std::string name;
    double mpkiSky4;
    double secondsSky4;
    double secondsBdw4;
    double mpkiFusedSky4;
    std::size_t dataBytes;
};

/**
 * Reduced-iteration pipeline over a 3-workload slice of the suite.
 * The paper characterizes the conventional per-observation scalar
 * implementation, so the headline-shape numbers come from the scalar
 * profile; the fused profile rides along to prove the kernels change
 * the characterization.
 */
const std::vector<MiniResult>&
miniPipeline()
{
    static const std::vector<MiniResult> results = [] {
        std::vector<MiniResult> out;
        for (const std::string name :
             {"tickets", "votes", "butterfly"}) {
            const auto wl = workloads::makeWorkload(name, 1.0);
            samplers::Config cfg;
            cfg.chains = 4;
            cfg.iterations = 120;
            const auto run = samplers::run(*wl, cfg);
            const auto profile = archsim::profileWorkload(
                *wl, 4, archsim::TapeKind::Reference, 15);
            const auto fusedProfile = archsim::profileWorkload(
                *wl, 4, archsim::TapeKind::Fused, 15);
            const auto work = archsim::extractRunWork(run);
            const auto sky = archsim::simulateSystem(
                profile, work, archsim::Platform::skylake(), 4);
            const auto bdw = archsim::simulateSystem(
                profile, work, archsim::Platform::broadwell(), 4);
            const auto skyFused = archsim::simulateSystem(
                fusedProfile, work, archsim::Platform::skylake(), 4);
            out.push_back({name, sky.llcMpki, sky.seconds, bdw.seconds,
                           skyFused.llcMpki, wl->modeledDataBytes()});
        }
        return out;
    }();
    return results;
}

TEST(Integration, TicketsIsLlcBoundAndOthersAreNot)
{
    const auto& results = miniPipeline();
    EXPECT_GT(results[0].mpkiSky4, 1.0);  // tickets
    EXPECT_LT(results[1].mpkiSky4, 1.0);  // votes
    EXPECT_LT(results[2].mpkiSky4, 1.0);  // butterfly
}

TEST(Integration, FusedKernelsBreakTheLlcBound)
{
    // The same tickets run that is LLC-bound on the scalar path fits
    // after fusion: the wide-node tape no longer scales with rows.
    const auto& results = miniPipeline();
    EXPECT_LT(results[0].mpkiFusedSky4, 1.0);
    EXPECT_LT(results[0].mpkiFusedSky4, results[0].mpkiSky4);
}

TEST(Integration, PlatformWinnersMatchThePaper)
{
    const auto& results = miniPipeline();
    // Broadwell (big LLC) wins tickets; Skylake (frequency) wins the
    // compute-bound pair.
    EXPECT_LT(results[0].secondsBdw4, results[0].secondsSky4);
    EXPECT_LT(results[1].secondsSky4, results[1].secondsBdw4);
    EXPECT_LT(results[2].secondsSky4, results[2].secondsBdw4);
}

TEST(Integration, StaticFeatureSeparatesTheClasses)
{
    const auto& results = miniPipeline();
    // tickets' modeled data dwarfs the compute-bound workloads'.
    EXPECT_GT(results[0].dataBytes, 3 * results[1].dataBytes);
    EXPECT_GT(results[0].dataBytes, 3 * results[2].dataBytes);
}

TEST(Integration, SchedulerRoutesThePipelinesCorrectly)
{
    const auto sky = archsim::Platform::skylake();
    const auto bdw = archsim::Platform::broadwell();
    sched::PlatformScheduler scheduler(sky, bdw, 16000.0);
    EXPECT_EQ(scheduler.place(*workloads::makeWorkload("tickets"))
                  .platform->name,
              "Broadwell");
    EXPECT_EQ(
        scheduler.place(*workloads::makeWorkload("votes")).platform->name,
        "Skylake");
}

TEST(Integration, ElisionPlusSimulationGivesSpeedup)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 1200;

    const auto full = samplers::run(*wl, cfg);
    const auto elided = elide::runWithElision(*wl, cfg);
    ASSERT_TRUE(elided.converged);

    const auto profile =
        archsim::profileWorkload(*wl, 4, archsim::TapeKind::Fused, 15);
    const auto platform = archsim::Platform::skylake();
    const auto tFull = archsim::simulateSystem(
        profile, archsim::extractRunWork(full), platform, 4);
    const auto tElided = archsim::simulateSystem(
        profile, archsim::extractRunWork(elided.run), platform, 4);
    EXPECT_LT(tElided.seconds, tFull.seconds);
    EXPECT_LT(tElided.energyJ, tFull.energyJ);

    // Quality: the elided posterior matches the full run.
    const auto sumFull = diagnostics::summarize(full, wl->layout());
    const auto sumElided =
        diagnostics::summarize(elided.run, wl->layout());
    for (std::size_t i = 0; i < sumFull.coords.size(); ++i) {
        EXPECT_NEAR(sumElided.coords[i].mean, sumFull.coords[i].mean,
                    4.0 * sumFull.coords[i].sd + 1e-6);
    }
}

} // namespace
} // namespace bayes
