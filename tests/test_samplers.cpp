/**
 * @file
 * Sampler correctness: posterior moment recovery on analytically known
 * targets for MH, HMC and NUTS; dual-averaging behavior; runner
 * determinism; the phased-executor guarantees (identical draws and
 * stop decisions under every ExecutionPolicy); and the monitor
 * contract.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "determinism_harness.hpp"
#include "math/distributions.hpp"
#include "samplers/dual_averaging.hpp"
#include "samplers/runner.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

namespace bayes::samplers {
namespace {

/** Correlated 2-D Gaussian target with known moments. */
class GaussianTarget : public ppl::Model
{
  public:
    GaussianTarget()
        : layout_({{"x", 1, ppl::TransformKind::Identity, 0, 0},
                   {"y", 1, ppl::TransformKind::Identity, 0, 0}})
    {
    }

    const std::string& name() const override { return name_; }
    const ppl::ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override { return 0; }

    double logProb(const ppl::ParamView<double>& p) const override
    {
        return body(p);
    }
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override
    {
        return body(p);
    }

    static constexpr double kMeanX = 1.0;
    static constexpr double kMeanY = -2.0;
    static constexpr double kSdX = 1.5;
    static constexpr double kSdY = 0.5;
    static constexpr double kRho = 0.6;

  private:
    template <typename T>
    T
    body(const ppl::ParamView<T>& p) const
    {
        // Bivariate normal with correlation rho.
        const T zx = (p.scalar(0) - kMeanX) / kSdX;
        const T zy = (p.scalar(1) - kMeanY) / kSdY;
        const double r2 = 1.0 - kRho * kRho;
        return T(-0.5 / r2)
            * (zx * zx - 2.0 * kRho * zx * zy + zy * zy);
    }

    std::string name_ = "gaussian2d";
    ppl::ParamLayout layout_;
};

Config
baseConfig(Algorithm algo, int iterations)
{
    Config cfg;
    cfg.algorithm = algo;
    cfg.chains = 2;
    cfg.iterations = iterations;
    cfg.seed = 777;
    return cfg;
}

void
expectGaussianMoments(const RunResult& run, double meanTol, double sdTol)
{
    std::vector<double> xs, ys;
    for (const auto& chain : run.chains) {
        for (const auto& d : chain.draws) {
            xs.push_back(d[0]);
            ys.push_back(d[1]);
        }
    }
    EXPECT_NEAR(mean(xs), GaussianTarget::kMeanX, meanTol);
    EXPECT_NEAR(mean(ys), GaussianTarget::kMeanY, meanTol);
    EXPECT_NEAR(stddev(xs), GaussianTarget::kSdX, sdTol);
    EXPECT_NEAR(stddev(ys), GaussianTarget::kSdY, sdTol);
    EXPECT_NEAR(pearson(xs, ys), GaussianTarget::kRho, 0.12);
}

TEST(Samplers, NutsRecoversGaussianMoments)
{
    GaussianTarget model;
    const auto result = run(model, baseConfig(Algorithm::Nuts, 2000));
    expectGaussianMoments(result, 0.12, 0.15);
    for (const auto& chain : result.chains) {
        EXPECT_GT(chain.acceptRate, 0.6);
        EXPECT_GT(chain.stepSize, 0.0);
    }
}

TEST(Samplers, HmcRecoversGaussianMoments)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Hmc, 3000);
    cfg.hmcLeapfrogSteps = 16;
    const auto result = run(model, cfg);
    expectGaussianMoments(result, 0.15, 0.18);
}

TEST(Samplers, MhRecoversGaussianMoments)
{
    GaussianTarget model;
    const auto result = run(model, baseConfig(Algorithm::Mh, 20000));
    expectGaussianMoments(result, 0.25, 0.25);
}

TEST(Samplers, RunIsDeterministicForFixedSeed)
{
    GaussianTarget model;
    const auto cfg = baseConfig(Algorithm::Nuts, 200);
    const auto a = run(model, cfg);
    const auto b = run(model, cfg);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t c = 0; c < a.chains.size(); ++c) {
        ASSERT_EQ(a.chains[c].draws.size(), b.chains[c].draws.size());
        for (std::size_t t = 0; t < a.chains[c].draws.size(); ++t)
            EXPECT_EQ(a.chains[c].draws[t], b.chains[c].draws[t]);
    }
}

TEST(Samplers, DifferentSeedsGiveDifferentDraws)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Nuts, 200);
    const auto a = run(model, cfg);
    cfg.seed = 778;
    const auto b = run(model, cfg);
    EXPECT_NE(a.chains[0].draws.back(), b.chains[0].draws.back());
}

TEST(Samplers, MonitorCanStopEarly)
{
    GaussianTarget model;
    const auto cfg = baseConfig(Algorithm::Nuts, 1000);
    int calls = 0;
    const auto result =
        run(model, cfg, [&](const MonitorContext& ctx) {
            ++calls;
            EXPECT_EQ(static_cast<int>(ctx.chains[0].draws.size()),
                      ctx.round);
            return ctx.round >= 50 ? MonitorAction::Stop
                                   : MonitorAction::Continue;
        });
    EXPECT_EQ(calls, 50);
    for (const auto& chain : result.chains)
        EXPECT_EQ(chain.draws.size(), 50u);
}

TEST(Samplers, MonitorContextExposesSynchronizedState)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Nuts, 200);
    cfg.chains = 3;
    int lastRound = 0;
    double lastElapsed = 0.0;
    std::vector<std::uint64_t> lastGradEvals;
    run(model, cfg, [&](const MonitorContext& ctx) {
        EXPECT_EQ(ctx.round, lastRound + 1);
        lastRound = ctx.round;
        EXPECT_EQ(ctx.chains.size(), 3u);
        for (const auto& chain : ctx.chains)
            EXPECT_EQ(static_cast<int>(chain.draws.size()), ctx.round);
        EXPECT_GE(ctx.elapsedSeconds, lastElapsed);
        lastElapsed = ctx.elapsedSeconds;
        EXPECT_EQ(ctx.gradEvalsPerChain.size(), 3u);
        if (lastGradEvals.empty())
            lastGradEvals.assign(3, 0);
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_GT(ctx.gradEvalsPerChain[c], 0u);
            EXPECT_GE(ctx.gradEvalsPerChain[c], lastGradEvals[c]);
        }
        lastGradEvals.assign(ctx.gradEvalsPerChain.begin(),
                             ctx.gradEvalsPerChain.end());
        return MonitorAction::Continue;
    });
    EXPECT_EQ(lastRound, 100); // ran the full post-warmup budget
}

TEST(Samplers, WorkCountersArePopulated)
{
    GaussianTarget model;
    const auto result = run(model, baseConfig(Algorithm::Nuts, 300));
    for (const auto& chain : result.chains) {
        EXPECT_EQ(chain.iterStats.size(), 300u);
        EXPECT_EQ(chain.draws.size(), 150u); // default warmup = half
        EXPECT_GT(chain.totalGradEvals, 300u);
        EXPECT_GT(chain.tapeNodesPerEval, 0u);
        EXPECT_GT(chain.postWarmupGradEvals(), 0u);
        std::uint64_t evals = 0;
        for (const auto& s : chain.iterStats)
            evals += s.gradEvals;
        EXPECT_LE(evals, chain.totalGradEvals);
    }
}

TEST(Samplers, LogProbsTrackDraws)
{
    GaussianTarget model;
    const auto result = run(model, baseConfig(Algorithm::Nuts, 200));
    for (const auto& chain : result.chains)
        EXPECT_EQ(chain.logProbs.size(), chain.draws.size());
}

TEST(Samplers, ConfigValidation)
{
    GaussianTarget model;
    Config bad;
    bad.chains = 0;
    EXPECT_THROW(run(model, bad), Error);
    Config badIters;
    badIters.iterations = 100;
    badIters.warmup = 100;
    EXPECT_THROW(run(model, badIters), Error);
    Config badPool;
    badPool.execution = ExecutionPolicy::pool(-2);
    EXPECT_THROW(run(model, badPool), Error);
}

TEST(DualAveraging, ConvergesTowardTargetFromBothSides)
{
    // Feed a synthetic response: accept prob falls as step size grows.
    DualAveraging da(1.0, 0.8);
    for (int i = 0; i < 400; ++i) {
        const double accept =
            1.0 / (1.0 + 2.0 * da.stepSize()); // decreasing in step
        da.update(accept);
    }
    const double eps = da.adaptedStepSize();
    EXPECT_NEAR(1.0 / (1.0 + 2.0 * eps), 0.8, 0.05);
}

TEST(DualAveraging, RestartResets)
{
    DualAveraging da(0.5, 0.8);
    da.update(0.2);
    da.restart(2.0);
    EXPECT_NEAR(da.adaptedStepSize(), 2.0, 1e-12);
}

TEST(Samplers, AlgorithmNames)
{
    EXPECT_STREQ(algorithmName(Algorithm::Nuts), "NUTS");
    EXPECT_STREQ(algorithmName(Algorithm::Hmc), "HMC");
    EXPECT_STREQ(algorithmName(Algorithm::Mh), "MH");
}

TEST(Samplers, AllExecutionPoliciesMatchSequentialExactly)
{
    GaussianTarget model;
    const struct
    {
        Algorithm algo;
        int iterations;
    } cases[] = {{Algorithm::Nuts, 300},
                 {Algorithm::Hmc, 200},
                 {Algorithm::Mh, 400},
                 {Algorithm::Slice, 200}};
    for (const auto& c : cases) {
        SCOPED_TRACE(algorithmName(c.algo));
        auto cfg = baseConfig(c.algo, c.iterations);
        cfg.chains = 4;
        cfg.hmcLeapfrogSteps = 8;
        harness::expectPolicyInvariantDraws(model, cfg);
        // pool() (hardware-width) isn't in the shared grid; keep the
        // historical coverage of the unbounded pool here.
        const auto sequential = run(model, cfg);
        cfg.execution = ExecutionPolicy::pool();
        EXPECT_TRUE(harness::identicalRuns(run(model, cfg), sequential));
    }
}

TEST(Samplers, PhasedMonitorStopsAtSameRoundUnderEveryPolicy)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Nuts, 300);
    cfg.chains = 4;
    const IterationMonitor stopAt40 = [](const MonitorContext& ctx) {
        return ctx.round >= 40 ? MonitorAction::Stop
                               : MonitorAction::Continue;
    };
    const auto sequential = run(model, cfg, stopAt40);
    for (const auto& chain : sequential.chains)
        EXPECT_EQ(chain.draws.size(), 40u);
    harness::expectPolicyInvariantDraws(model, cfg, stopAt40);
}

TEST(Samplers, MonitorExceptionPropagatesFromPhasedExecutor)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Nuts, 100);
    cfg.execution = ExecutionPolicy::pool(2);
    EXPECT_THROW(run(model, cfg,
                     [](const MonitorContext&) -> MonitorAction {
                         throw Error("monitor bailed");
                     }),
                 Error);
}

// -- runWithDeadline property tests ----------------------------------
// Driven by a fake clock (support::ScopedClockSource): a tick monitor
// advances virtual time by a fixed dt per post-warmup round, so the
// deadline path is exercised deterministically with no wall-clock
// sleeps. At round r the executor observes elapsed == (r-1)*dt.

std::atomic<double> g_fakeNow{0.0};

double
fakeClock() noexcept
{
    return g_fakeNow.load(std::memory_order_relaxed);
}

TEST(Samplers, DeadlinePrefixProperty)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Mh, 80);
    cfg.warmup = 40; // postWarmup = 40 rounds
    const double dt = 0.25;
    const IterationMonitor tick = [&](const MonitorContext&) {
        g_fakeNow.store(g_fakeNow.load() + dt);
        return MonitorAction::Continue;
    };

    support::ScopedClockSource fake(&fakeClock);
    g_fakeNow.store(0.0);
    const auto full = runWithDeadline(
        model, cfg, std::numeric_limits<double>::infinity(), tick);
    EXPECT_FALSE(full.expired);
    ASSERT_EQ(full.run.chains[0].draws.size(), 40u);

    // Random deadlines across [0, past-the-budget): the delivered
    // draws must always be an exact bitwise prefix of the undeadlined
    // run, warmup must always complete, and expiry must be consistent
    // with both the clock and the draw count.
    Rng deadlineRng(20260808);
    for (int trial = 0; trial < 12; ++trial) {
        const double deadline = deadlineRng.uniform() * dt * 45.0;
        SCOPED_TRACE(::testing::Message() << "deadline " << deadline);
        g_fakeNow.store(0.0);
        const auto got = runWithDeadline(model, cfg, deadline, tick);
        EXPECT_TRUE(harness::identicalPrefix(got.run, full.run));
        for (const auto& chain : got.run.chains) {
            // Warmup always completes; at least one sampling round
            // runs before the deadline can fire.
            EXPECT_GE(chain.iterStats.size(), 40u);
            EXPECT_GE(chain.draws.size(), 1u);
        }
        if (got.expired) {
            EXPECT_GE(got.elapsedSeconds, deadline);
        }
        EXPECT_EQ(got.expired, got.run.chains[0].draws.size() < 40u);
    }
}

TEST(Samplers, DeadlineZeroStopsAfterOneRoundWithWarmupComplete)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Mh, 80);
    cfg.warmup = 40;
    support::ScopedClockSource fake(&fakeClock);
    g_fakeNow.store(0.0);
    const auto got = runWithDeadline(model, cfg, 0.0, nullptr);
    EXPECT_TRUE(got.expired);
    for (const auto& chain : got.run.chains) {
        EXPECT_EQ(chain.draws.size(), 1u); // first round's draw kept
        EXPECT_GE(chain.iterStats.size(), 41u); // warmup + that round
    }
}

TEST(Samplers, DeadlinePrefixHoldsUnderPooledBatchedExecution)
{
    GaussianTarget model;
    auto cfg = baseConfig(Algorithm::Mh, 80);
    cfg.warmup = 40;
    cfg.execution = ExecutionPolicy::pool(2);
    cfg.batchEval = true;
    const double dt = 0.25;
    const IterationMonitor tick = [&](const MonitorContext&) {
        g_fakeNow.store(g_fakeNow.load() + dt);
        return MonitorAction::Continue;
    };
    support::ScopedClockSource fake(&fakeClock);
    g_fakeNow.store(0.0);
    const auto full = runWithDeadline(
        model, cfg, std::numeric_limits<double>::infinity(), tick);
    g_fakeNow.store(0.0);
    const auto got = runWithDeadline(model, cfg, dt * 9.5, tick);
    EXPECT_TRUE(got.expired);
    EXPECT_EQ(got.run.chains[0].draws.size(), 11u); // ceil(9.5)+1 rounds
    EXPECT_TRUE(harness::identicalPrefix(got.run, full.run));
}

TEST(Samplers, ExecutionModeNames)
{
    EXPECT_STREQ(executionModeName(ExecutionMode::Sequential),
                 "sequential");
    EXPECT_STREQ(executionModeName(ExecutionMode::Pool), "pool");
}

/** Target whose density is -inf everywhere (no valid initial point). */
class ImproperTarget : public ppl::Model
{
  public:
    ImproperTarget()
        : layout_({{"x", 1, ppl::TransformKind::Identity, 0, 0}})
    {
    }

    const std::string& name() const override { return name_; }
    const ppl::ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override { return 0; }

    double logProb(const ppl::ParamView<double>& p) const override
    {
        return body(p);
    }
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override
    {
        return body(p);
    }

  private:
    template <typename T>
    T
    body(const ppl::ParamView<T>& p) const
    {
        return T(-std::numeric_limits<double>::infinity()) * p.scalar(0);
    }

    std::string name_ = "improper";
    ppl::ParamLayout layout_;
};

TEST(Samplers, InitialPointFailureReportsSeedAndDensity)
{
    ImproperTarget model;
    Config cfg;
    cfg.chains = 1;
    cfg.iterations = 10;
    cfg.warmup = 5;
    cfg.seed = 4242;
    try {
        run(model, cfg);
        FAIL() << "expected initial-point failure";
    } catch (const Error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("seed 4242"), std::string::npos) << msg;
        EXPECT_NE(msg.find("log-density"), std::string::npos) << msg;
        EXPECT_NE(msg.find("inf"), std::string::npos) << msg;
    }
}

TEST(Samplers, CoordinateExtraction)
{
    GaussianTarget model;
    const auto result = run(model, baseConfig(Algorithm::Nuts, 100));
    const auto coord = result.coordinate(1);
    EXPECT_EQ(coord.size(), 2u);
    EXPECT_EQ(coord[0].size(), 50u);
    EXPECT_EQ(coord[0][0], result.chains[0].draws[0][1]);
}

} // namespace
} // namespace bayes::samplers
