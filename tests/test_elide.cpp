/**
 * @file
 * Convergence-detection tests: the detector's window R-hat on
 * synthetic chains, early termination on real workloads, and the
 * non-converged budget-exhaustion path.
 */
#include <gtest/gtest.h>

#include "determinism_harness.hpp"
#include "elide/elision.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes::elide {
namespace {

samplers::ChainResult
chainWithDraws(std::vector<double> xs)
{
    samplers::ChainResult chain;
    for (double x : xs)
        chain.draws.push_back({x});
    return chain;
}

TEST(Detector, LowRhatForWellMixedChains)
{
    Rng rng(1);
    std::vector<samplers::ChainResult> chains;
    for (int c = 0; c < 4; ++c) {
        std::vector<double> xs(400);
        for (auto& x : xs)
            x = rng.normal();
        chains.push_back(chainWithDraws(std::move(xs)));
    }
    EXPECT_LT(detectorRhat(chains, 400, 0.5), 1.05);
}

TEST(Detector, HighRhatForSeparatedChains)
{
    Rng rng(2);
    std::vector<samplers::ChainResult> chains;
    for (int c = 0; c < 4; ++c) {
        std::vector<double> xs(400);
        for (auto& x : xs)
            x = rng.normal(3.0 * c, 1.0);
        chains.push_back(chainWithDraws(std::move(xs)));
    }
    EXPECT_GT(detectorRhat(chains, 400, 0.5), 2.0);
}

TEST(Detector, WindowIgnoresEarlyTransient)
{
    // Chains that disagree early but agree in the second half should be
    // judged converged by the windowed detector.
    Rng rng(3);
    std::vector<samplers::ChainResult> chains;
    for (int c = 0; c < 4; ++c) {
        std::vector<double> xs;
        for (int t = 0; t < 200; ++t)
            xs.push_back(rng.normal(5.0 * c, 1.0)); // disagreeing burn-in
        for (int t = 0; t < 200; ++t)
            xs.push_back(rng.normal(0.0, 1.0)); // mixed regime
        chains.push_back(chainWithDraws(std::move(xs)));
    }
    EXPECT_LT(detectorRhat(chains, 400, 0.5), 1.1);
    // A full-history window would still see the transient.
    EXPECT_GT(detectorRhat(chains, 400, 1.0), 1.5);
}

TEST(Detector, ValidatesInput)
{
    EXPECT_THROW(detectorRhat({}, 100, 0.5), Error);
    std::vector<samplers::ChainResult> chains;
    chains.push_back(chainWithDraws({1.0, 2.0}));
    EXPECT_THROW(detectorRhat(chains, 2, 0.5), Error);
}

TEST(Elision, StopsEarlyOnConvergingWorkload)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 1600;
    const auto result = runWithElision(*wl, cfg);
    EXPECT_TRUE(result.converged);
    EXPECT_LT(result.stoppedAtDraw, result.budgetDraws);
    EXPECT_LT(result.executedIterations, result.budgetIterations);
    EXPECT_GT(result.elidedFraction(), 0.2);
    // The run stores exactly the draws executed.
    for (const auto& chain : result.run.chains)
        EXPECT_EQ(static_cast<int>(chain.draws.size()),
                  result.stoppedAtDraw);
    // R-hat trace is monotone in draw index.
    for (std::size_t i = 1; i < result.rhatTrace.size(); ++i)
        EXPECT_GT(result.rhatTrace[i].draw, result.rhatTrace[i - 1].draw);
}

TEST(Elision, BudgetExhaustionWhenThresholdUnreachable)
{
    const auto wl = workloads::makeWorkload("butterfly", 0.25);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 300;
    ElisionConfig ec;
    ec.rhatThreshold = 1.0000001; // unattainably strict
    ec.minDraws = 50;
    ec.checkInterval = 25;
    const auto result = runWithElision(*wl, cfg, ec);
    EXPECT_FALSE(result.converged);
    EXPECT_EQ(result.stoppedAtDraw, result.budgetDraws);
    EXPECT_EQ(result.executedIterations, result.budgetIterations);
    EXPECT_DOUBLE_EQ(result.elidedFraction(), 0.0);
    EXPECT_FALSE(result.rhatTrace.empty());
}

TEST(Elision, RespectsMinDrawsAndInterval)
{
    const auto wl = workloads::makeWorkload("12cities", 0.25);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 800;
    ElisionConfig ec;
    ec.minDraws = 200;
    ec.checkInterval = 100;
    const auto result = runWithElision(*wl, cfg, ec);
    ASSERT_FALSE(result.rhatTrace.empty());
    EXPECT_GE(result.rhatTrace.front().draw, 200);
    EXPECT_EQ(result.rhatTrace.front().draw % 100, 0);
}

TEST(Elision, StopDecisionIsIdenticalUnderEveryExecutionPolicy)
{
    // The tentpole guarantee: elision composes with parallelism. The
    // phased barrier executor must reproduce the sequential schedule's
    // draws, R-hat trace and stop iteration exactly.
    const auto wl = workloads::makeWorkload("12cities", 0.25);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 800;
    const auto sequential = runWithElision(*wl, cfg);

    for (const auto policy :
         {samplers::ExecutionPolicy::pool(cfg.chains),
          samplers::ExecutionPolicy::pool(2)}) {
        cfg.execution = policy;
        const auto parallel = runWithElision(*wl, cfg);
        EXPECT_EQ(parallel.converged, sequential.converged);
        EXPECT_EQ(parallel.stoppedAtDraw, sequential.stoppedAtDraw);
        EXPECT_EQ(parallel.executedIterations,
                  sequential.executedIterations);
        ASSERT_EQ(parallel.rhatTrace.size(), sequential.rhatTrace.size());
        for (std::size_t i = 0; i < parallel.rhatTrace.size(); ++i) {
            EXPECT_EQ(parallel.rhatTrace[i].draw,
                      sequential.rhatTrace[i].draw);
            EXPECT_EQ(parallel.rhatTrace[i].rhat,
                      sequential.rhatTrace[i].rhat);
        }
        EXPECT_TRUE(
            harness::identicalRuns(parallel.run, sequential.run));
    }
}

TEST(Elision, RequiresMultipleChains)
{
    const auto wl = workloads::makeWorkload("12cities", 0.25);
    samplers::Config cfg;
    cfg.chains = 1;
    EXPECT_THROW(runWithElision(*wl, cfg), Error);
}

TEST(Elision, DetectorOverheadIsTiny)
{
    // The paper's worst case (2000 iterations, 4 chains) costs 0.06 s;
    // our detector on a real elided run must stay well under that per
    // invocation.
    const auto wl = workloads::makeWorkload("racial", 0.5);
    samplers::Config cfg;
    cfg.chains = 4;
    cfg.iterations = 600;
    const auto result = runWithElision(*wl, cfg);
    if (!result.rhatTrace.empty()) {
        EXPECT_LT(result.detectorSeconds
                      / static_cast<double>(result.rhatTrace.size()),
                  0.06);
    }
}

} // namespace
} // namespace bayes::elide
