/**
 * @file
 * Property tests applied uniformly to all ten BayesSuite workloads:
 * deterministic data generation, layout/metadata sanity, finite log
 * densities and gradients, finite-difference gradient checks, and
 * dataScale behavior.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "workloads/suite.hpp"

namespace bayes::workloads {
namespace {

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<Workload> make(double scale = 1.0) const
    {
        return makeWorkload(GetParam(), scale);
    }
};

TEST_P(WorkloadTest, MetadataIsComplete)
{
    const auto wl = make();
    EXPECT_EQ(wl->name(), GetParam());
    EXPECT_FALSE(wl->info().modelFamily.empty());
    EXPECT_FALSE(wl->info().application.empty());
    EXPECT_FALSE(wl->info().source.empty());
    EXPECT_FALSE(wl->info().dataDescription.empty());
    EXPECT_GE(wl->info().defaultIterations, 100);
    EXPECT_EQ(wl->info().defaultChains, 4);
}

TEST_P(WorkloadTest, LayoutIsNonTrivial)
{
    const auto wl = make();
    EXPECT_GE(wl->layout().dim(), 5u);
    EXPECT_GE(wl->layout().blockCount(), 2u);
    EXPECT_GT(wl->modeledDataBytes(), 0u);
}

TEST_P(WorkloadTest, DataGenerationIsDeterministic)
{
    const auto a = make();
    const auto b = make();
    EXPECT_EQ(a->modeledDataBytes(), b->modeledDataBytes());
    // Identical models must produce identical densities at a point.
    ppl::Evaluator ea(*a), eb(*b);
    Rng rng(123);
    const auto q = samplers::findInitialPoint(ea, rng);
    EXPECT_DOUBLE_EQ(ea.logProb(q), eb.logProb(q));
}

TEST_P(WorkloadTest, FiniteDensityAndGradientAtInit)
{
    const auto wl = make();
    ppl::Evaluator eval(*wl);
    Rng rng(7);
    const auto q = samplers::findInitialPoint(eval, rng);
    std::vector<double> grad;
    const double lp = eval.logProbGrad(q, grad);
    EXPECT_TRUE(std::isfinite(lp));
    for (double g : grad)
        EXPECT_TRUE(std::isfinite(g));
}

TEST_P(WorkloadTest, GradientMatchesFiniteDifference)
{
    const auto wl = make(0.5); // half data keeps this test fast
    ppl::Evaluator eval(*wl);
    Rng rng(11);
    const auto q = samplers::findInitialPoint(eval, rng);
    std::vector<double> grad;
    eval.logProbGrad(q, grad);
    // Spot-check a spread of coordinates (all would be O(dim) evals).
    const double h = 1e-6;
    for (std::size_t i = 0; i < eval.dim();
         i += std::max<std::size_t>(1, eval.dim() / 7)) {
        auto qp = q, qm = q;
        qp[i] += h;
        qm[i] -= h;
        const double numeric =
            (eval.logProb(qp) - eval.logProb(qm)) / (2 * h);
        EXPECT_NEAR(grad[i], numeric,
                    2e-4 * std::max(1.0, std::fabs(numeric)))
            << wl->name() << " coord " << i;
    }
}

TEST_P(WorkloadTest, ValuePathAgreesWithGradientPath)
{
    const auto wl = make(0.5);
    ppl::Evaluator eval(*wl);
    Rng rng(13);
    const auto q = samplers::findInitialPoint(eval, rng);
    std::vector<double> grad;
    EXPECT_NEAR(eval.logProb(q), eval.logProbGrad(q, grad),
                1e-9 * std::fabs(eval.logProb(q)) + 1e-9);
}

TEST_P(WorkloadTest, DataScaleShrinksModeledData)
{
    const auto full = make(1.0);
    const auto half = make(0.5);
    const auto quarter = make(0.25);
    EXPECT_GT(full->modeledDataBytes(), half->modeledDataBytes());
    EXPECT_GT(half->modeledDataBytes(), quarter->modeledDataBytes());
    EXPECT_DOUBLE_EQ(half->dataScale(), 0.5);
}

TEST_P(WorkloadTest, RejectsInvalidDataScale)
{
    EXPECT_THROW(makeWorkload(GetParam(), 0.0), Error);
    EXPECT_THROW(makeWorkload(GetParam(), 1.5), Error);
}

TEST_P(WorkloadTest, ShortChainRunsWithoutDivergenceStorm)
{
    const auto wl = make(0.25);
    samplers::Config cfg;
    cfg.chains = 1;
    cfg.iterations = 80;
    cfg.seed = 99;
    const auto result = samplers::run(*wl, cfg);
    EXPECT_EQ(result.chains.size(), 1u);
    EXPECT_EQ(result.chains[0].draws.size(), 40u);
    // Quarter-scale data is easier: expect mostly clean transitions.
    EXPECT_LT(result.chains[0].divergences, 20u);
    for (double lp : result.chains[0].logProbs)
        EXPECT_TRUE(std::isfinite(lp));
}

INSTANTIATE_TEST_SUITE_P(Suite, WorkloadTest,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto& paramInfo) {
                             std::string n = paramInfo.param;
                             if (n == "12cities")
                                 n = "twelvecities";
                             return n;
                         });

TEST(WorkloadRegistry, SuiteHasTenWorkloadsInTableOrder)
{
    const auto& names = suiteNames();
    ASSERT_EQ(names.size(), 10u);
    EXPECT_EQ(names.front(), "12cities");
    EXPECT_EQ(names.back(), "survival");
    const auto suite = makeSuite();
    ASSERT_EQ(suite.size(), 10u);
    for (std::size_t i = 0; i < suite.size(); ++i)
        EXPECT_EQ(suite[i]->name(), names[i]);
}

TEST(WorkloadRegistry, UnknownNameThrows)
{
    EXPECT_THROW(makeWorkload("nonesuch"), Error);
}

TEST(WorkloadRegistry, ModeledDataOrderingMatchesPaper)
{
    // The three LLC-bound workloads must carry the largest modeled
    // datasets, with tickets on top (paper Fig. 3).
    const auto suite = makeSuite();
    std::size_t tickets = 0, survival = 0, ad = 0, maxOther = 0;
    for (const auto& wl : suite) {
        if (wl->name() == "tickets")
            tickets = wl->modeledDataBytes();
        else if (wl->name() == "survival")
            survival = wl->modeledDataBytes();
        else if (wl->name() == "ad")
            ad = wl->modeledDataBytes();
        else
            maxOther = std::max(maxOther, wl->modeledDataBytes());
    }
    EXPECT_GT(tickets, survival);
    EXPECT_GT(tickets, ad);
    EXPECT_GT(std::min(ad, survival), maxOther);
}

/**
 * The amortized cache keys on dataSufficientStats(), so the way a
 * workload stores its data must not move one bit of it. 12cities and
 * tickets read their covariates from the GLM design matrix; these
 * values were captured while each covariate was still also kept in a
 * column of its own.
 */
TEST(WorkloadRegistry, DesignMatrixWorkloadsPinTheirDataStats)
{
    struct Pinned
    {
        const char* name;
        double scale;
        std::size_t bytes;
        std::vector<double> stats;
    };
    const Pinned pinned[] = {
        {"12cities", 1.0, 6912,
         {0x1.8p+7, 0x1.8p+3, 0x1.852p+11, 0x1.503dp+16, 0x1.3cp+6,
          0x1.02p+12, 0x1.6e169fd99bc75p+6, 0x1.0e88p+17}},
        {"12cities", 0.5, 3456,
         {0x1.8p+6, 0x1.8p+3, 0x1.80cp+10, 0x1.40fep+15, 0x1.28p+5,
          0x1.08p+9, 0x1.6e169fd99bc75p+5, 0x1.0f9p+15}},
        {"tickets", 1.0, 140000,
         {0x1.5ep+10, 0x1.5ep+10, 0x1.9p+5, 0x1.4p+3, 0x1p+0, 0x1.669p+13,
          0x1.aebbp+17, 0x1.eb3056p+24, 0x1.5ep+9, -0x1.51d1a84251837p+6,
          0x1.b967226151916p+13}},
        {"tickets", 0.5, 70000,
         {0x1.5ep+9, 0x1.5ep+9, 0x1.9p+5, 0x1.4p+3, 0x1p+0, 0x1.5efp+12,
          0x1.64ffp+16, 0x1.eb7354p+22, 0x1.5ep+8, 0x1.2d4ab79b1734cp+6,
          0x1.bcb8e15b45622p+12}},
    };
    for (const Pinned& p : pinned) {
        SCOPED_TRACE(std::string(p.name) + " at scale "
                     + std::to_string(p.scale));
        const auto wl = makeWorkload(p.name, p.scale);
        EXPECT_EQ(wl->modeledDataBytes(), p.bytes);
        const std::vector<double> stats = wl->dataSufficientStats();
        ASSERT_EQ(stats.size(), p.stats.size());
        for (std::size_t i = 0; i < stats.size(); ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(stats[i]),
                      std::bit_cast<std::uint64_t>(p.stats[i]))
                << "stat " << i << ": " << stats[i] << " vs " << p.stats[i];
    }
}

} // namespace
} // namespace bayes::workloads
