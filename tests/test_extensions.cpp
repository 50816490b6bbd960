/**
 * @file
 * Tests for the extension features: rank-normalized R-hat and the
 * likelihood-subsampling mitigation on `tickets` (paper §VII-B).
 */
#include <gtest/gtest.h>

#include <cmath>

#include "diagnostics/convergence.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "support/rng.hpp"
#include "workloads/tickets_quota.hpp"

namespace bayes {
namespace {

using diagnostics::rankNormalizedRhat;
using diagnostics::splitRhat;

std::vector<std::vector<double>>
iidChains(int m, int n, double mean, Rng& rng, double heavyTailDof = 0.0)
{
    std::vector<std::vector<double>> chains(m);
    for (auto& chain : chains) {
        chain.resize(n);
        for (auto& x : chain) {
            x = heavyTailDof > 0 ? mean + rng.studentT(heavyTailDof)
                                 : rng.normal(mean, 1.0);
        }
    }
    return chains;
}

TEST(RankRhat, AgreesWithClassicOnGaussians)
{
    Rng rng(1);
    const auto chains = iidChains(4, 500, 0.0, rng);
    EXPECT_NEAR(rankNormalizedRhat(chains), splitRhat(chains), 0.02);
    EXPECT_LT(rankNormalizedRhat(chains), 1.03);
}

TEST(RankRhat, FlagsShiftedChains)
{
    Rng rng(2);
    auto chains = iidChains(2, 400, 0.0, rng);
    auto far = iidChains(2, 400, 6.0, rng);
    chains.insert(chains.end(), far.begin(), far.end());
    EXPECT_GT(rankNormalizedRhat(chains), 1.5);
}

TEST(RankRhat, StableUnderHeavyTails)
{
    // Cauchy-ish chains break the classic moment-based R-hat's
    // stability (a single huge draw inflates within-variance); the
    // rank-normalized version must stay near 1 for well-mixed chains.
    Rng rng(3);
    const auto chains = iidChains(4, 800, 0.0, rng, /*dof=*/1.0);
    EXPECT_LT(rankNormalizedRhat(chains), 1.05);
}

TEST(RankRhat, InvariantToMonotoneTransforms)
{
    Rng rng(4);
    auto chains = iidChains(4, 400, 1.0, rng);
    const double base = rankNormalizedRhat(chains);
    for (auto& chain : chains)
        for (auto& x : chain)
            x = std::exp(x); // strictly increasing transform
    EXPECT_NEAR(rankNormalizedRhat(chains), base, 1e-9);
}

TEST(RankRhat, ValidatesInput)
{
    EXPECT_THROW(rankNormalizedRhat({}), Error);
    EXPECT_THROW(rankNormalizedRhat({{1.0, 2.0}}), Error);
}

TEST(Subsampling, ShrinksWorkingSetAndModeledData)
{
    workloads::TicketsQuota full(1.0, 1.0);
    workloads::TicketsQuota half(1.0, 0.5);
    workloads::TicketsQuota quarter(1.0, 0.25);
    EXPECT_EQ(half.activeRows(), full.activeRows() / 2);
    EXPECT_GT(full.modeledDataBytes(), half.modeledDataBytes());
    EXPECT_GT(half.modeledDataBytes(), quarter.modeledDataBytes());

    // The per-observation tape shrinks proportionally with the subsample.
    ppl::Evaluator evalFull(full), evalHalf(half);
    evalFull.tape().setPerObservation(true);
    evalHalf.tape().setPerObservation(true);
    Rng rng(5);
    const auto qf = samplers::findInitialPoint(evalFull, rng);
    std::vector<double> grad;
    evalFull.logProbGrad(qf, grad);
    Rng rng2(5);
    const auto qh = samplers::findInitialPoint(evalHalf, rng2);
    evalHalf.logProbGrad(qh, grad);
    EXPECT_LT(static_cast<double>(evalHalf.lastTapeNodes()),
              0.7 * static_cast<double>(evalFull.lastTapeNodes()));

    // On the fused path the node count no longer scales with rows at
    // all — subsampling and fusion attack the same working set from
    // different ends.
    ppl::Evaluator fusedFull(full), fusedHalf(half);
    fusedFull.logProbGrad(qf, grad);
    fusedHalf.logProbGrad(qh, grad);
    EXPECT_EQ(fusedFull.lastTapeNodes(), fusedHalf.lastTapeNodes());
}

TEST(Subsampling, ReweightingKeepsLikelihoodMagnitude)
{
    // At the same parameter point, the reweighted subsample must sit
    // close to the full likelihood (it is an unbiased estimator whose
    // error shrinks with the subsample size).
    workloads::TicketsQuota full(1.0, 1.0);
    workloads::TicketsQuota half(1.0, 0.5);
    ppl::Evaluator evalFull(full), evalHalf(half);
    const std::vector<double> q(evalFull.dim(), 0.1);
    const double lpFull = evalFull.logProb(q);
    const double lpHalf = evalHalf.logProb(q);
    // Unbiased estimator: same order of magnitude, modest sample error
    // (priors are not reweighted, and the subsample is a fixed half).
    EXPECT_NEAR(lpHalf / lpFull, 1.0, 0.25);
}

TEST(Subsampling, PosteriorStillFindsTheQuotaEffect)
{
    workloads::TicketsQuota wl(0.5, 0.5);
    samplers::Config cfg;
    cfg.chains = 2;
    cfg.iterations = 300;
    const auto run = samplers::run(wl, cfg);
    const std::size_t idx =
        wl.layout().offset(wl.layout().blockIndex("delta"));
    double m = 0;
    std::size_t count = 0;
    for (const auto& chain : run.chains)
        for (const auto& d : chain.draws) {
            m += d[idx];
            ++count;
        }
    m /= static_cast<double>(count);
    EXPECT_NEAR(m, workloads::TicketsQuota::kTrueQuotaEffect, 0.15);
}

TEST(Subsampling, RejectsBadFraction)
{
    EXPECT_THROW(workloads::TicketsQuota(1.0, 0.0), Error);
    EXPECT_THROW(workloads::TicketsQuota(1.0, 1.5), Error);
}

} // namespace
} // namespace bayes
