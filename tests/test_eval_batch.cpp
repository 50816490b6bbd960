/**
 * @file
 * Batched evaluation surface tests: EvalBatch layout, lane-for-lane
 * equality between Evaluator::logProb{,Grad}Batch and the single-point
 * calls they loop over (all six fused workloads plus their
 * scalar-likelihood twins, ragged final batches included), and the
 * empty and all-rejected edge cases.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ppl/evaluator.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

// The suite members with fused vectorized likelihoods.
const char* const kFusedWorkloads[] = {"ad",      "tickets", "12cities",
                                       "disease", "votes",   "survival"};

/** Draw @p k unconstrained points for @p eval from a fixed stream. */
std::vector<std::vector<double>>
randomPoints(const ppl::Evaluator& eval, std::size_t k, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> pts(k);
    for (auto& q : pts) {
        q.resize(eval.dim());
        for (auto& qi : q)
            qi = rng.normal(0.0, 0.3);
    }
    return pts;
}

/**
 * Evaluate @p pts through width-@p width batches and through the
 * single-point surface on a twin evaluator; every lane's value and
 * gradient must match exactly.
 */
void
expectBatchMatchesSingles(const ppl::Model& model,
                          const std::vector<std::vector<double>>& pts,
                          std::size_t width, bool scalarLikelihood)
{
    ppl::Evaluator batched(model);
    ppl::Evaluator single(model);
    batched.setScalarLikelihood(scalarLikelihood);
    single.setScalarLikelihood(scalarLikelihood);

    const std::size_t dim = single.dim();
    std::vector<double> refGrad, laneGrad;
    for (std::size_t start = 0; start < pts.size(); start += width) {
        const std::size_t lanes = std::min(width, pts.size() - start);
        ppl::EvalBatch batch(dim, lanes);
        for (std::size_t k = 0; k < lanes; ++k)
            batch.setPoint(k, pts[start + k]);

        // Value path.
        std::vector<double> lp(lanes);
        batched.logProbBatch(batch, lp);
        for (std::size_t k = 0; k < lanes; ++k)
            EXPECT_EQ(lp[k], single.logProb(pts[start + k]))
                << "logProb lane " << start + k;

        // Gradient path.
        ppl::EvalBatch grads;
        batched.logProbGradBatch(batch, lp, grads);
        ASSERT_EQ(grads.dim(), dim);
        ASSERT_EQ(grads.lanes(), lanes);
        for (std::size_t k = 0; k < lanes; ++k) {
            const double ref =
                single.logProbGrad(pts[start + k], refGrad);
            EXPECT_EQ(lp[k], ref) << "logProbGrad lane " << start + k;
            grads.getPoint(k, laneGrad);
            EXPECT_EQ(laneGrad, refGrad) << "grad lane " << start + k;
        }
    }
}

TEST(EvalBatch, LayoutRoundTrip)
{
    ppl::EvalBatch b(3, 2);
    EXPECT_EQ(b.dim(), 3u);
    EXPECT_EQ(b.lanes(), 2u);
    b.setPoint(0, std::vector<double>{1.0, 2.0, 3.0});
    b.setPoint(1, std::vector<double>{4.0, 5.0, 6.0});
    EXPECT_EQ(b.at(1, 0), 2.0);
    EXPECT_EQ(b.at(1, 1), 5.0);
    EXPECT_EQ(b.at(2, 1), 6.0);
    std::vector<double> q;
    b.getPoint(1, q);
    EXPECT_EQ(q, (std::vector<double>{4.0, 5.0, 6.0}));
    b.resize(2, 4);
    EXPECT_EQ(b.at(1, 3), 0.0);
}

TEST(EvalBatch, FusedWorkloadsMatchSinglesAcrossWidths)
{
    for (const char* name : kFusedWorkloads) {
        SCOPED_TRACE(name);
        const auto wl = workloads::makeWorkload(name, 0.25);
        ppl::Evaluator probe(*wl);
        for (const std::size_t k : {1u, 2u, 4u, 8u}) {
            const auto pts = randomPoints(probe, k, 7000 + k);
            expectBatchMatchesSingles(*wl, pts, k,
                                      /*scalarLikelihood=*/false);
        }
    }
}

TEST(EvalBatch, ScalarTwinsMatchSingles)
{
    for (const char* name : kFusedWorkloads) {
        SCOPED_TRACE(name);
        const auto wl = workloads::makeWorkload(name, 0.25);
        ppl::Evaluator probe(*wl);
        const auto pts = randomPoints(probe, 4, 99);
        expectBatchMatchesSingles(*wl, pts, 4, /*scalarLikelihood=*/true);
    }
}

TEST(EvalBatch, RaggedFinalBatch)
{
    // 33 points through width-8 batches: four full blocks plus a
    // 1-lane remainder must agree with singles lane for lane.
    const auto wl = workloads::makeWorkload("ad", 0.25);
    ppl::Evaluator probe(*wl);
    const auto pts = randomPoints(probe, 33, 333);
    expectBatchMatchesSingles(*wl, pts, 8, /*scalarLikelihood=*/false);
}

TEST(EvalBatch, EmptyAndAllRejectedBatches)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    ppl::Evaluator eval(*wl);

    ppl::EvalBatch empty(eval.dim(), 0);
    std::vector<double> lp;
    ppl::EvalBatch grads;
    eval.logProbBatch(empty, lp);
    eval.logProbGradBatch(empty, lp, grads);
    EXPECT_EQ(eval.numEvals(), 0u);
    EXPECT_EQ(eval.numGradEvals(), 0u);

    // Every lane infeasible: finite gradients (zero), -inf values.
    ppl::EvalBatch bad(eval.dim(), 2);
    std::vector<double> nan(eval.dim(),
                            std::numeric_limits<double>::quiet_NaN());
    bad.setPoint(0, nan);
    bad.setPoint(1, nan);
    std::vector<double> lp2(2);
    eval.logProbGradBatch(bad, lp2, grads);
    for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_FALSE(std::isfinite(lp2[k])) << "lane " << k;
        for (std::size_t d = 0; d < eval.dim(); ++d)
            EXPECT_EQ(grads.at(d, k), 0.0);
    }
}

TEST(EvalBatch, ReserveHintSurvivesScalarToggle)
{
    // The reserve hint is learned per likelihood path; after toggling,
    // both paths must still evaluate correctly.
    const auto wl = workloads::makeWorkload("tickets", 0.25);
    ppl::Evaluator eval(*wl);
    const auto pts = randomPoints(eval, 2, 5);

    std::vector<double> g1, g2;
    const double fusedLp = eval.logProbGrad(pts[0], g1);
    eval.setScalarLikelihood(true);
    const double scalarLp = eval.logProbGrad(pts[0], g2);
    const double tol = 1e-9 * std::max(1.0, std::fabs(fusedLp));
    EXPECT_NEAR(fusedLp, scalarLp, tol);
    eval.setScalarLikelihood(false);
    EXPECT_NEAR(eval.logProbGrad(pts[0], g1), fusedLp, 1e-15);
}

} // namespace
} // namespace bayes
