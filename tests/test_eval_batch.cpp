/**
 * @file
 * Batched evaluation surface tests: EvalBatch layout, the multi-output
 * tape sweep behind it, lane-for-lane equality between
 * Evaluator::logProb{,Grad}Batch and the K=1 singles they generalize
 * (all six fused workloads plus their scalar-likelihood twins, ragged
 * final batches included), and the data-pass accounting the batching
 * exists to improve.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ad/tape.hpp"
#include "ppl/evaluator.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

// The suite members with fused vectorized likelihoods (the rest take
// Model's default per-lane batch path, which the "votes"/"survival"
// rows below would cover identically).
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

/** |a-b| within 1e-15 relative to the larger magnitude (and 1e-15 abs). */
void
expectLaneEqual(double a, double b, const char* what, std::size_t lane)
{
    const double tol =
        1e-15 * std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
    EXPECT_NEAR(a, b, tol) << what << " lane " << lane;
}

/**
 * Evaluate @p pts through width-@p width batches and through the K=1
 * singles surface on a twin evaluator; every lane's value and gradient
 * must match to 1e-15 relative.
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
            expectLaneEqual(lp[k], single.logProb(pts[start + k]),
                            "logProb", start + k);

        // Gradient path.
        ppl::EvalBatch grads;
        batched.logProbGradBatch(batch, lp, grads);
        ASSERT_EQ(grads.dim(), dim);
        ASSERT_EQ(grads.lanes(), lanes);
        for (std::size_t k = 0; k < lanes; ++k) {
            const double ref =
                single.logProbGrad(pts[start + k], refGrad);
            expectLaneEqual(lp[k], ref, "logProbGrad", start + k);
            grads.getPoint(k, laneGrad);
            ASSERT_EQ(laneGrad.size(), refGrad.size());
            for (std::size_t d = 0; d < dim; ++d) {
                const double tol = 1e-15
                    * std::max(1.0, std::max(std::fabs(laneGrad[d]),
                                             std::fabs(refGrad[d])));
                EXPECT_NEAR(laneGrad[d], refGrad[d], tol)
                    << "grad coord " << d << " lane " << start + k;
            }
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
    // Coordinate-major: lanes of one coordinate are adjacent.
    EXPECT_EQ(b.coord(1)[0], 2.0);
    EXPECT_EQ(b.coord(1)[1], 5.0);
    EXPECT_EQ(b.at(2, 1), 6.0);
    std::vector<double> q;
    b.getPoint(1, q);
    EXPECT_EQ(q, (std::vector<double>{4.0, 5.0, 6.0}));
    b.resize(2, 4);
    EXPECT_EQ(b.data().size(), 8u);
    EXPECT_EQ(b.at(1, 3), 0.0);
}

TEST(EvalBatch, TapeWideBatchMatchesPerLaneWides)
{
    // Two lanes of y = 2*a + 3*b via one pushWideBatch must carry the
    // same adjoints as two separate pushWide nodes.
    ad::Tape tape;
    const ad::NodeId a0 = tape.newLeaf(), b0 = tape.newLeaf();
    const ad::NodeId a1 = tape.newLeaf(), b1 = tape.newLeaf();
    const ad::NodeId parents[] = {a0, b0, a1, b1};
    const double weights[] = {2.0, 3.0, 2.0, 3.0};
    const ad::NodeId first = tape.pushWideBatch(parents, weights, 2);
    EXPECT_EQ(tape.wideLanes(first), 2u);

    std::vector<double> adj;
    const ad::NodeId outs[] = {first, static_cast<ad::NodeId>(first + 1)};
    tape.gradient(outs, adj);
    EXPECT_EQ(adj[a0], 2.0);
    EXPECT_EQ(adj[b0], 3.0);
    EXPECT_EQ(adj[a1], 2.0);
    EXPECT_EQ(adj[b1], 3.0);
}

TEST(EvalBatch, MultiOutputSweepMatchesSeparateSweeps)
{
    // Disjoint subgraphs: one sweep over both outputs must reproduce
    // what two single-output sweeps find (exactly — they add the same
    // products in the same order).
    ad::Tape tape;
    const ad::NodeId x = tape.newLeaf();
    const ad::NodeId y = tape.newLeaf();
    const ad::NodeId fxParents[] = {x, x};
    const double fxWeights[] = {1.5, 0.25};
    const ad::NodeId fx = tape.pushWide(fxParents, fxWeights);
    const ad::NodeId fyParents[] = {y};
    const double fyWeights[] = {-2.0};
    const ad::NodeId fy = tape.pushWide(fyParents, fyWeights);

    std::vector<double> both, sx, sy;
    const ad::NodeId outs[] = {fx, fy};
    tape.gradient(outs, both);
    tape.gradient(fx, sx);
    tape.gradient(fy, sy);
    EXPECT_EQ(both[x], sx[x]);
    EXPECT_EQ(both[y], sy[y]);
    EXPECT_EQ(both[x], 1.75);
    EXPECT_EQ(both[y], -2.0);
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

TEST(EvalBatch, OneDataPassServesAllLanes)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    ppl::Evaluator batched(*wl);
    ppl::Evaluator single(*wl);
    const auto pts = randomPoints(batched, 8, 42);

    ppl::EvalBatch batch(batched.dim(), 8);
    for (std::size_t k = 0; k < 8; ++k)
        batch.setPoint(k, pts[k]);
    std::vector<double> lp(8);
    ppl::EvalBatch grads;
    batched.logProbGradBatch(batch, lp, grads);
    EXPECT_EQ(batched.numDataPasses(), 1u);
    EXPECT_EQ(batched.numGradEvals(), 8u);

    std::vector<double> g;
    for (const auto& q : pts)
        single.logProbGrad(q, g);
    EXPECT_EQ(single.numDataPasses(), 8u);
    EXPECT_EQ(single.numGradEvals(), 8u);
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
    // The per-lane reserve hint is learned per likelihood path; after
    // toggling, both paths must still evaluate correctly.
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
