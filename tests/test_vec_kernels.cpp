/**
 * @file
 * Fused vectorized kernel tests: every kernel in math/vec_kernels.hpp
 * is pinned against the scalar-loop tape path (values to 1e-12
 * relative, gradients to 1e-10 relative), cross-checked against central
 * finite differences, and the wide-node reverse sweep is exercised
 * across edge counts K ∈ {0, 1, 2, 7, 1000}. On a per-observation tape
 * the GLM kernels are pinned node for node to the scalar loop. The
 * ported workloads are then compared end-to-end: the fused tape vs the
 * per-observation reference tape (ad::Tape::setPerObservation) at
 * randomized unconstrained points, and the reference tape's shape is
 * pinned per workload.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <functional>
#include <span>
#include <vector>

#include "ad/tape.hpp"
#include "ad/var.hpp"
#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"
#include "ppl/evaluator.hpp"
#include "samplers/runner.hpp"
#include "support/rng.hpp"
#include "workloads/suite.hpp"

namespace bayes {
namespace {

constexpr double kValueRelTol = 1e-12;
constexpr double kGradRelTol = 1e-10;

double
relErr(double a, double b)
{
    return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::vector<ad::Var>
makeLeaves(ad::Tape& tape, const std::vector<double>& vals)
{
    std::vector<ad::Var> out;
    out.reserve(vals.size());
    for (double v : vals)
        out.push_back(ad::leaf(tape, v));
    return out;
}

/**
 * Compare a fused and a scalar tape program over the same leaf values:
 * equal log densities and equal adjoints for every leaf.
 */
void
expectSamePosterior(
    const std::vector<double>& leafVals,
    const std::function<ad::Var(std::span<const ad::Var>)>& fused,
    const std::function<ad::Var(std::span<const ad::Var>)>& scalar)
{
    ad::Tape tf;
    const auto lf = makeLeaves(tf, leafVals);
    const ad::Var yf = fused(lf);
    std::vector<double> gf;
    tf.gradient(yf.id(), gf);

    ad::Tape ts;
    const auto ls = makeLeaves(ts, leafVals);
    const ad::Var ys = scalar(ls);
    std::vector<double> gs;
    ts.gradient(ys.id(), gs);

    EXPECT_LT(relErr(yf.value(), ys.value()), kValueRelTol)
        << "fused " << yf.value() << " vs scalar " << ys.value();
    for (std::size_t i = 0; i < leafVals.size(); ++i)
        EXPECT_LT(relErr(gf[lf[i].id()], gs[ls[i].id()]), kGradRelTol)
            << "leaf " << i << ": fused " << gf[lf[i].id()] << " vs scalar "
            << gs[ls[i].id()];
}

/** Central finite difference of a fused value over leaf i. */
void
expectMatchesFiniteDifference(
    const std::vector<double>& leafVals,
    const std::function<ad::Var(std::span<const ad::Var>)>& fused,
    double h = 1e-6)
{
    ad::Tape tape;
    const auto leaves = makeLeaves(tape, leafVals);
    const ad::Var y = fused(leaves);
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    for (std::size_t i = 0; i < leafVals.size(); ++i) {
        auto at = [&](double delta) {
            ad::Tape t2;
            std::vector<double> shifted = leafVals;
            shifted[i] += delta;
            const auto l2 = makeLeaves(t2, shifted);
            return fused(l2).value();
        };
        const double numeric = (at(h) - at(-h)) / (2.0 * h);
        EXPECT_NEAR(grad[leaves[i].id()], numeric,
                    1e-4 * std::max(1.0, std::fabs(numeric)))
            << "leaf " << i;
    }
}

// ---------------------------------------------------------------------
// Kernel-by-kernel: fused vs scalar loop
// ---------------------------------------------------------------------

std::vector<double>
randomData(Rng& rng, std::size_t n, double lo, double hi)
{
    std::vector<double> out(n);
    for (auto& v : out)
        v = rng.uniform(lo, hi);
    return out;
}

TEST(VecKernels, NormalOverDataMatchesScalarLoop)
{
    Rng rng(71);
    for (int rep = 0; rep < 5; ++rep) {
        const auto ys = randomData(rng, 40 + 30 * rep, -3.0, 5.0);
        const std::vector<double> leafVals{rng.uniform(-2.0, 2.0),
                                           rng.uniform(0.3, 2.5)};
        auto fused = [&](std::span<const ad::Var> p) {
            return math::normal_lpdf_vec(std::span<const double>(ys), p[0],
                                         p[1]);
        };
        auto scalar = [&](std::span<const ad::Var> p) {
            ad::Var lp(0.0);
            for (double y : ys)
                lp += math::normal_lpdf(y, p[0], p[1]);
            return lp;
        };
        expectSamePosterior(leafVals, fused, scalar);
        expectMatchesFiniteDifference(leafVals, fused);
    }
}

TEST(VecKernels, NormalOverParamsMatchesScalarLoop)
{
    Rng rng(72);
    const std::size_t n = 25;
    std::vector<double> leafVals = randomData(rng, n, -2.0, 2.0);
    leafVals.push_back(0.4);  // mu
    leafVals.push_back(1.3);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_lpdf_vec(p.subspan(0, n), p[n], p[n + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::normal_lpdf(p[i], p[n], p[n + 1]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, NormalPerElementMuMatchesScalarLoop)
{
    Rng rng(73);
    const std::size_t n = 30;
    const auto ys = randomData(rng, n, -4.0, 4.0);
    std::vector<double> leafVals = randomData(rng, n, -2.0, 2.0);
    leafVals.push_back(0.8);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_lpdf_vec(std::span<const double>(ys),
                                     p.subspan(0, n), p[n]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::normal_lpdf(ys[i], p[i], p[n]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, StdNormalMatchesScalarLoop)
{
    Rng rng(74);
    const auto leafVals = randomData(rng, 33, -2.5, 2.5);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::std_normal_lpdf_vec(p);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (const ad::Var& z : p)
            lp += math::std_normal_lpdf(z);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, ExponentialOverParamsMatchesScalarLoop)
{
    Rng rng(75);
    const std::size_t n = 12;
    std::vector<double> leafVals = randomData(rng, n, 0.05, 4.0);
    leafVals.push_back(0.25);  // rate
    auto fused = [&](std::span<const ad::Var> p) {
        return math::exponential_lpdf_vec(p.subspan(0, n), p[n]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += math::exponential_lpdf(p[i], p[n]);
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, BernoulliLogitGlmMatchesScalarLoop)
{
    Rng rng(78);
    const std::size_t n = 80, numK = 4;
    const auto x = randomData(rng, n * numK, -1.5, 1.5);
    std::vector<int> ys(n);
    for (auto& y : ys)
        y = rng.bernoulli(0.4);
    std::vector<double> leafVals = randomData(rng, numK, -1.0, 1.0);
    leafVals.push_back(0.3);  // alpha
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x), p[numK],
            p.subspan(0, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[numK];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, PoissonLogGlmWithGroupsAndOffsetMatchesScalarLoop)
{
    Rng rng(79);
    const std::size_t n = 90, numK = 3, numG = 5;
    const auto x = randomData(rng, n * numK, -1.0, 1.0);
    const auto offset = randomData(rng, n, -0.5, 0.5);
    std::vector<int> group(n);
    std::vector<long> ys(n);
    for (std::size_t i = 0; i < n; ++i) {
        group[i] = static_cast<int>(rng.uniformInt(numG));
        ys[i] = rng.poisson(3.0);
    }
    std::vector<double> leafVals = randomData(rng, numG, 0.2, 1.4);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-0.5, 0.5));
    auto fused = [&](std::span<const ad::Var> p) {
        return math::poisson_log_glm_lpmf(
            std::span<const long>(ys), std::span<const double>(x),
            std::span<const int>(group), std::span<const double>(offset),
            p.subspan(0, numG), p.subspan(numG, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[numG + k] * x[i * numK + k];
            eta += offset[i];
            lp += math::poisson_log_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, NormalIdGlmMatchesScalarLoop)
{
    Rng rng(80);
    const std::size_t n = 70, numK = 3;
    const auto x = randomData(rng, n * numK, -2.0, 2.0);
    const auto ys = randomData(rng, n, -3.0, 3.0);
    std::vector<double> leafVals = randomData(rng, numK, -1.0, 1.0);
    leafVals.push_back(0.6);  // alpha
    leafVals.push_back(0.9);  // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_id_glm_lpdf(
            std::span<const double>(ys), std::span<const double>(x),
            p[numK], p.subspan(0, numK), p[numK + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var mu = p[numK];
            for (std::size_t k = 0; k < numK; ++k)
                mu += p[k] * x[i * numK + k];
            lp += math::normal_lpdf(ys[i], mu, p[numK + 1]);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

/**
 * Row groups for the varying-intercept kernels: group 0 has no row,
 * group 1 exactly one, and the rest fall unevenly into groups 2 and up
 * (group 2 takes every third row besides its random share).
 */
std::vector<int>
unevenGroups(Rng& rng, std::size_t n, std::size_t numG)
{
    std::vector<int> group(n);
    for (std::size_t i = 0; i < n; ++i)
        group[i] = i == n / 2 ? 1
            : i % 3 == 0      ? 2
                              : 2 + static_cast<int>(rng.uniformInt(numG - 2));
    return group;
}

TEST(VecKernels, GroupedBernoulliLogitGlmMatchesScalarLoop)
{
    Rng rng(83);
    const std::size_t n = 75, numK = 2, numG = 6;
    const auto x = randomData(rng, n * numK, -1.5, 1.5);
    const auto group = unevenGroups(rng, n, numG);
    std::vector<int> ys(n);
    for (auto& y : ys)
        y = rng.bernoulli(0.6);
    std::vector<double> leafVals = randomData(rng, numG + numK, -1.0, 1.0);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x),
            std::span<const int>(group), p.subspan(0, numG),
            p.subspan(numG, numK));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var eta = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                eta += p[numG + k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i], eta);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, GroupedNormalIdGlmMatchesScalarLoop)
{
    Rng rng(84);
    const std::size_t n = 64, numK = 2, numG = 5;
    const auto x = randomData(rng, n * numK, -2.0, 2.0);
    const auto ys = randomData(rng, n, 4.0, 8.0);
    const auto group = unevenGroups(rng, n, numG);
    std::vector<double> leafVals = randomData(rng, numG, 5.0, 7.0);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-0.5, 0.5));
    leafVals.push_back(0.7); // sigma
    auto fused = [&](std::span<const ad::Var> p) {
        return math::normal_id_glm_lpdf(
            std::span<const double>(ys), std::span<const double>(x),
            std::span<const int>(group), p.subspan(0, numG),
            p.subspan(numG, numK), p[numG + numK]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var mu = p[static_cast<std::size_t>(group[i])];
            for (std::size_t k = 0; k < numK; ++k)
                mu += p[numG + k] * x[i * numK + k];
            lp += math::normal_lpdf(ys[i], mu, p[numG + numK]);
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, BinomialLogitGlmMatchesScalarLoop)
{
    Rng rng(85);
    const std::size_t n = 48, numK = 4, numG = 7;
    // One-hot rows, as racial's race design, then dense ones.
    std::vector<double> x(n * numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (i < n / 2)
            x[i * numK + i % numK] = 1.0;
        else
            for (std::size_t k = 0; k < numK; ++k)
                x[i * numK + k] = rng.uniform(-1.0, 1.0);
    }
    const auto group = unevenGroups(rng, n, numG);
    std::vector<long> ys(n), trials(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Trials past the end of logFactorial's table too.
        trials[i] = i % 5 == 0 ? 1 + static_cast<long>(rng.uniformInt(4000))
                               : static_cast<long>(rng.uniformInt(60));
        ys[i] = rng.binomial(trials[i], 0.3);
    }
    std::vector<double> leafVals = randomData(rng, numG, -0.8, 0.8);
    for (std::size_t k = 0; k < numK; ++k)
        leafVals.push_back(rng.uniform(-2.0, 0.5));
    for (bool grouped : {true, false}) {
        SCOPED_TRACE(grouped ? "grouped" : "one intercept");
        const std::span<const int> groups =
            grouped ? std::span<const int>(group) : std::span<const int>();
        auto groupOf = [&](std::size_t i) {
            return grouped ? static_cast<std::size_t>(group[i]) : 0;
        };
        auto fused = [&](std::span<const ad::Var> p) {
            return math::binomial_logit_glm_lpmf(
                std::span<const long>(ys), std::span<const long>(trials),
                std::span<const double>(x), groups, p.subspan(0, numG),
                p.subspan(numG, numK));
        };
        auto scalar = [&](std::span<const ad::Var> p) {
            ad::Var lp(0.0);
            for (std::size_t i = 0; i < n; ++i) {
                ad::Var eta = p[groupOf(i)];
                for (std::size_t k = 0; k < numK; ++k)
                    eta += p[numG + k] * x[i * numK + k];
                lp += math::binomial_logit_lpmf(ys[i], trials[i], eta);
            }
            return lp;
        };
        expectSamePosterior(leafVals, fused, scalar);
        expectMatchesFiniteDifference(leafVals, fused);
    }
}

/**
 * On a per-observation tape every GLM kernel records the scalar loop a
 * Stan model writes, row by row: the linear predictor and one
 * distributions.hpp term, summed from the first row on. So the kernel's
 * tape has exactly the nodes and op classes of that loop written out
 * by hand, and the same log density and adjoints.
 */
TEST(VecKernels, PerObservationGlmsRecordTheScalarLoop)
{
    Rng rng(86);
    const std::size_t n = 60, numK = 3, numG = 6;
    const auto x = randomData(rng, n * numK, -1.0, 1.0);
    const auto offset = randomData(rng, n, -0.5, 0.5);
    const auto group = unevenGroups(rng, n, numG);
    const auto reals = randomData(rng, n, -2.0, 2.0);
    std::vector<int> bits(n);
    std::vector<long> counts(n), trials(n), successes(n);
    for (std::size_t i = 0; i < n; ++i) {
        bits[i] = rng.bernoulli(0.5);
        counts[i] = rng.poisson(2.0);
        trials[i] = 1 + static_cast<long>(rng.uniformInt(30));
        successes[i] = rng.binomial(trials[i], 0.4);
    }
    std::vector<double> leafVals = randomData(rng, numG + numK, -0.8, 0.8);
    leafVals.push_back(0.9); // sigma, read by the normal GLM only

    using Params = std::span<const ad::Var>;
    const std::span<const int> groups(group);
    auto eta = [&](Params p, std::size_t i) {
        ad::Var e = p[static_cast<std::size_t>(group[i])];
        for (std::size_t k = 0; k < numK; ++k)
            e += p[numG + k] * x[i * numK + k];
        return e;
    };
    struct Glm
    {
        const char* name;
        std::function<ad::Var(Params)> kernel;
        std::function<ad::Var(Params, std::size_t)> term;
    };
    const Glm glms[] = {
        {"bernoulli_logit_glm_lpmf",
         [&](Params p) {
             return math::bernoulli_logit_glm_lpmf(
                 std::span<const int>(bits), std::span<const double>(x),
                 groups, p.subspan(0, numG), p.subspan(numG, numK));
         },
         [&](Params p, std::size_t i) {
             return math::bernoulli_logit_lpmf(bits[i], eta(p, i));
         }},
        {"poisson_log_glm_lpmf",
         [&](Params p) {
             return math::poisson_log_glm_lpmf(
                 std::span<const long>(counts), std::span<const double>(x),
                 groups, std::span<const double>(offset), p.subspan(0, numG),
                 p.subspan(numG, numK));
         },
         [&](Params p, std::size_t i) {
             ad::Var e = eta(p, i);
             e += offset[i];
             return math::poisson_log_lpmf(counts[i], e);
         }},
        {"normal_id_glm_lpdf",
         [&](Params p) {
             return math::normal_id_glm_lpdf(
                 std::span<const double>(reals), std::span<const double>(x),
                 groups, p.subspan(0, numG), p.subspan(numG, numK),
                 p[numG + numK]);
         },
         [&](Params p, std::size_t i) {
             return math::normal_lpdf(reals[i], eta(p, i), p[numG + numK]);
         }},
        {"binomial_logit_glm_lpmf",
         [&](Params p) {
             return math::binomial_logit_glm_lpmf(
                 std::span<const long>(successes),
                 std::span<const long>(trials), std::span<const double>(x),
                 groups, p.subspan(0, numG), p.subspan(numG, numK));
         },
         [&](Params p, std::size_t i) {
             return math::binomial_logit_lpmf(successes[i], trials[i],
                                              eta(p, i));
         }},
    };
    for (const Glm& glm : glms) {
        SCOPED_TRACE(glm.name);
        ad::Tape tk;
        tk.setPerObservation(true);
        const auto lk = makeLeaves(tk, leafVals);
        const ad::Var yk = glm.kernel(lk);
        std::vector<double> gk;
        tk.gradient(yk.id(), gk);

        ad::Tape ts;
        const auto ls = makeLeaves(ts, leafVals);
        ad::Var ys = glm.term(ls, 0);
        for (std::size_t i = 1; i < n; ++i)
            ys += glm.term(ls, i);
        std::vector<double> gs;
        ts.gradient(ys.id(), gs);

        EXPECT_EQ(tk.size(), ts.size());
        EXPECT_EQ(tk.opCounts(), ts.opCounts());
        EXPECT_LT(relErr(yk.value(), ys.value()), kValueRelTol);
        for (std::size_t i = 0; i < leafVals.size(); ++i)
            EXPECT_LT(relErr(gk[lk[i].id()], gs[ls[i].id()]), kGradRelTol)
                << "leaf " << i;
    }
}

TEST(VecKernels, BernoulliLogitScaledGlmMatchesScalarLoop)
{
    Rng rng(81);
    const std::size_t n = 60, numK = 5;
    const auto x = randomData(rng, n * numK, 0.0, 1.0);
    std::vector<int> ys(n);
    for (auto& y : ys)
        y = rng.bernoulli(0.5);
    std::vector<double> leafVals = randomData(rng, numK, 0.1, 2.0);
    leafVals.push_back(1.8);  // scale
    leafVals.push_back(2.2);  // shift
    auto fused = [&](std::span<const ad::Var> p) {
        return math::bernoulli_logit_scaled_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x),
            p.subspan(0, numK), p[numK], p[numK + 1]);
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i) {
            ad::Var score(0.0);
            for (std::size_t k = 0; k < numK; ++k)
                score += p[k] * x[i * numK + k];
            lp += math::bernoulli_logit_lpmf(ys[i],
                                             p[numK]
                                                 * (score - p[numK + 1]));
        }
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
    expectMatchesFiniteDifference(leafVals, fused);
}

TEST(VecKernels, DotVecMatchesScalarLoop)
{
    Rng rng(82);
    const std::size_t n = 20;
    const auto ws = randomData(rng, n, -3.0, 3.0);
    const auto leafVals = randomData(rng, n, -2.0, 2.0);
    auto fused = [&](std::span<const ad::Var> p) {
        return math::dot_vec(p, std::span<const double>(ws));
    };
    auto scalar = [&](std::span<const ad::Var> p) {
        ad::Var lp(0.0);
        for (std::size_t i = 0; i < n; ++i)
            lp += p[i] * ws[i];
        return lp;
    };
    expectSamePosterior(leafVals, fused, scalar);
}

TEST(VecKernels, AllDoubleInstantiationBuildsNoTape)
{
    const std::vector<double> ys{0.3, -1.2, 2.4};
    const double lpFused =
        math::normal_lpdf_vec(std::span<const double>(ys), 0.5, 1.2);
    double lpScalar = 0.0;
    for (double y : ys)
        lpScalar += math::normal_lpdf(y, 0.5, 1.2);
    EXPECT_LT(relErr(lpFused, lpScalar), kValueRelTol);
}

// ---------------------------------------------------------------------
// Wide-node sweep across edge counts
// ---------------------------------------------------------------------

class WideNodeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(WideNodeSweep, AdjointsScatterThroughTheEdgeArena)
{
    const std::size_t numEdges = GetParam();
    ad::Tape tape;
    std::vector<ad::NodeId> parents;
    std::vector<double> weights;
    std::vector<ad::Var> leaves;
    for (std::size_t k = 0; k < numEdges; ++k) {
        leaves.push_back(ad::leaf(tape, 0.1 * static_cast<double>(k)));
        parents.push_back(leaves.back().id());
        weights.push_back(1.0 + static_cast<double>(k));
    }
    const ad::NodeId wide =
        tape.pushWide(parents, weights, ad::OpClass::Special);
    // Feed the wide node through a downstream op so its adjoint is not
    // the seed itself.
    const ad::Var w(&tape, 0.0, wide);
    const ad::Var y = w * 2.0;
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    for (std::size_t k = 0; k < numEdges; ++k)
        EXPECT_DOUBLE_EQ(grad[leaves[k].id()], 2.0 * weights[k]) << k;
    EXPECT_EQ(tape.edges().size(), numEdges);
    EXPECT_EQ(tape.wideSpans().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(EdgeCounts, WideNodeSweep,
                         ::testing::Values(0u, 1u, 2u, 7u, 1000u));

TEST(WideNode, MixesWithFixedNodesInOneSweep)
{
    ad::Tape tape;
    const ad::Var a = ad::leaf(tape, 1.5);
    const ad::Var b = ad::leaf(tape, -0.5);
    const ad::Var fixedPath = a * b + ad::exp(a);
    const std::vector<ad::NodeId> parents{a.id(), b.id()};
    const std::vector<double> weights{3.0, -2.0};
    const ad::Var widePath(
        &tape, 3.0 * 1.5 + (-2.0) * (-0.5),
        tape.pushWide(parents, weights, ad::OpClass::Special));
    const ad::Var y = fixedPath + widePath;
    std::vector<double> grad;
    tape.gradient(y.id(), grad);
    EXPECT_DOUBLE_EQ(grad[a.id()], -0.5 + std::exp(1.5) + 3.0);
    EXPECT_DOUBLE_EQ(grad[b.id()], 1.5 - 2.0);
}

// ---------------------------------------------------------------------
// Workload-level: fused vs per-observation tapes at random points
// ---------------------------------------------------------------------

class FusedWorkload : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FusedWorkload, MatchesScalarPathAtRandomPoints)
{
    const auto wl = workloads::makeWorkload(GetParam(), 0.5);
    ppl::Evaluator fused(*wl);
    ppl::Evaluator scalar(*wl);
    scalar.tape().setPerObservation(true);
    Rng rng(90);
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<double> q(fused.dim());
        for (auto& qi : q)
            qi = rng.normal(0.0, 0.5);

        std::vector<double> gF, gS;
        const double lpgF = fused.logProbGrad(q, gF);
        const double lpgS = scalar.logProbGrad(q, gS);
        EXPECT_LT(relErr(lpgF, lpgS), kValueRelTol);
        ASSERT_EQ(gF.size(), gS.size());
        for (std::size_t i = 0; i < gF.size(); ++i)
            EXPECT_LT(relErr(gF[i], gS[i]), kGradRelTol)
                << GetParam() << " coord " << i << ": " << gF[i] << " vs "
                << gS[i];
        // The point of fusion: far fewer nodes on the same model.
        EXPECT_LT(fused.lastTapeNodes(), scalar.lastTapeNodes());
    }
}

INSTANTIATE_TEST_SUITE_P(PortedWorkloads, FusedWorkload,
                         ::testing::Values("ad", "12cities", "tickets",
                                           "disease", "votes", "survival",
                                           "memory", "racial"));

/**
 * The reference tape is what archsim characterizes for the paper's
 * figures, so its shape is pinned exactly: one gradient at scale 1 from
 * findInitialPoint(seed 7), node count and op-class counts
 * (leaf/add/mul/div/special), beside the fused tape's node count.
 */
TEST(VecKernels, ReferenceTapeShapeIsPinned)
{
    struct Shape
    {
        const char* name;
        std::size_t fusedNodes;
        std::size_t referenceNodes;
        std::array<std::uint64_t, ad::kNumOpClasses> referenceOps;
    };
    const Shape shapes[] = {
        {"12cities", 65, 2077, {16, 1232, 608, 16, 205}},
        {"ad", 24, 11559, {13, 6047, 5066, 13, 420}},
        {"votes", 4633, 4797, {24, 1890, 2221, 435, 227}},
        {"tickets", 155, 38419, {63, 19915, 16927, 63, 1451}},
        {"disease", 64, 6394, {9, 3546, 2061, 260, 518}},
        {"survival", 3587, 12283, {50, 9162, 360, 50, 2661}},
        {"memory", 245, 7815, {48, 4740, 1936, 368, 723}},
        {"racial", 297, 2289, {59, 1246, 572, 11, 401}},
    };
    for (const Shape& shape : shapes) {
        SCOPED_TRACE(shape.name);
        const auto wl = workloads::makeWorkload(shape.name, 1.0);
        ppl::Evaluator eval(*wl);
        Rng rng(7);
        const auto q = samplers::findInitialPoint(eval, rng);
        std::vector<double> grad;
        eval.logProbGrad(q, grad);
        EXPECT_EQ(eval.lastTapeNodes(), shape.fusedNodes);

        eval.tape().setPerObservation(true);
        eval.logProbGrad(q, grad);
        EXPECT_EQ(eval.lastTapeNodes(), shape.referenceNodes);
        EXPECT_EQ(eval.tape().opCounts(), shape.referenceOps);
    }
}

} // namespace
} // namespace bayes
