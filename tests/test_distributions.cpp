/**
 * @file
 * Distribution library tests: closed-form reference values,
 * normalization checks (densities integrate / masses sum to one), and
 * tape-gradient checks against finite differences for every family.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "ad/tape.hpp"
#include "math/distributions.hpp"

namespace bayes::math {
namespace {

using ad::Tape;
using ad::Var;
using ad::leaf;

TEST(Distributions, NormalReferenceValue)
{
    // N(1.0 | 0, 1) = exp(-0.5)/sqrt(2pi)
    EXPECT_NEAR(normal_lpdf(1.0, 0.0, 1.0),
                -0.5 - 0.5 * std::log(2 * M_PI), 1e-12);
    // Location-scale identity.
    EXPECT_NEAR(normal_lpdf(3.0, 1.0, 2.0),
                normal_lpdf(1.0, 0.0, 1.0) - std::log(2.0), 1e-12);
}

TEST(Distributions, StdNormalMatchesNormal)
{
    for (double y : {-2.0, 0.0, 1.3})
        EXPECT_NEAR(std_normal_lpdf(y), normal_lpdf(y, 0.0, 1.0), 1e-12);
}

TEST(Distributions, LognormalConsistentWithNormal)
{
    // If X ~ LogNormal(m, s), log density relates via change of vars.
    const double y = 2.5, m = 0.3, s = 0.7;
    EXPECT_NEAR(lognormal_lpdf(y, m, s),
                normal_lpdf(std::log(y), m, s) - std::log(y), 1e-12);
}

TEST(Distributions, StudentTApproachesNormalForLargeNu)
{
    EXPECT_NEAR(student_t_lpdf(0.8, 1e7, 0.0, 1.0),
                normal_lpdf(0.8, 0.0, 1.0), 1e-5);
}

TEST(Distributions, CauchyReference)
{
    // Cauchy(0 | 0, 1) = 1/pi
    EXPECT_NEAR(cauchy_lpdf(0.0, 0.0, 1.0), -std::log(M_PI), 1e-12);
    EXPECT_NEAR(cauchy_lpdf(1.0, 0.0, 1.0), -std::log(2.0 * M_PI), 1e-12);
}

TEST(Distributions, ExponentialAndGammaAgree)
{
    // Exponential(rate) == Gamma(1, rate)
    for (double y : {0.2, 1.0, 4.0})
        EXPECT_NEAR(exponential_lpdf(y, 1.7), gamma_lpdf(y, 1.0, 1.7),
                    1e-12);
}

TEST(Distributions, BetaSymmetry)
{
    EXPECT_NEAR(beta_lpdf(0.3, 2.0, 5.0), beta_lpdf(0.7, 5.0, 2.0), 1e-12);
    // Beta(1,1) is uniform.
    EXPECT_NEAR(beta_lpdf(0.42, 1.0, 1.0), 0.0, 1e-12);
}

TEST(Distributions, UniformInsideAndOutside)
{
    EXPECT_NEAR(uniform_lpdf(0.5, 0.0, 2.0), -std::log(2.0), 1e-12);
    EXPECT_EQ(uniform_lpdf(3.0, 0.0, 2.0), -INFINITY);
}

TEST(Distributions, PoissonMassSumsToOne)
{
    const double lambda = 3.7;
    double total = 0.0;
    for (long k = 0; k < 60; ++k)
        total += std::exp(poisson_lpmf(k, lambda));
    EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Distributions, PoissonLogParameterization)
{
    for (long k : {0L, 2L, 9L})
        EXPECT_NEAR(poisson_log_lpmf(k, std::log(4.2)),
                    poisson_lpmf(k, 4.2), 1e-10);
}

TEST(Distributions, BernoulliAndLogitAgree)
{
    for (double p : {0.1, 0.5, 0.9}) {
        const double eta = logit(p);
        for (int y : {0, 1}) {
            EXPECT_NEAR(bernoulli_lpmf(y, p),
                        bernoulli_logit_lpmf(y, eta), 1e-10);
        }
    }
}

TEST(Distributions, BinomialMassSumsToOne)
{
    const long n = 12;
    const double p = 0.37;
    double total = 0.0;
    for (long k = 0; k <= n; ++k)
        total += std::exp(binomial_lpmf(k, n, p));
    EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(Distributions, BinomialLogitAgrees)
{
    EXPECT_NEAR(binomial_logit_lpmf(4, 10, logit(0.3)),
                binomial_lpmf(4, 10, 0.3), 1e-10);
}

TEST(Distributions, BinomialOutsideSupportIsMinusInf)
{
    // k > n and k < 0 have probability 0; the lpmf must be exactly
    // -inf (via lchoose's support check), not NaN from pole arithmetic.
    EXPECT_EQ(binomial_lpmf(13, 12, 0.37), -INFINITY);
    EXPECT_EQ(binomial_lpmf(-1, 12, 0.37), -INFINITY);
    EXPECT_EQ(binomial_logit_lpmf(13, 12, 0.2), -INFINITY);
    EXPECT_TRUE(std::isfinite(binomial_lpmf(12, 12, 0.37)));
    EXPECT_TRUE(std::isfinite(binomial_lpmf(0, 12, 0.37)));
}

TEST(Distributions, NegBinomial2MassSumsToOne)
{
    const double mu = 4.0, phi = 2.5;
    double total = 0.0;
    for (long k = 0; k < 300; ++k)
        total += std::exp(neg_binomial_2_lpmf(k, mu, phi));
    EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(Distributions, NegBinomial2ApproachesPoisson)
{
    // phi -> inf recovers Poisson(mu).
    for (long k : {0L, 3L, 8L})
        EXPECT_NEAR(neg_binomial_2_lpmf(k, 3.0, 1e8),
                    poisson_lpmf(k, 3.0), 1e-6);
}

// ---------------------------------------------------------------------
// Gradient checks: d lpdf / d parameter vs finite differences.
// ---------------------------------------------------------------------

struct GradCase
{
    std::string name;
    std::function<Var(const Var&)> lpdf;
    double at;
};

class DistributionGradientTest : public ::testing::TestWithParam<GradCase>
{
};

TEST_P(DistributionGradientTest, MatchesFiniteDifference)
{
    const auto& c = GetParam();
    Tape tape;
    Var x = leaf(tape, c.at);
    Var lp = c.lpdf(x);
    std::vector<double> adj;
    tape.gradient(lp.id(), adj);
    const double h = 1e-6;
    const double numeric =
        (c.lpdf(Var(c.at + h)).value() - c.lpdf(Var(c.at - h)).value())
        / (2 * h);
    EXPECT_NEAR(adj[x.id()], numeric,
                2e-5 * std::max(1.0, std::fabs(numeric)))
        << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, DistributionGradientTest,
    ::testing::Values(
        GradCase{"normal_mu",
                 [](const Var& m) { return normal_lpdf(1.3, m, 0.8); }, 0.4},
        GradCase{"normal_sigma",
                 [](const Var& s) { return normal_lpdf(1.3, 0.4, s); }, 0.8},
        GradCase{"normal_y",
                 [](const Var& y) { return normal_lpdf(y, 0.4, 0.8); }, 1.3},
        GradCase{"lognormal_mu",
                 [](const Var& m) { return lognormal_lpdf(2.0, m, 0.5); },
                 0.3},
        GradCase{"student_t_mu",
                 [](const Var& m) {
                     return student_t_lpdf(1.0, 4.0, m, 1.2);
                 },
                 0.2},
        GradCase{"cauchy_scale",
                 [](const Var& s) { return cauchy_lpdf(0.7, 0.1, s); }, 1.4},
        GradCase{"exponential_rate",
                 [](const Var& r) { return exponential_lpdf(0.9, r); }, 2.2},
        GradCase{"gamma_shape",
                 [](const Var& a) { return gamma_lpdf(1.4, a, 2.0); }, 3.0},
        GradCase{"gamma_rate",
                 [](const Var& b) { return gamma_lpdf(1.4, 3.0, b); }, 2.0},
        GradCase{"beta_a",
                 [](const Var& a) { return beta_lpdf(0.4, a, 2.0); }, 1.6},
        GradCase{"poisson_lambda",
                 [](const Var& l) { return poisson_lpmf(4, l); }, 2.8},
        GradCase{"poisson_log_eta",
                 [](const Var& e) { return poisson_log_lpmf(4, e); }, 1.1},
        GradCase{"bernoulli_logit",
                 [](const Var& e) { return bernoulli_logit_lpmf(1, e); },
                 -0.4},
        GradCase{"binomial_logit",
                 [](const Var& e) {
                     return binomial_logit_lpmf(3, 9, e);
                 },
                 0.5},
        GradCase{"neg_binomial_mu",
                 [](const Var& m) {
                     return neg_binomial_2_lpmf(5, m, 3.0);
                 },
                 4.0},
        GradCase{"neg_binomial_phi",
                 [](const Var& f) {
                     return neg_binomial_2_lpmf(5, 4.0, f);
                 },
                 3.0}),
    [](const auto& paramInfo) { return paramInfo.param.name; });

TEST(Distributions, LogSumExpTemplateAgreesWithScalar)
{
    Tape tape;
    Var a = leaf(tape, 1.0);
    Var b = leaf(tape, 2.0);
    EXPECT_NEAR(logSumExp(a, b).value(), logSumExp(1.0, 2.0), 1e-12);
    EXPECT_NEAR(logSumExp(1.0, 2.0),
                std::log(std::exp(1.0) + std::exp(2.0)), 1e-12);
}

} // namespace
} // namespace bayes::math
