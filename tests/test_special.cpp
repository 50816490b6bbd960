/**
 * @file
 * Tests for scalar special functions against reference values and
 * mathematical identities.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "math/special.hpp"
#include "support/error.hpp"

namespace bayes::math {
namespace {

TEST(Special, DigammaKnownValues)
{
    // digamma(1) = -Euler-Mascheroni
    EXPECT_NEAR(digamma(1.0), -0.57721566490153286, 1e-10);
    // digamma(0.5) = -gamma - 2 ln 2
    EXPECT_NEAR(digamma(0.5), -1.9635100260214235, 1e-10);
    // Recurrence digamma(x+1) = digamma(x) + 1/x
    for (double x : {0.3, 1.7, 4.2, 11.0})
        EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-10);
}

TEST(Special, DigammaIsDerivativeOfLgamma)
{
    for (double x : {0.7, 2.5, 9.0}) {
        const double h = 1e-6;
        // bayes-lint: allow(R002): single-threaded libm oracle cross-check
        const double span = std::lgamma(x + h) - std::lgamma(x - h);
        const double numeric = span / (2 * h);
        EXPECT_NEAR(digamma(x), numeric, 1e-6);
    }
}

TEST(Special, TrigammaKnownValuesAndRecurrence)
{
    EXPECT_NEAR(trigamma(1.0), M_PI * M_PI / 6.0, 1e-9);
    for (double x : {0.4, 2.2, 7.0})
        EXPECT_NEAR(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-9);
}

TEST(Special, DigammaDomain)
{
    EXPECT_THROW(digamma(0.0), Error);
    EXPECT_THROW(trigamma(-1.0), Error);
}

TEST(Special, Log1pExpStableInBothTails)
{
    EXPECT_NEAR(log1pExp(0.0), std::log(2.0), 1e-12);
    EXPECT_NEAR(log1pExp(-40.0), std::exp(-40.0), 1e-12);
    EXPECT_NEAR(log1pExp(50.0), 50.0, 1e-12);
    EXPECT_NEAR(log1pExp(800.0), 800.0, 1e-9); // no overflow
}

TEST(Special, InvLogitAndLogitAreInverses)
{
    // |x| <= 12 keeps 1 - p exactly representable enough for a clean
    // round trip; beyond that double rounding near p = 1 dominates.
    for (double x : {-12.0, -2.0, 0.0, 1.5, 12.0})
        EXPECT_NEAR(logit(invLogit(x)), x, 1e-8);
    for (double p : {0.01, 0.3, 0.5, 0.99})
        EXPECT_NEAR(invLogit(logit(p)), p, 1e-12);
}

TEST(Special, LogSumExpPairwise)
{
    EXPECT_NEAR(logSumExp(0.0, 0.0), std::log(2.0), 1e-12);
    EXPECT_NEAR(logSumExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-9);
    EXPECT_NEAR(logSumExp(-INFINITY, 3.0), 3.0, 1e-12);
    EXPECT_EQ(logSumExp(-INFINITY, -INFINITY), -INFINITY);
}

TEST(Special, LogSumExpVector)
{
    EXPECT_NEAR(logSumExp({0.0, 0.0, 0.0, 0.0}), std::log(4.0), 1e-12);
    EXPECT_NEAR(logSumExp({-1e308, 5.0}), 5.0, 1e-12);
    EXPECT_THROW(logSumExp(std::vector<double>{}), Error);
}

TEST(Special, LogDiffExp)
{
    EXPECT_NEAR(logDiffExp(std::log(5.0), std::log(3.0)), std::log(2.0),
                1e-12);
    EXPECT_EQ(logDiffExp(2.0, 2.0), -INFINITY);
}

TEST(Special, StdNormalCdfKnownValues)
{
    EXPECT_NEAR(stdNormalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(stdNormalCdf(1.959963984540054), 0.975, 1e-9);
    EXPECT_NEAR(stdNormalCdf(-1.0) + stdNormalCdf(1.0), 1.0, 1e-12);
}

TEST(Special, StdNormalQuantileInvertsCdf)
{
    for (double p : {0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999})
        EXPECT_NEAR(stdNormalCdf(stdNormalQuantile(p)), p, 1e-8);
    EXPECT_THROW(stdNormalQuantile(0.0), Error);
    EXPECT_THROW(stdNormalQuantile(1.0), Error);
}

TEST(Special, LbetaMatchesGammaIdentity)
{
    EXPECT_NEAR(lbeta(1.0, 1.0), 0.0, 1e-12);          // B(1,1)=1
    EXPECT_NEAR(lbeta(2.0, 3.0), std::log(1.0 / 12.0), 1e-12);
}

TEST(Special, LchooseMatchesSmallCases)
{
    EXPECT_NEAR(lchoose(5.0, 2.0), std::log(10.0), 1e-12);
    EXPECT_NEAR(lchoose(10.0, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(lchoose(52.0, 5.0), std::log(2598960.0), 1e-9);
    EXPECT_NEAR(lchoose(52L, 5L), std::log(2598960.0), 1e-9);
}

// The count likelihoods read logFactorial's table in place of
// lgammaSafe, so the table must reproduce it exactly, or every draw of
// the Poisson and binomial workloads would move.

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

TEST(Special, LogFactorialIsLgammaSafeBitForBit)
{
    for (long n = -50; n < kLogFactorialTableSize + 300; ++n)
        ASSERT_EQ(bits(logFactorial(n)),
                  bits(lgammaSafe(static_cast<double>(n) + 1.0)))
            << "n = " << n;
    for (long n : {100000L, 1L << 40, -(1L << 40)})
        EXPECT_EQ(bits(logFactorial(n)),
                  bits(lgammaSafe(static_cast<double>(n) + 1.0)))
            << "n = " << n;
    EXPECT_EQ(logFactorial(-1), INFINITY); // the pole of Gamma at 0
}

TEST(Special, IntegerLchooseIsTheDoubleFormBitForBit)
{
    auto expectSame = [](long n, long k) {
        EXPECT_EQ(bits(lchoose(n, k)),
                  bits(lchoose(static_cast<double>(n),
                               static_cast<double>(k))))
            << "C(" << n << ", " << k << ")";
    };
    for (long n = -3; n < 70; ++n)
        for (long k = -3; k <= n + 3; ++k)
            expectSame(n, k);
    // Across the table's end, where one factor falls back to lgammaSafe.
    for (long n : {1349L, kLogFactorialTableSize - 1, kLogFactorialTableSize,
                   kLogFactorialTableSize + 77, 50000L})
        for (long k : {-1L, 0L, 1L, n / 3, n - 1, n, n + 1})
            expectSame(n, k);
    EXPECT_EQ(lchoose(5L, 6L), -INFINITY);  // k > n
    EXPECT_EQ(lchoose(5L, -1L), -INFINITY); // k < 0
}

// Edge cases the ubsan ctest label guards: the poles and out-of-support
// arguments must produce deterministic inf/-inf/NaN, never pole
// arithmetic (inf - inf) or a libm FP exception mid-sample.

TEST(Special, LgammaSafePolesAreDeterministicInf)
{
    EXPECT_TRUE(std::isinf(lgammaSafe(0.0)));
    EXPECT_GT(lgammaSafe(0.0), 0.0);
    EXPECT_TRUE(std::isinf(lgammaSafe(-0.0)));
    EXPECT_TRUE(std::isinf(lgammaSafe(-1.0)));
    EXPECT_TRUE(std::isinf(lgammaSafe(-42.0)));
    // Non-pole points stay finite, including between the poles.
    EXPECT_TRUE(std::isfinite(lgammaSafe(-0.5)));
    EXPECT_TRUE(std::isfinite(lgammaSafe(-41.5)));
    EXPECT_NEAR(lgammaSafe(0.5), 0.5 * std::log(M_PI), 1e-12);
    EXPECT_TRUE(std::isnan(lgammaSafe(NAN)));
}

TEST(Special, LchooseOutsideSupportIsMinusInf)
{
    EXPECT_EQ(lchoose(5.0, 6.0), -INFINITY);   // k > n
    EXPECT_EQ(lchoose(5.0, -1.0), -INFINITY);  // k < 0
    EXPECT_EQ(lchoose(0.0, 1.0), -INFINITY);
    EXPECT_NEAR(lchoose(0.0, 0.0), 0.0, 1e-12); // C(0,0) = 1
    EXPECT_TRUE(std::isnan(lchoose(NAN, 2.0)));
    EXPECT_TRUE(std::isnan(lchoose(5.0, NAN)));
}

TEST(Special, LbetaAtZeroArgumentsIsInf)
{
    EXPECT_TRUE(std::isinf(lbeta(0.0, 1.0)));
    EXPECT_TRUE(std::isinf(lbeta(1.0, 0.0)));
    EXPECT_TRUE(std::isfinite(lbeta(1e-8, 1e-8)));
}

} // namespace
} // namespace bayes::math
