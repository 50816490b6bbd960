/**
 * @file
 * Scalar special functions used by the distribution library and by the
 * Var overloads in math/functions.hpp. Everything here operates on
 * plain doubles; differentiable versions wrap these with the analytic
 * derivative.
 */
#pragma once

#include <array>
#include <cmath>
#include <vector>

namespace bayes::math {

/** log(2*pi), the ubiquitous Gaussian normalizing constant. */
inline constexpr double kLogTwoPi = 1.8378770664093453;

/** log(pi). */
inline constexpr double kLogPi = 1.1447298858494002;

/** log(sqrt(2*pi)). */
inline constexpr double kLogSqrtTwoPi = 0.9189385332046727;

/** Digamma (psi) function: d/dx log Gamma(x). Accurate to ~1e-12. */
double digamma(double x);

/** Trigamma function: d^2/dx^2 log Gamma(x). */
double trigamma(double x);

/** log(1 + exp(x)) without overflow (a.k.a. softplus). */
inline double
log1pExp(double x)
{
    if (x > 0.0)
        return x + std::log1p(std::exp(-x));
    return std::log1p(std::exp(x));
}

/** Logistic sigmoid 1 / (1 + exp(-x)). */
inline double
invLogit(double x)
{
    if (x >= 0.0) {
        const double z = std::exp(-x);
        return 1.0 / (1.0 + z);
    }
    const double z = std::exp(x);
    return z / (1.0 + z);
}

/** Log-odds transform log(p / (1 - p)). @pre 0 < p < 1 */
inline double
logit(double p)
{
    return std::log(p) - std::log1p(-p);
}

/** log(exp(a) + exp(b)) without overflow. */
inline double
logSumExp(double a, double b)
{
    const double m = a > b ? a : b;
    if (m == -INFINITY)
        return -INFINITY;
    return m + std::log(std::exp(a - m) + std::exp(b - m));
}

/** log sum_i exp(xs[i]) without overflow. @pre xs nonempty */
double logSumExp(const std::vector<double>& xs);

/** log(exp(a) - exp(b)). @pre a >= b */
inline double
logDiffExp(double a, double b)
{
    if (a == b)
        return -INFINITY;
    return a + std::log1p(-std::exp(b - a));
}

/** Standard normal CDF. */
inline double
stdNormalCdf(double x)
{
    return 0.5 * std::erfc(-x * M_SQRT1_2);
}

/** Standard normal log-PDF. */
inline double
stdNormalLpdf(double x)
{
    return -0.5 * x * x - kLogSqrtTwoPi;
}

/** Inverse of the standard normal CDF (Acklam's algorithm, ~1e-9). */
double stdNormalQuantile(double p);

/**
 * Thread-safe log Gamma. glibc's lgamma writes the global `signgam`,
 * a data race once parallel chains evaluate densities concurrently;
 * the re-entrant lgamma_r keeps the sign in a local instead.
 *
 * Gamma has poles at 0, -1, -2, ...; |Gamma| -> inf there, so log|Gamma|
 * is +inf. We answer the poles directly instead of evaluating libm at
 * them, which keeps the result deterministic across libms and avoids
 * raising FE_DIVBYZERO mid-sample. NaN propagates.
 */
inline double
lgammaSafe(double x)
{
    if (x <= 0.0 && x == std::floor(x))
        return INFINITY; // pole (covers -0.0 as well)
#if defined(__GLIBC__)
    int sign = 0;
    return ::lgamma_r(x, &sign);
#else
    return std::lgamma(x);
#endif
}

/** Counts below this read logFactorial's table (racial's reach 1,349). */
inline constexpr long kLogFactorialTableSize = 2048;

/**
 * log n! for a count n, bit for bit lgammaSafe(n + 1.0). A count
 * likelihood's normalizing constant depends on the data alone, so it
 * reads a table built once with that very call instead of evaluating
 * lgamma per row per evaluation. n outside [0, kLogFactorialTableSize),
 * negative n included (a pole, +inf), falls back to lgammaSafe.
 */
inline double
logFactorial(long n)
{
    static const auto table = [] {
        std::array<double, kLogFactorialTableSize> t{};
        for (long i = 0; i < kLogFactorialTableSize; ++i)
            t[static_cast<std::size_t>(i)] =
                lgammaSafe(static_cast<double>(i) + 1.0);
        return t;
    }();
    if (n >= 0 && n < kLogFactorialTableSize)
        return table[static_cast<std::size_t>(n)];
    return lgammaSafe(static_cast<double>(n) + 1.0);
}

/** log Beta(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b). */
inline double
lbeta(double a, double b)
{
    return lgammaSafe(a) + lgammaSafe(b) - lgammaSafe(a + b);
}

/**
 * log of the binomial coefficient C(n, k).
 *
 * Outside the support (k < 0 or k > n) the coefficient is 0, so the log
 * is -inf — returned explicitly rather than left to pole arithmetic,
 * where lgamma(n - k + 1) at a nonpositive integer would otherwise
 * produce inf - inf = NaN. NaN arguments propagate.
 */
inline double
lchoose(double n, double k)
{
    if (std::isnan(n) || std::isnan(k))
        return NAN;
    if (k < 0.0 || k > n)
        return -INFINITY;
    return lgammaSafe(n + 1.0) - lgammaSafe(k + 1.0)
        - lgammaSafe(n - k + 1.0);
}

/**
 * lchoose for integer counts, bit for bit the double form: the same
 * three log-factorials in the same order, read from logFactorial's
 * table. -inf outside the support (k < 0 or k > n).
 */
inline double
lchoose(long n, long k)
{
    if (k < 0 || k > n)
        return -INFINITY;
    return logFactorial(n) - logFactorial(k) - logFactorial(n - k);
}

} // namespace bayes::math
