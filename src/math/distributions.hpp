/**
 * @file
 * Probability densities and mass functions, templated so each argument
 * can independently be a plain double (data / fixed hyperparameter) or
 * an ad::Var (parameter). Naming follows Stan's `<dist>_lpdf/_lpmf`
 * convention deliberately, so models port across with minimal friction;
 * infrastructure code elsewhere uses the project's camelCase style.
 *
 * All densities include their normalizing constants — the KL-divergence
 * quality metric in the convergence study depends on comparable
 * absolute log densities.
 */
#pragma once

#include "math/functions.hpp"

namespace bayes::math {

using std::exp;
using std::log;
using std::log1p;
using ad::exp;
using ad::log;
using ad::log1p;

/** Standard normal log density. */
template <typename TY>
promote_t<TY>
std_normal_lpdf(const TY& y)
{
    return -0.5 * square(y) - kLogSqrtTwoPi;
}

/** Normal(mu, sigma) log density. @pre sigma > 0 */
template <typename TY, typename TMu, typename TSigma>
promote_t<TY, TMu, TSigma>
normal_lpdf(const TY& y, const TMu& mu, const TSigma& sigma)
{
    using T = promote_t<TY, TMu, TSigma>;
    const T z = (y - mu) / sigma;
    return T(-0.5) * square(z) - log(sigma) - kLogSqrtTwoPi;
}

/** LogNormal(mu, sigma) log density. @pre y > 0, sigma > 0 */
template <typename TY, typename TMu, typename TSigma>
promote_t<TY, TMu, TSigma>
lognormal_lpdf(const TY& y, const TMu& mu, const TSigma& sigma)
{
    using T = promote_t<TY, TMu, TSigma>;
    const T ly = log(T(y));
    return normal_lpdf(ly, T(mu), T(sigma)) - ly;
}

/** Student-t(nu, mu, sigma) log density. @pre nu, sigma > 0 */
template <typename TY, typename TMu, typename TSigma>
promote_t<TY, TMu, TSigma>
student_t_lpdf(const TY& y, double nu, const TMu& mu, const TSigma& sigma)
{
    using T = promote_t<TY, TMu, TSigma>;
    const T z = (y - mu) / sigma;
    const double norm = lgammaSafe(0.5 * (nu + 1.0)) - lgammaSafe(0.5 * nu)
        - 0.5 * std::log(nu) - 0.5 * kLogPi;
    return norm - log(sigma)
        - 0.5 * (nu + 1.0) * log1p(square(z) / nu);
}

/** Cauchy(loc, scale) log density. @pre scale > 0 */
template <typename TY, typename TMu, typename TSigma>
promote_t<TY, TMu, TSigma>
cauchy_lpdf(const TY& y, const TMu& loc, const TSigma& scale)
{
    using T = promote_t<TY, TMu, TSigma>;
    const T z = (y - loc) / scale;
    return -kLogPi - log(scale) - log1p(square(z));
}

/** Exponential(rate) log density. @pre y >= 0, rate > 0 */
template <typename TY, typename TRate>
promote_t<TY, TRate>
exponential_lpdf(const TY& y, const TRate& rate)
{
    using T = promote_t<TY, TRate>;
    return log(T(rate)) - rate * y;
}

/** Gamma(shape, rate) log density. @pre y, shape, rate > 0 */
template <typename TY, typename TShape, typename TRate>
promote_t<TY, TShape, TRate>
gamma_lpdf(const TY& y, const TShape& shape, const TRate& rate)
{
    using T = promote_t<TY, TShape, TRate>;
    return shape * log(T(rate)) - lgamma(T(shape))
        + (shape - 1.0) * log(T(y)) - rate * y;
}

/** Beta(a, b) log density. @pre 0 < y < 1, a, b > 0 */
template <typename TY, typename TA, typename TB>
promote_t<TY, TA, TB>
beta_lpdf(const TY& y, const TA& a, const TB& b)
{
    using T = promote_t<TY, TA, TB>;
    return (a - 1.0) * log(T(y)) + (b - 1.0) * log1p(-T(y))
        + lgamma(T(a) + T(b)) - lgamma(T(a)) - lgamma(T(b));
}

/** Uniform(lo, hi) log density; -inf outside the support. */
template <typename TY>
promote_t<TY>
uniform_lpdf(const TY& y, double lo, double hi)
{
    if (valueOf(y) < lo || valueOf(y) > hi)
        return promote_t<TY>(-INFINITY);
    return promote_t<TY>(-std::log(hi - lo));
}

/** Poisson(lambda) log mass. @pre lambda > 0, y >= 0 */
template <typename TLambda>
promote_t<TLambda>
poisson_lpmf(long y, const TLambda& lambda)
{
    using T = promote_t<TLambda>;
    return static_cast<double>(y) * log(T(lambda)) - lambda
        - logFactorial(y);
}

/** Poisson with log-rate parameterization: lambda = exp(eta). */
template <typename TEta>
promote_t<TEta>
poisson_log_lpmf(long y, const TEta& eta)
{
    using T = promote_t<TEta>;
    return static_cast<double>(y) * eta - exp(T(eta)) - logFactorial(y);
}

/** Bernoulli(p) log mass. @pre 0 < p < 1 */
template <typename TP>
promote_t<TP>
bernoulli_lpmf(int y, const TP& p)
{
    using T = promote_t<TP>;
    return y ? log(T(p)) : log1p(-T(p));
}

/**
 * Bernoulli with logit parameterization, the numerically stable form
 * used by the logistic-regression workloads.
 */
template <typename TEta>
promote_t<TEta>
bernoulli_logit_lpmf(int y, const TEta& eta)
{
    using T = promote_t<TEta>;
    // log sigma(eta) = -log1pExp(-eta); log(1-sigma(eta)) = -log1pExp(eta)
    return y ? -log1pExp(-T(eta)) : -log1pExp(T(eta));
}

/** Binomial(n, p) log mass. @pre 0 <= y <= n, 0 < p < 1 */
template <typename TP>
promote_t<TP>
binomial_lpmf(long y, long n, const TP& p)
{
    using T = promote_t<TP>;
    const double ny = static_cast<double>(n);
    const double ky = static_cast<double>(y);
    return lchoose(n, y) + ky * log(T(p))
        + (ny - ky) * log1p(-T(p));
}

/** Binomial with logit parameterization. */
template <typename TEta>
promote_t<TEta>
binomial_logit_lpmf(long y, long n, const TEta& eta)
{
    using T = promote_t<TEta>;
    const double ny = static_cast<double>(n);
    const double ky = static_cast<double>(y);
    return lchoose(n, y) - ky * log1pExp(-T(eta))
        - (ny - ky) * log1pExp(T(eta));
}

/**
 * Negative binomial, mean/overdispersion (mu, phi) parameterization
 * (Stan's neg_binomial_2). @pre mu, phi > 0, y >= 0
 */
template <typename TMu, typename TPhi>
promote_t<TMu, TPhi>
neg_binomial_2_lpmf(long y, const TMu& mu, const TPhi& phi)
{
    using T = promote_t<TMu, TPhi>;
    const double ky = static_cast<double>(y);
    return lgamma(ky + T(phi)) - logFactorial(y) - lgamma(T(phi))
        + phi * (log(T(phi)) - log(T(mu) + T(phi)))
        + ky * (log(T(mu)) - log(T(mu) + T(phi)));
}

} // namespace bayes::math
