/**
 * @file
 * Fused vectorized likelihood kernels with analytic adjoints.
 *
 * A kernel records its term in one of two ways, chosen by the tape its
 * tracked arguments are recorded on:
 *
 * - Fused (the default). One pass over the observed data computes the
 *   log density together with the analytic partial derivative for
 *   every parameter, then records a single wide tape node
 *   (ad::Tape::pushWide) carrying one edge per parameter. This is the
 *   optimization Stan's `*_glm_lpdf` vectorized kernels popularized:
 *   the per-observation scalar subgraph (~5-15 nodes each) collapses
 *   into one node, so the tape working set the reverse sweep touches
 *   shrinks by an order of magnitude while the data pass itself is
 *   unchanged.
 * - Per observation (ad::Tape::setPerObservation). The kernel records
 *   the scalar loop a Stan model would: one math/distributions.hpp
 *   term per observation, summed from the first term on, so
 *   `lp += kernel(...)` adds exactly the nodes a loop of `lp += term`
 *   adds. This is the reference tape the paper characterizes
 *   (archsim::TapeKind::Reference). The fused-only kernels record a
 *   wide node in either mode; each one's comment names the densities
 *   that branch to their own loop before calling them (disease,
 *   survival, memory, racial).
 *
 * The GLM kernels take a row-major n×K design matrix and, optionally,
 * a varying intercept: a per-row group index into a span of intercepts
 * (`group`, `alphas`; an empty group gives every row alphas[0]), so a
 * hierarchical model's per-group effect is one call, not a gather loop.
 * Data-only constants (log y!, log C(n, y)) read math::logFactorial's
 * table.
 *
 * Every kernel is templated so each parameter can independently be a
 * plain double (fixed hyperparameter) or an ad::Var; the all-double
 * instantiation skips the adjoint bookkeeping entirely and returns the
 * plain value, keeping the value-only path (MH, slice, ADVI) fast.
 *
 * The GLM kernels accumulate the same per-observation expressions in
 * the same order as the scalar loops; the sufficient-statistic kernels
 * use algebraically equal closed forms. Either way the two modes' log
 * densities agree to ~1e-13 relative (not bitwise), and gradients
 * likewise (the per-observation tape accumulates adjoints in
 * reverse-sweep order, the fused kernels in forward data order).
 * tests/test_vec_kernels.cpp pins both properties.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "math/distributions.hpp"

namespace bayes::math {

namespace detail {

/**
 * Collects {parent, weight} edges for one fused term and emits the wide
 * node. Parameters that are plain doubles or untracked constants
 * contribute no edge; if no parameter is tracked the result collapses
 * to a constant (no tape traffic at all).
 */
class WideTerm
{
  public:
    void reserve(std::size_t n)
    {
        parents_.reserve(n);
        weights_.reserve(n);
    }

    void
    edge(const ad::Var& v, double weight)
    {
        if (!v.tracked())
            return;
        tape_ = v.tape();
        parents_.push_back(v.id());
        weights_.push_back(weight);
    }

    void edge(double, double) {}

    ad::Var
    emit(double value, ad::OpClass cls = ad::OpClass::Special) const
    {
        if (!tape_)
            return ad::Var(value);
        return ad::Var(tape_, value,
                       tape_->pushWide(parents_, weights_, cls));
    }

  private:
    std::vector<ad::NodeId> parents_;
    std::vector<double> weights_;
    ad::Tape* tape_ = nullptr;
};

/** Tape a tracked argument is recorded on, or nullptr. */
inline const ad::Tape*
tapeOf(double)
{
    return nullptr;
}

inline const ad::Tape*
tapeOf(const ad::Var& v)
{
    return v.tracked() ? v.tape() : nullptr;
}

/** Tape of the first tracked element of a parameter span, or nullptr. */
template <typename T>
const ad::Tape*
tapeOf(std::span<const T> vs)
{
    if constexpr (std::is_same_v<T, ad::Var>) {
        for (const ad::Var& v : vs)
            if (v.tracked())
                return v.tape();
    }
    return nullptr;
}

/**
 * True when the first tracked parameter argument is recorded on a tape
 * in per-observation mode (ad::Tape::setPerObservation). A parameter
 * span's first element is tracked on every gradient path, so the check
 * is one lookup.
 */
template <typename... Params>
bool
perObservation(const Params&... params)
{
    const ad::Tape* tape = nullptr;
    (void)((tape = tapeOf(params)) || ...);
    return tape && tape->perObservation();
}

/**
 * The scalar loop term(0) + term(1) + ... a per-observation kernel
 * records. The sum starts from the first term, so each further
 * observation adds the one AddSub node of a loop's `lp += term`; an
 * empty loop sums to constant zero.
 */
template <typename Term>
ad::Var
perObservationSum(std::size_t n, Term term)
{
    if (n == 0)
        return ad::Var(0.0);
    ad::Var sum = term(0);
    for (std::size_t i = 1; i < n; ++i)
        sum += term(i);
    return sum;
}

/** Values of a (double or Var) parameter span, for the fused data pass. */
template <typename T>
inline std::vector<double>
values(std::span<const T> xs)
{
    std::vector<double> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
        out[i] = valueOf(xs[i]);
    return out;
}

/** Row @p i's intercept index: group[i], or 0 when @p group is empty. */
inline std::size_t
groupOf(std::span<const int> group, std::size_t i)
{
    return group.empty() ? 0 : static_cast<std::size_t>(group[i]);
}

/**
 * Adds a GLM's edges to its wide node: one per intercept, then one per
 * coefficient, read from a partials buffer laid out ∂α then ∂β.
 */
template <typename TAlpha, typename TBeta>
void
glmEdges(WideTerm& t, std::span<const TAlpha> alphas,
         std::span<const TBeta> betas, const std::vector<double>& partials)
{
    t.reserve(alphas.size() + betas.size() + 1);
    for (std::size_t g = 0; g < alphas.size(); ++g)
        t.edge(alphas[g], partials[g]);
    for (std::size_t k = 0; k < betas.size(); ++k)
        t.edge(betas[k], partials[alphas.size() + k]);
}

} // namespace detail

// ---------------------------------------------------------------------
// Normal family
// ---------------------------------------------------------------------

/**
 * Sum of Normal(mu, sigma) log densities over a data vector, fused via
 * the (shifted) sufficient statistics n, Σ(y-μ), Σ(y-μ)². Fused in
 * either mode: densities reach it only on their value-only path (a
 * double parameter block is a data span), and no density's gradient
 * path calls it.
 */
template <typename TMu, typename TSigma>
promote_t<TMu, TSigma>
normal_lpdf_vec(std::span<const double> ys, const TMu& mu,
                const TSigma& sigma)
{
    using R = promote_t<TMu, TSigma>;
    const double muV = valueOf(mu);
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    double s1 = 0.0, s2 = 0.0;
    for (double y : ys) {
        const double d = y - muV;
        s1 += d;
        s2 += d * d;
    }
    const double value = -0.5 * s2 * inv * inv
        - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(mu, s1 * inv * inv);
        t.edge(sigma, s2 * inv * inv * inv - n * inv);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of Normal(mu, sigma) log densities over a *parameter* vector
 * (e.g. a hierarchical prior over group effects): one wide node with an
 * edge per element plus the location/scale edges, or per observation
 * one normal_lpdf term per element.
 */
template <typename TMu, typename TSigma>
ad::Var
normal_lpdf_vec(std::span<const ad::Var> ys, const TMu& mu,
                const TSigma& sigma)
{
    if (detail::perObservation(ys, mu, sigma))
        return detail::perObservationSum(ys.size(), [&](std::size_t i) {
            return normal_lpdf(ys[i], mu, sigma);
        });
    const double muV = valueOf(mu);
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    t.reserve(ys.size() + 2);
    double s1 = 0.0, s2 = 0.0;
    for (const ad::Var& y : ys) {
        const double d = y.value() - muV;
        s1 += d;
        s2 += d * d;
        t.edge(y, -d * inv * inv);
    }
    const double value = -0.5 * s2 * inv * inv
        - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    t.edge(mu, s1 * inv * inv);
    t.edge(sigma, s2 * inv * inv * inv - n * inv);
    return t.emit(value);
}

/**
 * Sum of Normal(mu_i, sigma) log densities with a per-observation
 * location parameter (e.g. data around a latent function), one shared
 * scale; per observation, one normal_lpdf term per element.
 */
template <typename TMu, typename TSigma>
promote_t<TMu, TSigma>
normal_lpdf_vec(std::span<const double> ys, std::span<const TMu> mus,
                const TSigma& sigma)
{
    using R = promote_t<TMu, TSigma>;
    BAYES_ASSERT(ys.size() == mus.size());
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(mus, sigma))
            return detail::perObservationSum(ys.size(), [&](std::size_t i) {
                return normal_lpdf(ys[i], mus[i], sigma);
            });
    }
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>)
        t.reserve(mus.size() + 1);
    double ssz = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        const double z = (ys[i] - valueOf(mus[i])) * inv;
        ssz += z * z;
        if constexpr (std::is_same_v<R, ad::Var>)
            t.edge(mus[i], z * inv);
    }
    const double value =
        -0.5 * ssz - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    if constexpr (std::is_same_v<R, ad::Var>) {
        t.edge(sigma, ssz * inv - n * inv);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of standard normal log densities over a parameter vector; per
 * observation, one std_normal_lpdf term per element.
 */
inline ad::Var
std_normal_lpdf_vec(std::span<const ad::Var> zs)
{
    if (detail::perObservation(zs))
        return detail::perObservationSum(zs.size(), [&](std::size_t i) {
            return std_normal_lpdf(zs[i]);
        });
    detail::WideTerm t;
    t.reserve(zs.size());
    double ss = 0.0;
    for (const ad::Var& z : zs) {
        ss += z.value() * z.value();
        t.edge(z, -z.value());
    }
    const double value =
        -0.5 * ss - static_cast<double>(zs.size()) * kLogSqrtTwoPi;
    return t.emit(value);
}

/** Value-only twin of std_normal_lpdf_vec for the double path. */
inline double
std_normal_lpdf_vec(std::span<const double> zs)
{
    double ss = 0.0;
    for (double z : zs)
        ss += z * z;
    return -0.5 * ss - static_cast<double>(zs.size()) * kLogSqrtTwoPi;
}

// ---------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------

/**
 * Sum of Exponential(rate) log densities over a parameter vector; per
 * observation, one exponential_lpdf term per element.
 */
template <typename TRate>
ad::Var
exponential_lpdf_vec(std::span<const ad::Var> ys, const TRate& rate)
{
    if (detail::perObservation(ys, rate))
        return detail::perObservationSum(ys.size(), [&](std::size_t i) {
            return exponential_lpdf(ys[i], rate);
        });
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    detail::WideTerm t;
    t.reserve(ys.size() + 1);
    double sy = 0.0;
    for (const ad::Var& y : ys) {
        sy += y.value();
        t.edge(y, -rateV);
    }
    const double value = n * std::log(rateV) - rateV * sy;
    t.edge(rate, n / rateV - sy);
    return t.emit(value);
}

/**
 * Sum of Exponential(rate) log densities over a data vector. Fused in
 * either mode: disease's value-only path calls it (a double parameter
 * block is a data span), and no gradient path does.
 */
template <typename TRate>
promote_t<TRate>
exponential_lpdf_vec(std::span<const double> ys, const TRate& rate)
{
    using R = promote_t<TRate>;
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    double sy = 0.0;
    for (double y : ys)
        sy += y;
    const double value = n * std::log(rateV) - rateV * sy;
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.edge(rate, n / rateV - sy);
        return t.emit(value);
    } else {
        return value;
    }
}

// ---------------------------------------------------------------------
// GLM kernels: value + all partials in one pass over the design matrix
// ---------------------------------------------------------------------

/**
 * Bernoulli-logit GLM with optional varying intercepts: sum of
 * bernoulli_logit_lpmf(y_i, alpha_{g_i} + x_i·β) over rows of the
 * row-major n×K design matrix @p x.
 * @param group  per-row intercept index; empty means alphas[0] for all
 * Residuals r_i = y_i - invLogit(eta_i) give ∂α_g = Σ_{i: g_i=g} r_i
 * and ∂β_k = Σ r_i x_ik. Per observation, each row records its linear
 * predictor and one bernoulli_logit_lpmf term. memory's density calls
 * the grouped form on its fused path only, branching to its own loop
 * on the reference tape.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys, std::span<const double> x,
                         std::span<const int> group,
                         std::span<const TAlpha> alphas,
                         std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(alphas, betas))
            return detail::perObservationSum(n, [&](std::size_t i) {
                const double* row = x.data() + i * numK;
                R eta = alphas[detail::groupOf(group, i)];
                for (std::size_t k = 0; k < numK; ++k)
                    eta += betas[k] * row[k];
                return bernoulli_logit_lpmf(ys[i], eta);
            });
    }
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> partials;
    if constexpr (std::is_same_v<R, ad::Var>)
        partials.assign(alphas.size() + numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = detail::groupOf(group, i);
        const double* row = x.data() + i * numK;
        double eta = valueOf(alphas[g]);
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        value += ys[i] ? -log1pExp(-eta) : -log1pExp(eta);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = static_cast<double>(ys[i]) - invLogit(eta);
            partials[g] += r;
            double* dBeta = partials.data() + alphas.size();
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        detail::glmEdges(t, alphas, betas, partials);
        return t.emit(value);
    } else {
        return value;
    }
}

/** bernoulli_logit_glm_lpmf with one intercept @p alpha for every row. */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys, std::span<const double> x,
                         const TAlpha& alpha, std::span<const TBeta> betas)
{
    return bernoulli_logit_glm_lpmf(ys, x, std::span<const int>(),
                                    std::span<const TAlpha>(&alpha, 1),
                                    betas);
}

/**
 * Poisson log-link GLM with optional varying intercepts and a data
 * offset: sum of poisson_log_lpmf(y_i, alpha_{g_i} + x_i·β + o_i).
 * @param group   per-row intercept index; empty means alphas[0] for all
 * @param offset  per-row additive data offset (e.g. log exposure); may
 *                be empty
 * Residuals r_i = y_i - exp(eta_i) give ∂α_g = Σ_{i: g_i=g} r_i and
 * ∂β_k = Σ r_i x_ik. Per observation, each row records its linear
 * predictor and one poisson_log_lpmf term.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
poisson_log_glm_lpmf(std::span<const long> ys, std::span<const double> x,
                     std::span<const int> group,
                     std::span<const double> offset,
                     std::span<const TAlpha> alphas,
                     std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(offset.empty() || offset.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(alphas, betas))
            return detail::perObservationSum(n, [&](std::size_t i) {
                const double* row = x.data() + i * numK;
                R eta = alphas[detail::groupOf(group, i)];
                for (std::size_t k = 0; k < numK; ++k)
                    eta += betas[k] * row[k];
                if (!offset.empty())
                    eta += offset[i];
                return poisson_log_lpmf(ys[i], eta);
            });
    }
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> partials;
    if constexpr (std::is_same_v<R, ad::Var>)
        partials.assign(alphas.size() + numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = detail::groupOf(group, i);
        const double* row = x.data() + i * numK;
        double eta = valueOf(alphas[g]);
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        if (!offset.empty())
            eta += offset[i];
        const double expEta = std::exp(eta);
        const double ky = static_cast<double>(ys[i]);
        value += ky * eta - expEta - logFactorial(ys[i]);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = ky - expEta;
            partials[g] += r;
            double* dBeta = partials.data() + alphas.size();
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        detail::glmEdges(t, alphas, betas, partials);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Normal identity-link GLM with optional varying intercepts: sum of
 * normal_lpdf(y_i, alpha_{g_i} + x_i·β, sigma).
 * @param group  per-row intercept index; empty means alphas[0] for all
 * With z_i = (y_i - mu_i)/sigma: ∂α_g = Σ_{i: g_i=g} z_i/σ, ∂β_k = Σ z_i
 * x_ik/σ, ∂σ = Σ (z_i² - 1)/σ. Fused in either mode: disease's and
 * memory's densities branch to their own per-observation loops before
 * calling it, since each of their loops feeds two likelihood terms per
 * row (one score per visit, one subject's effects per trial).
 */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   std::span<const int> group,
                   std::span<const TAlpha> alphas,
                   std::span<const TBeta> betas, const TSigma& sigma)
{
    using R = promote_t<TAlpha, TBeta, TSigma>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    const double inv = 1.0 / valueOf(sigma);
    const double logSigma = std::log(valueOf(sigma));
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    double dSigma = 0.0;
    std::vector<double> partials;
    if constexpr (std::is_same_v<R, ad::Var>)
        partials.assign(alphas.size() + numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = detail::groupOf(group, i);
        const double* row = x.data() + i * numK;
        double mu = valueOf(alphas[g]);
        for (std::size_t k = 0; k < numK; ++k)
            mu += betaV[k] * row[k];
        const double z = (ys[i] - mu) * inv;
        value += -0.5 * z * z - logSigma - kLogSqrtTwoPi;
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double rs = z * inv;
            partials[g] += rs;
            double* dBeta = partials.data() + alphas.size();
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += rs * row[k];
            dSigma += (z * z - 1.0) * inv;
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        detail::glmEdges(t, alphas, betas, partials);
        t.edge(sigma, dSigma);
        return t.emit(value);
    } else {
        return value;
    }
}

/** normal_id_glm_lpdf with one intercept @p alpha for every row. */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   const TAlpha& alpha, std::span<const TBeta> betas,
                   const TSigma& sigma)
{
    return normal_id_glm_lpdf(ys, x, std::span<const int>(),
                              std::span<const TAlpha>(&alpha, 1), betas,
                              sigma);
}

/**
 * Binomial-logit GLM with optional varying intercepts: sum of
 * binomial_logit_lpmf(y_i, n_i, alpha_{g_i} + x_i·β). Each row's
 * constant lchoose(n_i, y_i) reads logFactorial's table.
 * @param group  per-row intercept index; empty means alphas[0] for all
 * Residuals r_i = y_i - n_i·invLogit(eta_i) give ∂α_g = Σ_{i: g_i=g}
 * r_i and ∂β_k = Σ r_i x_ik. Fused in either mode: racial's density
 * branches to its own per-observation loop before calling it, since
 * that loop interleaves the search and hit terms cell by cell.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
binomial_logit_glm_lpmf(std::span<const long> ys, std::span<const long> ns,
                        std::span<const double> x,
                        std::span<const int> group,
                        std::span<const TAlpha> alphas,
                        std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(ns.size() == n);
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> partials;
    if constexpr (std::is_same_v<R, ad::Var>)
        partials.assign(alphas.size() + numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = detail::groupOf(group, i);
        const double* row = x.data() + i * numK;
        double eta = valueOf(alphas[g]);
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        const double ky = static_cast<double>(ys[i]);
        const double ny = static_cast<double>(ns[i]);
        value += lchoose(ns[i], ys[i]) - ky * log1pExp(-eta)
            - (ny - ky) * log1pExp(eta);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = ky - ny * invLogit(eta);
            partials[g] += r;
            double* dBeta = partials.data() + alphas.size();
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        detail::glmEdges(t, alphas, betas, partials);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Bernoulli-logit GLM on an affinely rescaled score: sum of
 * bernoulli_logit_lpmf(y_i, scale * (x_i·w - shift)). With residuals
 * r_i as above: ∂w_k = Σ r_i·scale·x_ik, ∂scale = Σ r_i (x_i·w -
 * shift), ∂shift = -scale Σ r_i. Fused in either mode: disease's
 * density branches to its own per-observation loop before calling it.
 */
template <typename TW, typename TScale, typename TShift>
promote_t<TW, TScale, TShift>
bernoulli_logit_scaled_glm_lpmf(std::span<const int> ys,
                                std::span<const double> x,
                                std::span<const TW> ws,
                                const TScale& scale, const TShift& shift)
{
    using R = promote_t<TW, TScale, TShift>;
    const std::size_t n = ys.size();
    const std::size_t numK = ws.size();
    BAYES_ASSERT(x.size() == n * numK);
    const double scaleV = valueOf(scale);
    const double shiftV = valueOf(shift);
    const std::vector<double> wV = detail::values(ws);
    double value = 0.0;
    double dScale = 0.0, dShift = 0.0;
    std::vector<double> dW;
    if constexpr (std::is_same_v<R, ad::Var>)
        dW.assign(numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = x.data() + i * numK;
        double score = 0.0;
        for (std::size_t k = 0; k < numK; ++k)
            score += wV[k] * row[k];
        const double eta = scaleV * (score - shiftV);
        value += ys[i] ? -log1pExp(-eta) : -log1pExp(eta);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = static_cast<double>(ys[i]) - invLogit(eta);
            for (std::size_t k = 0; k < numK; ++k)
                dW[k] += r * scaleV * row[k];
            dScale += r * (score - shiftV);
            dShift -= r * scaleV;
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(numK + 2);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(ws[k], dW[k]);
        t.edge(scale, dScale);
        t.edge(shift, dShift);
        return t.emit(value);
    } else {
        return value;
    }
}

// ---------------------------------------------------------------------
// Weighted sums
// ---------------------------------------------------------------------

/**
 * Weighted sum Σ w_i v_i of tracked scalars with data weights as one
 * wide node (∂v_i = w_i). Collapses repeated likelihood contributions
 * (e.g. the capture-history terms of the survival model, where w_i
 * counts how many individuals share term v_i). Fused in either mode:
 * survival's density branches to its per-individual loop before
 * calling it.
 */
inline ad::Var
dot_vec(std::span<const ad::Var> vs, std::span<const double> ws)
{
    BAYES_ASSERT(vs.size() == ws.size());
    detail::WideTerm t;
    t.reserve(vs.size());
    double value = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        value += ws[i] * vs[i].value();
        t.edge(vs[i], ws[i]);
    }
    return t.emit(value, ad::OpClass::Mul);
}

/** Value-only twin of dot_vec for the double path. */
inline double
dot_vec(std::span<const double> vs, std::span<const double> ws)
{
    BAYES_ASSERT(vs.size() == ws.size());
    double value = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i)
        value += ws[i] * vs[i];
    return value;
}

} // namespace bayes::math
