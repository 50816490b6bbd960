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
 *   (archsim::TapeKind::Reference). The two fused-only kernels,
 *   bernoulli_logit_scaled_glm_lpmf and dot_vec, record a wide node in
 *   either mode; the densities that call them (disease, survival)
 *   branch to their own loop first.
 *
 * The four GLM kernels share one data pass, detail::glm, over a
 * row-major n×K design matrix and, optionally, a varying intercept: a
 * per-row group index into a span of intercepts (`group`, `alphas`; an
 * empty group gives every row alphas[0]), so a hierarchical model's
 * per-group effect is one call, not a gather loop. Each kernel supplies
 * only its row (the log density at the linear predictor and its
 * residual) and the scalar term the per-observation tape records.
 * Data-only constants (log y!, log C(n, y)) read math::logFactorial's
 * table.
 *
 * Every kernel is one template over plain double and ad::Var
 * arguments, so each parameter can independently be a fixed
 * hyperparameter or tracked; the all-double instantiation skips the
 * adjoint bookkeeping entirely and returns the plain value, keeping the
 * value-only path (MH, slice, ADVI) fast.
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

    /** The term as an @p R: the plain value on the all-double path. */
    template <typename R>
    R
    emit(double value, ad::OpClass cls = ad::OpClass::Special) const
    {
        if constexpr (std::is_same_v<R, double>)
            return value;
        else if (!tape_)
            return ad::Var(value);
        else
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
 * The data pass of the four GLM kernels: over rows i < n of the
 * row-major n×K design @p x, η_i = α_{g_i} + x_i·β. A kernel supplies
 * - row(i, η_i, sum, std::bool_constant<Grad>): adds row i's log
 *   density to sum and, with Grad, returns its residual ∂/∂η_i;
 * - term(i, η_i): row i's distributions.hpp term on a tracked η_i, the
 *   scalar loop a per-observation tape records;
 * - edges(t): any edge after the intercepts' and coefficients' (σ).
 * Fused, the residuals r_i give ∂α_g = Σ_{i: g_i=g} r_i and ∂β_k =
 * Σ r_i x_ik. The per-observation tape is found through α and β.
 */
template <typename R, typename TAlpha, typename TBeta, typename Row,
          typename Term, typename Edges>
R
glm(std::size_t n, std::span<const double> x, std::span<const int> group,
    std::span<const TAlpha> alphas, std::span<const TBeta> betas, Row row,
    Term term, Edges edges)
{
    constexpr bool grad = std::is_same_v<R, ad::Var>;
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    BAYES_ASSERT(group.empty() || group.size() >= n);
    BAYES_ASSERT(!alphas.empty());
    if constexpr (grad) {
        if (perObservation(alphas, betas))
            return perObservationSum(n, [&](std::size_t i) {
                const double* xi = x.data() + i * numK;
                R eta = alphas[groupOf(group, i)];
                for (std::size_t k = 0; k < numK; ++k)
                    eta += betas[k] * xi[k];
                return term(i, eta);
            });
    }
    const std::vector<double> betaV = values(betas);
    double value = 0.0;
    std::vector<double> partials;
    if constexpr (grad)
        partials.assign(alphas.size() + numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g = groupOf(group, i);
        const double* xi = x.data() + i * numK;
        double eta = valueOf(alphas[g]);
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * xi[k];
        if constexpr (grad) {
            const double r = row(i, eta, value, std::true_type{});
            partials[g] += r;
            double* dBeta = partials.data() + alphas.size();
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * xi[k];
        } else {
            row(i, eta, value, std::false_type{});
        }
    }
    WideTerm t;
    if constexpr (grad) {
        t.reserve(alphas.size() + numK + 1);
        for (std::size_t g = 0; g < alphas.size(); ++g)
            t.edge(alphas[g], partials[g]);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], partials[alphas.size() + k]);
        edges(t);
    }
    return t.emit<R>(value);
}

/** No edge past a GLM's intercepts and coefficients. */
inline void
noEdges(WideTerm&)
{
}

} // namespace detail

// ---------------------------------------------------------------------
// Normal family
// ---------------------------------------------------------------------

/**
 * Sum of Normal(mu, sigma) log densities over a vector: data (its sum
 * fused via the shifted sufficient statistics n, Σ(y-μ), Σ(y-μ)²) or
 * parameters (e.g. a hierarchical prior over group effects, with an
 * edge per element). Per observation, one normal_lpdf term per element.
 */
template <typename TY, typename TMu, typename TSigma>
promote_t<TY, TMu, TSigma>
normal_lpdf_vec(std::span<const TY> ys, const TMu& mu, const TSigma& sigma)
{
    using R = promote_t<TY, TMu, TSigma>;
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(ys, mu, sigma))
            return detail::perObservationSum(ys.size(), [&](std::size_t i) {
                return normal_lpdf(ys[i], mu, sigma);
            });
        t.reserve((std::is_same_v<TY, ad::Var> ? ys.size() : 0) + 2);
    }
    const double muV = valueOf(mu);
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    double s1 = 0.0, s2 = 0.0;
    for (const TY& y : ys) {
        const double d = valueOf(y) - muV;
        s1 += d;
        s2 += d * d;
        t.edge(y, -d * inv * inv);
    }
    const double value = -0.5 * s2 * inv * inv
        - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    t.edge(mu, s1 * inv * inv);
    t.edge(sigma, s2 * inv * inv * inv - n * inv);
    return t.emit<R>(value);
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
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(mus, sigma))
            return detail::perObservationSum(ys.size(), [&](std::size_t i) {
                return normal_lpdf(ys[i], mus[i], sigma);
            });
        t.reserve(mus.size() + 1);
    }
    const double inv = 1.0 / valueOf(sigma);
    const double n = static_cast<double>(ys.size());
    double ssz = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
        const double z = (ys[i] - valueOf(mus[i])) * inv;
        ssz += z * z;
        t.edge(mus[i], z * inv);
    }
    const double value =
        -0.5 * ssz - n * (std::log(valueOf(sigma)) + kLogSqrtTwoPi);
    t.edge(sigma, ssz * inv - n * inv);
    return t.emit<R>(value);
}

/**
 * Sum of standard normal log densities over a vector; per observation,
 * one std_normal_lpdf term per element.
 */
template <typename T>
T
std_normal_lpdf_vec(std::span<const T> zs)
{
    detail::WideTerm t;
    if constexpr (std::is_same_v<T, ad::Var>) {
        if (detail::perObservation(zs))
            return detail::perObservationSum(zs.size(), [&](std::size_t i) {
                return std_normal_lpdf(zs[i]);
            });
        t.reserve(zs.size());
    }
    double ss = 0.0;
    for (const T& z : zs) {
        ss += valueOf(z) * valueOf(z);
        t.edge(z, -valueOf(z));
    }
    const double value =
        -0.5 * ss - static_cast<double>(zs.size()) * kLogSqrtTwoPi;
    return t.emit<T>(value);
}

// ---------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------

/**
 * Sum of Exponential(rate) log densities over a vector (data or
 * parameters); per observation, one exponential_lpdf term per element.
 */
template <typename TY, typename TRate>
promote_t<TY, TRate>
exponential_lpdf_vec(std::span<const TY> ys, const TRate& rate)
{
    using R = promote_t<TY, TRate>;
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>) {
        if (detail::perObservation(ys, rate))
            return detail::perObservationSum(ys.size(), [&](std::size_t i) {
                return exponential_lpdf(ys[i], rate);
            });
        t.reserve((std::is_same_v<TY, ad::Var> ? ys.size() : 0) + 1);
    }
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    double sy = 0.0;
    for (const TY& y : ys) {
        sy += valueOf(y);
        t.edge(y, -rateV);
    }
    const double value = n * std::log(rateV) - rateV * sy;
    t.edge(rate, n / rateV - sy);
    return t.emit<R>(value);
}

// ---------------------------------------------------------------------
// GLM kernels: value + all partials in one pass over the design matrix
// ---------------------------------------------------------------------

/**
 * Bernoulli-logit GLM with optional varying intercepts: sum of
 * bernoulli_logit_lpmf(y_i, alpha_{g_i} + x_i·β) over rows of the
 * row-major n×K design matrix @p x.
 * @param group  per-row intercept index; empty means alphas[0] for all
 * Residual r_i = y_i - invLogit(eta_i).
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys, std::span<const double> x,
                         std::span<const int> group,
                         std::span<const TAlpha> alphas,
                         std::span<const TBeta> betas)
{
    return detail::glm<promote_t<TAlpha, TBeta>>(
        ys.size(), x, group, alphas, betas,
        [=]<bool Grad>(std::size_t i, double eta, double& sum,
                       std::bool_constant<Grad>) {
            sum += ys[i] ? -log1pExp(-eta) : -log1pExp(eta);
            if constexpr (Grad)
                return static_cast<double>(ys[i]) - invLogit(eta);
        },
        [&](std::size_t i, const auto& eta) {
            return bernoulli_logit_lpmf(ys[i], eta);
        },
        detail::noEdges);
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
 * Residual r_i = y_i - exp(eta_i).
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
poisson_log_glm_lpmf(std::span<const long> ys, std::span<const double> x,
                     std::span<const int> group,
                     std::span<const double> offset,
                     std::span<const TAlpha> alphas,
                     std::span<const TBeta> betas)
{
    BAYES_ASSERT(offset.empty() || offset.size() >= ys.size());
    return detail::glm<promote_t<TAlpha, TBeta>>(
        ys.size(), x, group, alphas, betas,
        [=]<bool Grad>(std::size_t i, double eta, double& sum,
                       std::bool_constant<Grad>) {
            if (!offset.empty())
                eta += offset[i];
            const double expEta = std::exp(eta);
            const double ky = static_cast<double>(ys[i]);
            sum += ky * eta - expEta - logFactorial(ys[i]);
            if constexpr (Grad)
                return ky - expEta;
        },
        [&](std::size_t i, auto eta) {
            if (!offset.empty())
                eta += offset[i];
            return poisson_log_lpmf(ys[i], eta);
        },
        detail::noEdges);
}

/**
 * Normal identity-link GLM with optional varying intercepts: sum of
 * normal_lpdf(y_i, alpha_{g_i} + x_i·β, sigma).
 * @param group  per-row intercept index; empty means alphas[0] for all
 * With z_i = (y_i - mu_i)/sigma: residual z_i/σ, and ∂σ = Σ (z_i² -
 * 1)/σ. disease's and memory's densities branch to their own
 * per-observation loops before calling it, since each of their loops
 * feeds two likelihood terms per row (one score per visit, one
 * subject's effects per trial).
 */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   std::span<const int> group,
                   std::span<const TAlpha> alphas,
                   std::span<const TBeta> betas, const TSigma& sigma)
{
    const double inv = 1.0 / valueOf(sigma);
    const double logSigma = std::log(valueOf(sigma));
    double dSigma = 0.0;
    return detail::glm<promote_t<TAlpha, TBeta, TSigma>>(
        ys.size(), x, group, alphas, betas,
        [=, &dSigma]<bool Grad>(std::size_t i, double mu, double& sum,
                                std::bool_constant<Grad>) {
            const double z = (ys[i] - mu) * inv;
            sum += -0.5 * z * z - logSigma - kLogSqrtTwoPi;
            if constexpr (Grad) {
                dSigma += (z * z - 1.0) * inv;
                return z * inv;
            }
        },
        [&](std::size_t i, const auto& mu) {
            return normal_lpdf(ys[i], mu, sigma);
        },
        [&](detail::WideTerm& t) { t.edge(sigma, dSigma); });
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
 * Residual r_i = y_i - n_i·invLogit(eta_i). racial's density branches
 * to its own per-observation loop before calling it, since that loop
 * interleaves the search and hit terms cell by cell.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
binomial_logit_glm_lpmf(std::span<const long> ys, std::span<const long> ns,
                        std::span<const double> x,
                        std::span<const int> group,
                        std::span<const TAlpha> alphas,
                        std::span<const TBeta> betas)
{
    BAYES_ASSERT(ns.size() == ys.size());
    return detail::glm<promote_t<TAlpha, TBeta>>(
        ys.size(), x, group, alphas, betas,
        [=]<bool Grad>(std::size_t i, double eta, double& sum,
                       std::bool_constant<Grad>) {
            const double ky = static_cast<double>(ys[i]);
            const double ny = static_cast<double>(ns[i]);
            sum += lchoose(ns[i], ys[i]) - ky * log1pExp(-eta)
                - (ny - ky) * log1pExp(eta);
            if constexpr (Grad)
                return ky - ny * invLogit(eta);
        },
        [&](std::size_t i, const auto& eta) {
            return binomial_logit_lpmf(ys[i], ns[i], eta);
        },
        detail::noEdges);
}

/**
 * Bernoulli-logit GLM on an affinely rescaled score: sum of
 * bernoulli_logit_lpmf(y_i, scale * (x_i·w - shift)). With residuals
 * r_i = y_i - invLogit(eta_i): ∂w_k = Σ r_i·scale·x_ik, ∂scale = Σ r_i
 * (x_i·w - shift), ∂shift = -scale Σ r_i. Fused in either mode:
 * disease's density branches to its own per-observation loop before
 * calling it.
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
    detail::WideTerm t;
    if constexpr (std::is_same_v<R, ad::Var>) {
        t.reserve(numK + 2);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(ws[k], dW[k]);
    }
    t.edge(scale, dScale);
    t.edge(shift, dShift);
    return t.emit<R>(value);
}

// ---------------------------------------------------------------------
// Weighted sums
// ---------------------------------------------------------------------

/**
 * Weighted sum Σ w_i v_i of scalars with data weights, as one wide node
 * (∂v_i = w_i) when they are tracked. Collapses repeated likelihood
 * contributions (e.g. the capture-history terms of the survival model,
 * where w_i counts how many individuals share term v_i). Fused in
 * either mode: survival's density branches to its per-individual loop
 * before calling it.
 */
template <typename T>
T
dot_vec(std::span<const T> vs, std::span<const double> ws)
{
    BAYES_ASSERT(vs.size() == ws.size());
    detail::WideTerm t;
    if constexpr (std::is_same_v<T, ad::Var>)
        t.reserve(vs.size());
    double value = 0.0;
    for (std::size_t i = 0; i < vs.size(); ++i) {
        value += ws[i] * valueOf(vs[i]);
        t.edge(vs[i], ws[i]);
    }
    return t.emit<T>(value, ad::OpClass::Mul);
}

} // namespace bayes::math
