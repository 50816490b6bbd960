/**
 * @file
 * Fused vectorized likelihood kernels with analytic adjoints.
 *
 * Each kernel makes one pass over the observed data computing the log
 * density together with the analytic partial derivative for every
 * parameter, then records a single wide tape node (ad::Tape::pushWide)
 * carrying one edge per parameter. This is the optimization Stan's
 * `*_glm_lpdf` vectorized kernels popularized: the per-observation
 * scalar subgraph (~5-15 nodes each) collapses into one node, so the
 * tape working set the reverse sweep touches shrinks by an order of
 * magnitude while the data pass itself is unchanged.
 *
 * Every kernel is templated so each parameter can independently be a
 * plain double (fixed hyperparameter) or an ad::Var; the all-double
 * instantiation skips the adjoint bookkeeping entirely and returns the
 * plain value, keeping the value-only path (MH, slice, ADVI) fast.
 *
 * The GLM kernels accumulate the same per-observation expressions in
 * the same order as the scalar loops; the sufficient-statistic kernels
 * use algebraically equal closed forms. Either way fused and scalar
 * log densities agree to ~1e-13 relative (not bitwise), and gradients
 * likewise (the scalar tape accumulates adjoints in reverse-sweep
 * order, the kernels in forward data order).
 * tests/test_vec_kernels.cpp pins both properties.
 */
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "math/functions.hpp"

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

} // namespace detail

// ---------------------------------------------------------------------
// Normal family
// ---------------------------------------------------------------------

/**
 * Sum of Normal(mu, sigma) log densities over a data vector, fused via
 * the (shifted) sufficient statistics n, Σ(y-μ), Σ(y-μ)².
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
 * edge per element plus the location/scale edges.
 */
template <typename TMu, typename TSigma>
ad::Var
normal_lpdf_vec(std::span<const ad::Var> ys, const TMu& mu,
                const TSigma& sigma)
{
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
 * scale.
 */
template <typename TMu, typename TSigma>
promote_t<TMu, TSigma>
normal_lpdf_vec(std::span<const double> ys, std::span<const TMu> mus,
                const TSigma& sigma)
{
    using R = promote_t<TMu, TSigma>;
    BAYES_ASSERT(ys.size() == mus.size());
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

/** Sum of standard normal log densities over a parameter vector. */
inline ad::Var
std_normal_lpdf_vec(std::span<const ad::Var> zs)
{
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
// Exponential / Gamma / Negative binomial
// ---------------------------------------------------------------------

/** Sum of Exponential(rate) log densities over a parameter vector. */
template <typename TRate>
ad::Var
exponential_lpdf_vec(std::span<const ad::Var> ys, const TRate& rate)
{
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

/** Sum of Exponential(rate) log densities over a data vector. */
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

/**
 * Sum of Gamma(shape, rate) log densities over a data vector, fused via
 * the sufficient statistics n, Σlog y, Σy.
 */
template <typename TShape, typename TRate>
promote_t<TShape, TRate>
gamma_lpdf_vec(std::span<const double> ys, const TShape& shape,
               const TRate& rate)
{
    using R = promote_t<TShape, TRate>;
    const double shapeV = valueOf(shape);
    const double rateV = valueOf(rate);
    const double n = static_cast<double>(ys.size());
    double slog = 0.0, sy = 0.0;
    for (double y : ys) {
        slog += std::log(y);
        sy += y;
    }
    const double value = n * (shapeV * std::log(rateV) - lgammaSafe(shapeV))
        + (shapeV - 1.0) * slog - rateV * sy;
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(shape, n * (std::log(rateV) - digamma(shapeV)) + slog);
        t.edge(rate, n * shapeV / rateV - sy);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Sum of neg_binomial_2(mu, phi) log masses over a count vector
 * (mean/overdispersion parameterization).
 */
template <typename TMu, typename TPhi>
promote_t<TMu, TPhi>
neg_binomial_2_lpmf_vec(std::span<const long> ys, const TMu& mu,
                        const TPhi& phi)
{
    using R = promote_t<TMu, TPhi>;
    const double muV = valueOf(mu);
    const double phiV = valueOf(phi);
    const double logMu = std::log(muV);
    const double logPhi = std::log(phiV);
    const double logMuPhi = std::log(muV + phiV);
    const double lgPhi = lgammaSafe(phiV);
    const double digPhi = digamma(phiV);
    double value = 0.0, dMu = 0.0, dPhi = 0.0;
    for (long y : ys) {
        const double ky = static_cast<double>(y);
        value += lgammaSafe(ky + phiV) - lgammaSafe(ky + 1.0) - lgPhi
            + phiV * (logPhi - logMuPhi) + ky * (logMu - logMuPhi);
        if constexpr (std::is_same_v<R, ad::Var>) {
            dMu += ky / muV - (ky + phiV) / (muV + phiV);
            dPhi += digamma(ky + phiV) - digPhi + logPhi - logMuPhi + 1.0
                - (ky + phiV) / (muV + phiV);
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(2);
        t.edge(mu, dMu);
        t.edge(phi, dPhi);
        return t.emit(value);
    } else {
        return value;
    }
}

// ---------------------------------------------------------------------
// GLM kernels: value + all partials in one pass over the design matrix
// ---------------------------------------------------------------------

/**
 * Bernoulli-logit GLM: sum of bernoulli_logit_lpmf(y_i, alpha + x_i·β)
 * over rows of the row-major n×K design matrix @p x. Residuals
 * r_i = y_i - invLogit(eta_i) give ∂α = Σ r_i and ∂β_k = Σ r_i x_ik.
 */
template <typename TAlpha, typename TBeta>
promote_t<TAlpha, TBeta>
bernoulli_logit_glm_lpmf(std::span<const int> ys,
                         std::span<const double> x, const TAlpha& alpha,
                         std::span<const TBeta> betas)
{
    using R = promote_t<TAlpha, TBeta>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    const double alphaV = valueOf(alpha);
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    double dAlpha = 0.0;
    std::vector<double> dBeta;
    if constexpr (std::is_same_v<R, ad::Var>)
        dBeta.assign(numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = x.data() + i * numK;
        double eta = alphaV;
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        value += ys[i] ? -log1pExp(-eta) : -log1pExp(eta);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = static_cast<double>(ys[i]) - invLogit(eta);
            dAlpha += r;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(numK + 1);
        t.edge(alpha, dAlpha);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Poisson log-link GLM with optional varying intercepts and a data
 * offset: sum of poisson_log_lpmf(y_i, alpha_{g_i} + x_i·β + o_i).
 * @param group   per-row intercept index; empty means alphas[0] for all
 * @param offset  per-row additive data offset (e.g. log exposure); may
 *                be empty
 * Residuals r_i = y_i - exp(eta_i) give ∂α_g = Σ_{i: g_i=g} r_i and
 * ∂β_k = Σ r_i x_ik.
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
    const std::vector<double> alphaV = detail::values(alphas);
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    std::vector<double> dAlpha, dBeta;
    if constexpr (std::is_same_v<R, ad::Var>) {
        dAlpha.assign(alphas.size(), 0.0);
        dBeta.assign(numK, 0.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t g =
            group.empty() ? 0 : static_cast<std::size_t>(group[i]);
        const double* row = x.data() + i * numK;
        double eta = alphaV[g];
        for (std::size_t k = 0; k < numK; ++k)
            eta += betaV[k] * row[k];
        if (!offset.empty())
            eta += offset[i];
        const double expEta = std::exp(eta);
        const double ky = static_cast<double>(ys[i]);
        value += ky * eta - expEta - lgammaSafe(ky + 1.0);
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double r = ky - expEta;
            dAlpha[g] += r;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += r * row[k];
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(alphas.size() + numK);
        for (std::size_t g = 0; g < alphas.size(); ++g)
            t.edge(alphas[g], dAlpha[g]);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Normal identity-link GLM: sum of normal_lpdf(y_i, alpha + x_i·β,
 * sigma). With z_i = (y_i - mu_i)/sigma: ∂α = Σ z_i/σ, ∂β_k = Σ z_i
 * x_ik/σ, ∂σ = Σ (z_i² - 1)/σ.
 */
template <typename TAlpha, typename TBeta, typename TSigma>
promote_t<TAlpha, TBeta, TSigma>
normal_id_glm_lpdf(std::span<const double> ys, std::span<const double> x,
                   const TAlpha& alpha, std::span<const TBeta> betas,
                   const TSigma& sigma)
{
    using R = promote_t<TAlpha, TBeta, TSigma>;
    const std::size_t n = ys.size();
    const std::size_t numK = betas.size();
    BAYES_ASSERT(x.size() == n * numK);
    const double alphaV = valueOf(alpha);
    const double inv = 1.0 / valueOf(sigma);
    const double logSigma = std::log(valueOf(sigma));
    const std::vector<double> betaV = detail::values(betas);
    double value = 0.0;
    double dAlpha = 0.0, dSigma = 0.0;
    std::vector<double> dBeta;
    if constexpr (std::is_same_v<R, ad::Var>)
        dBeta.assign(numK, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double* row = x.data() + i * numK;
        double mu = alphaV;
        for (std::size_t k = 0; k < numK; ++k)
            mu += betaV[k] * row[k];
        const double z = (ys[i] - mu) * inv;
        value += -0.5 * z * z - logSigma - kLogSqrtTwoPi;
        if constexpr (std::is_same_v<R, ad::Var>) {
            const double rs = z * inv;
            dAlpha += rs;
            for (std::size_t k = 0; k < numK; ++k)
                dBeta[k] += rs * row[k];
            dSigma += (z * z - 1.0) * inv;
        }
    }
    if constexpr (std::is_same_v<R, ad::Var>) {
        detail::WideTerm t;
        t.reserve(numK + 2);
        t.edge(alpha, dAlpha);
        for (std::size_t k = 0; k < numK; ++k)
            t.edge(betas[k], dBeta[k]);
        t.edge(sigma, dSigma);
        return t.emit(value);
    } else {
        return value;
    }
}

/**
 * Bernoulli-logit GLM on an affinely rescaled score: sum of
 * bernoulli_logit_lpmf(y_i, scale * (x_i·w - shift)). With residuals
 * r_i as above: ∂w_k = Σ r_i·scale·x_ik, ∂scale = Σ r_i (x_i·w -
 * shift), ∂shift = -scale Σ r_i.
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
 * counts how many individuals share term v_i).
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
