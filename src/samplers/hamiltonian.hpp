/**
 * @file
 * Shared Hamiltonian-dynamics machinery for HMC and NUTS: phase-space
 * points, the diagonal Euclidean metric, momentum refresh, and the
 * leapfrog integrator. Conventions follow Stan: the inverse metric is
 * an estimate of the posterior variance, momenta are drawn from
 * N(0, M) with M = diag(1 / invMetric).
 */
#pragma once

#include <cmath>
#include <vector>

#include "ppl/evaluator.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace bayes::samplers {

/** Position, momentum, gradient, and cached log density. */
struct PhasePoint
{
    std::vector<double> q;
    std::vector<double> p;
    std::vector<double> grad;
    double logProb = 0.0;
};

/** Hamiltonian with a diagonal Euclidean metric over an Evaluator. */
class Hamiltonian
{
  public:
    explicit Hamiltonian(ppl::Evaluator& eval)
        : eval_(&eval), invMetric_(eval.dim(), 1.0)
    {
    }

    /** Unconstrained dimensionality. */
    std::size_t dim() const { return eval_->dim(); }

    /** Underlying evaluator. */
    ppl::Evaluator& evaluator() { return *eval_; }

    /** Replace the inverse metric (posterior variance estimate). */
    void
    setInvMetric(std::vector<double> invMetric)
    {
        BAYES_CHECK(invMetric.size() == dim(), "metric dimension mismatch");
        for (double& e : invMetric) {
            BAYES_CHECK(std::isfinite(e), "metric entries must be finite");
            e = std::max(e, 1e-10);
        }
        invMetric_ = std::move(invMetric);
    }

    /** Current inverse metric. */
    const std::vector<double>& invMetric() const { return invMetric_; }

    /** Initialize logProb and grad of @p z at its current position. */
    void
    refresh(PhasePoint& z)
    {
        z.logProb = eval_->logProbGrad(z.q, z.grad);
    }

    /** Draw a fresh momentum p ~ N(0, M). */
    void
    sampleMomentum(Rng& rng, PhasePoint& z)
    {
        z.p.resize(dim());
        for (std::size_t i = 0; i < dim(); ++i)
            z.p[i] = rng.normal() / std::sqrt(invMetric_[i]);
    }

    /** Kinetic energy 0.5 p^T M^{-1} p. */
    double
    kinetic(const PhasePoint& z) const
    {
        double k = 0.0;
        for (std::size_t i = 0; i < dim(); ++i)
            k += invMetric_[i] * z.p[i] * z.p[i];
        return 0.5 * k;
    }

    /** Log joint density of the phase point: logProb - kinetic. */
    double joint(const PhasePoint& z) const { return z.logProb - kinetic(z); }

    /**
     * One leapfrog step of size @p eps (may be negative for backward
     * integration): half momentum kick, position drift, gradient at the
     * new position, half kick. Updates q, p, grad, and logProb in place.
     */
    void
    leapfrog(PhasePoint& z, double eps)
    {
        const std::size_t n = dim();
        for (std::size_t i = 0; i < n; ++i)
            z.p[i] += 0.5 * eps * z.grad[i];
        for (std::size_t i = 0; i < n; ++i)
            z.q[i] += eps * invMetric_[i] * z.p[i];
        z.logProb = eval_->logProbGrad(z.q, z.grad);
        for (std::size_t i = 0; i < n; ++i)
            z.p[i] += 0.5 * eps * z.grad[i];
    }

    /**
     * Heuristic initial step size: start at 1 and halve/double until
     * one leapfrog step changes the joint density by about log(2)
     * (Hoffman & Gelman Algorithm 4).
     */
    double findReasonableStepSize(const PhasePoint& start, Rng& rng);

  private:
    ppl::Evaluator* eval_;
    std::vector<double> invMetric_;
};

inline double
Hamiltonian::findReasonableStepSize(const PhasePoint& start, Rng& rng)
{
    double eps = 1.0;
    PhasePoint z = start;
    sampleMomentum(rng, z);
    const double joint0 = joint(z);

    PhasePoint trial = z;
    leapfrog(trial, eps);
    double delta = joint(trial) - joint0;
    if (!std::isfinite(delta))
        delta = -1e10;
    const double dir = delta > std::log(0.5) ? 1.0 : -1.0;
    for (int step = 0; step < 50; ++step) {
        trial = z;
        leapfrog(trial, eps);
        delta = joint(trial) - joint0;
        if (!std::isfinite(delta))
            delta = -1e10;
        if (dir > 0 && delta <= std::log(0.5))
            break;
        if (dir < 0 && delta >= std::log(0.5))
            break;
        eps *= dir > 0 ? 2.0 : 0.5;
        if (eps > 1e7 || eps < 1e-10)
            break;
    }
    return eps;
}

} // namespace bayes::samplers
