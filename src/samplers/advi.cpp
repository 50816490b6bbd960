#include "samplers/advi.hpp"

#include <algorithm>
#include <cmath>

#include "samplers/runner.hpp"

namespace bayes::samplers {
namespace {

/** Adam state for one parameter vector. */
class Adam
{
  public:
    Adam(std::size_t n, double lr) : lr_(lr), m_(n, 0.0), v_(n, 0.0) {}

    void
    step(std::vector<double>& x, const std::vector<double>& grad)
    {
        ++t_;
        const double correct1 = 1.0 - std::pow(kBeta1, t_);
        const double correct2 = 1.0 - std::pow(kBeta2, t_);
        for (std::size_t i = 0; i < x.size(); ++i) {
            m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i];
            v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grad[i] * grad[i];
            const double mHat = m_[i] / correct1;
            const double vHat = v_[i] / correct2;
            x[i] += lr_ * mHat / (std::sqrt(vHat) + kEps);
        }
    }

  private:
    static constexpr double kBeta1 = 0.9;
    static constexpr double kBeta2 = 0.999;
    static constexpr double kEps = 1e-8;

    double lr_;
    long t_ = 0;
    std::vector<double> m_;
    std::vector<double> v_;
};

} // namespace

AdviResult
fitAdvi(const ppl::Model& model, const AdviConfig& config)
{
    BAYES_CHECK(config.maxIterations > 0 && config.gradSamples > 0
                    && config.evalInterval > 0 && config.outputDraws >= 0,
                "ADVI needs positive iteration/sample/interval counts"
                " and a non-negative draw count");
    ppl::Evaluator eval(model);
    const std::size_t n = eval.dim();
    Rng rng(config.seed);

    AdviResult result;
    // Initialize mu at a finite-density point, omega at modest scales.
    result.mu = findInitialPoint(eval, rng);
    result.omega.assign(n, -1.0);

    // MAP warm start: deterministic ascent to the typical set.
    if (config.mapWarmStart > 0) {
        Adam adamMap(n, 2.0 * config.learningRate);
        std::vector<double> mapGrad;
        for (int iter = 0; iter < config.mapWarmStart; ++iter) {
            const double lp = eval.logProbGrad(result.mu, mapGrad);
            ++result.gradEvals;
            if (!std::isfinite(lp))
                break;
            adamMap.step(result.mu, mapGrad);
        }
    }

    Adam adamMu(n, config.learningRate);
    Adam adamOmega(n, config.learningRate);

    std::vector<double> theta(n), eps(n), grad, gradMu(n), gradOmega(n);
    double bestElbo = -1e300;
    double elboAccum = 0.0;
    int elboCount = 0;

    for (int iter = 0; iter < config.maxIterations; ++iter) {
        std::fill(gradMu.begin(), gradMu.end(), 0.0);
        std::fill(gradOmega.begin(), gradOmega.end(), 0.0);
        double elbo = 0.0;
        for (int s = 0; s < config.gradSamples; ++s) {
            for (std::size_t i = 0; i < n; ++i) {
                eps[i] = rng.normal();
                theta[i] = result.mu[i] + std::exp(result.omega[i]) * eps[i];
            }
            const double lp = eval.logProbGrad(theta, grad);
            ++result.gradEvals;
            if (!std::isfinite(lp))
                continue; // skip divergent draws
            elbo += lp;
            for (std::size_t i = 0; i < n; ++i) {
                gradMu[i] += grad[i];
                gradOmega[i] += grad[i] * eps[i] * std::exp(result.omega[i]);
            }
        }
        const double scale = 1.0 / config.gradSamples;
        for (std::size_t i = 0; i < n; ++i) {
            gradMu[i] *= scale;
            // Entropy of q contributes +1 to every omega gradient.
            gradOmega[i] = gradOmega[i] * scale + 1.0;
        }
        adamMu.step(result.mu, gradMu);
        adamOmega.step(result.omega, gradOmega);
        for (double& w : result.omega)
            w = std::clamp(w, -12.0, 6.0);

        // ELBO = E[log p] + entropy (up to the Gaussian constant).
        double entropy = 0.0;
        for (double w : result.omega)
            entropy += w;
        elboAccum += elbo * scale + entropy;
        ++elboCount;

        if ((iter + 1) % config.evalInterval == 0) {
            const double smoothed = elboAccum / elboCount;
            elboAccum = 0.0;
            elboCount = 0;
            result.elboTrace.push_back(smoothed);
            const double rel = std::fabs(smoothed - bestElbo)
                / (std::fabs(bestElbo) + 1e-10);
            if (result.elboTrace.size() > 2 && rel < config.tolerance) {
                result.converged = true;
                break;
            }
            bestElbo = std::max(bestElbo, smoothed);
        }
    }

    // Sample the fitted q and map to the constrained scale.
    result.draws.reserve(config.outputDraws);
    for (int d = 0; d < config.outputDraws; ++d) {
        for (std::size_t i = 0; i < n; ++i)
            theta[i] = result.mu[i]
                + std::exp(result.omega[i]) * rng.normal();
        result.draws.push_back(eval.constrain(theta));
    }
    return result;
}

} // namespace bayes::samplers
