/**
 * @file
 * Quickstart: define a custom Bayesian model against the public API and
 * sample it with NUTS.
 *
 * The model is a simple robust linear regression,
 *     y_i ~ student_t(4, alpha + beta * x_i, sigma),   sigma > 0,
 * fitted to synthetic data with known coefficients. Shows the three
 * steps every user of the library follows:
 *   1. implement ppl::Model (parameter layout + one templated log
 *      density, which ppl::DensityOf serves to both evaluation paths),
 *   2. configure and run the multi-chain NUTS driver,
 *   3. summarize the posterior (means, quantiles, R-hat, ESS).
 */
#include <cstdio>

#include "diagnostics/summary.hpp"
#include "math/distributions.hpp"
#include "samplers/runner.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace bayes;

namespace {

/** Robust regression y ~ student_t(4, alpha + beta x, sigma). */
class RobustRegression : public ppl::DensityOf<RobustRegression>
{
  public:
    RobustRegression()
        : layout_({
              {"alpha", 1, ppl::TransformKind::Identity, 0, 0},
              {"beta", 1, ppl::TransformKind::Identity, 0, 0},
              {"sigma", 1, ppl::TransformKind::LowerBound, 0.0, 0},
          })
    {
        // Synthetic data: alpha = 1.5, beta = -0.7, sigma = 0.4, with a
        // few gross outliers the Student-t likelihood should shrug off.
        Rng rng(2026);
        for (int i = 0; i < 80; ++i) {
            const double x = rng.uniform(-2.0, 2.0);
            double y = 1.5 - 0.7 * x + rng.normal(0.0, 0.4);
            if (i % 17 == 0)
                y += rng.normal(0.0, 4.0); // outlier
            xs_.push_back(x);
            ys_.push_back(y);
        }
    }

    const std::string& name() const override { return name_; }
    const ppl::ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override
    {
        return (xs_.size() + ys_.size()) * sizeof(double);
    }

    /** The log density, once for both paths (ppl::DensityOf). */
    template <typename T>
    T
    logDensity(const ppl::ParamView<T>& p) const
    {
        using namespace bayes::math;
        const T& alpha = p.scalar(0);
        const T& beta = p.scalar(1);
        const T& sigma = p.scalar(2);
        T lp = normal_lpdf(alpha, 0.0, 5.0) + normal_lpdf(beta, 0.0, 5.0)
            + normal_lpdf(sigma, 0.0, 2.0);
        for (std::size_t i = 0; i < xs_.size(); ++i)
            lp += student_t_lpdf(ys_[i], 4.0, alpha + beta * xs_[i],
                                 sigma);
        return lp;
    }

  private:
    std::string name_ = "robust-regression";
    ppl::ParamLayout layout_;
    std::vector<double> xs_, ys_;
};

} // namespace

int
main()
{
    RobustRegression model;

    samplers::Config config;
    config.chains = 4;
    config.iterations = 1000; // half warmup, half sampling
    // Run all chains in parallel on the process-shared worker pool;
    // draws are identical to ExecutionPolicy::sequential().
    config.execution = samplers::ExecutionPolicy::pool();

    std::printf("Sampling %s with %s (%d chains x %d iterations)...\n",
                model.name().c_str(),
                samplers::algorithmName(config.algorithm), config.chains,
                config.iterations);
    const auto result = samplers::run(model, config);

    const auto summary = diagnostics::summarize(result, model.layout());
    std::printf("\n%s\n", summary.table().str().c_str());
    std::printf("max R-hat = %.3f, min ESS = %.0f\n", summary.maxRhat(),
                summary.minEss());
    std::printf("(data generated with alpha=1.5, beta=-0.7, sigma=0.4)\n");
    return summary.maxRhat() < 1.1 ? 0 : 1;
}
