/**
 * @file
 * Eight Schools — the canonical hierarchical Bayesian example (Rubin
 * 1981; Gelman et al., BDA). Eight coaching programs report treatment
 * effects with known standard errors; a hierarchical model partially
 * pools them. Demonstrates the non-centered parameterization and the
 * classic funnel geometry the BayesSuite hierarchical workloads share,
 * and compares NUTS against the Metropolis-Hastings baseline on it.
 */
#include <cstdio>

#include "diagnostics/summary.hpp"
#include "math/distributions.hpp"
#include "samplers/runner.hpp"
#include "support/table.hpp"

using namespace bayes;

namespace {

class EightSchools : public ppl::Model
{
  public:
    EightSchools()
        : layout_({
              {"mu", 1, ppl::TransformKind::Identity, 0, 0},
              {"tau", 1, ppl::TransformKind::LowerBound, 0.0, 0},
              {"theta_raw", 8, ppl::TransformKind::Identity, 0, 0},
          })
    {
    }

    const std::string& name() const override { return name_; }
    const ppl::ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override
    {
        return sizeof(kEffect) + sizeof(kStderr);
    }

    double logProb(const ppl::ParamView<double>& p) const override
    {
        return density(p);
    }
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override
    {
        return density(p);
    }

    static constexpr double kEffect[8] = {28, 8, -3, 7, -1, 1, 18, 12};
    static constexpr double kStderr[8] = {15, 10, 16, 11, 9, 11, 10, 18};

  private:
    template <typename T>
    T
    density(const ppl::ParamView<T>& p) const
    {
        using namespace bayes::math;
        const T& mu = p.scalar(0);
        const T& tau = p.scalar(1);
        T lp = normal_lpdf(mu, 0.0, 10.0) + cauchy_lpdf(tau, 0.0, 5.0);
        for (std::size_t j = 0; j < 8; ++j) {
            const T& raw = p.at(2, j);
            lp += std_normal_lpdf(raw);
            const T theta = mu + tau * raw; // non-centered
            lp += normal_lpdf(kEffect[j], theta, kStderr[j]);
        }
        return lp;
    }

    std::string name_ = "eight-schools";
    ppl::ParamLayout layout_;
};

void
report(const char* label, const samplers::RunResult& result,
       const ppl::ParamLayout& layout)
{
    const auto summary = diagnostics::summarize(result, layout);
    std::printf("\n== %s ==\n", label);
    std::printf("%s", summary.table().str().c_str());
    std::printf("max R-hat = %.3f, min ESS = %.0f\n", summary.maxRhat(),
                summary.minEss());
}

} // namespace

int
main()
{
    EightSchools model;

    samplers::Config nuts;
    nuts.chains = 4;
    nuts.iterations = 2000;
    // One pool worker per chain (MH below inherits it).
    nuts.execution = samplers::ExecutionPolicy::pool(nuts.chains);
    std::printf("Sampling eight schools with NUTS...\n");
    report("NUTS (4 x 2000)", samplers::run(model, nuts), model.layout());

    samplers::Config mh = nuts;
    mh.algorithm = samplers::Algorithm::Mh;
    mh.iterations = 20000;
    std::printf("\nSampling eight schools with random-walk MH "
                "(Algorithm 1 baseline; note the ESS gap)...\n");
    report("MH (4 x 20000)", samplers::run(model, mh), model.layout());
    return 0;
}
