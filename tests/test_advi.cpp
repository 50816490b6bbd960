/**
 * @file
 * ADVI tests: posterior recovery on a known Gaussian target, ELBO
 * ascent, constrained-scale output, determinism, and behavior on a real
 * workload.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "math/distributions.hpp"
#include "samplers/advi.hpp"
#include "support/stats.hpp"
#include "workloads/suite.hpp"

namespace bayes::samplers {
namespace {

/** Independent 2-D Gaussian — mean-field ADVI's exact regime. */
class DiagGaussian : public ppl::Model
{
  public:
    DiagGaussian()
        : layout_({{"x", 1, ppl::TransformKind::Identity, 0, 0},
                   {"y", 1, ppl::TransformKind::Identity, 0, 0}})
    {
    }

    const std::string& name() const override { return name_; }
    const ppl::ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override { return 0; }

    double logProb(const ppl::ParamView<double>& p) const override
    {
        return body(p);
    }
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override
    {
        return body(p);
    }

  private:
    template <typename T>
    T
    body(const ppl::ParamView<T>& p) const
    {
        using namespace bayes::math;
        return normal_lpdf(p.scalar(0), 2.0, 0.5)
            + normal_lpdf(p.scalar(1), -1.0, 2.0);
    }

    std::string name_ = "diag-gaussian";
    ppl::ParamLayout layout_;
};

TEST(Advi, RecoversDiagonalGaussianExactly)
{
    DiagGaussian model;
    AdviConfig cfg;
    cfg.maxIterations = 3000;
    const auto fit = fitAdvi(model, cfg);
    EXPECT_NEAR(fit.mu[0], 2.0, 0.1);
    EXPECT_NEAR(fit.mu[1], -1.0, 0.25);
    EXPECT_NEAR(std::exp(fit.omega[0]), 0.5, 0.12);
    EXPECT_NEAR(std::exp(fit.omega[1]), 2.0, 0.45);
}

TEST(Advi, ElboTraceImproves)
{
    DiagGaussian model;
    AdviConfig cfg;
    cfg.maxIterations = 1500;
    const auto fit = fitAdvi(model, cfg);
    ASSERT_GE(fit.elboTrace.size(), 2u);
    EXPECT_GT(fit.elboTrace.back(), fit.elboTrace.front());
}

TEST(Advi, DrawsMatchFittedMoments)
{
    DiagGaussian model;
    AdviConfig cfg;
    cfg.maxIterations = 3000;
    cfg.outputDraws = 4000;
    const auto fit = fitAdvi(model, cfg);
    ASSERT_EQ(fit.draws.size(), 4000u);
    std::vector<double> xs;
    for (const auto& d : fit.draws)
        xs.push_back(d[0]);
    EXPECT_NEAR(mean(xs), fit.mu[0], 0.05);
    EXPECT_NEAR(stddev(xs), std::exp(fit.omega[0]), 0.05);
}

TEST(Advi, DeterministicForFixedSeed)
{
    DiagGaussian model;
    AdviConfig cfg;
    cfg.maxIterations = 200;
    const auto a = fitAdvi(model, cfg);
    const auto b = fitAdvi(model, cfg);
    EXPECT_EQ(a.mu, b.mu);
    EXPECT_EQ(a.gradEvals, b.gradEvals);
}

TEST(Advi, OutputIsOnTheConstrainedScale)
{
    // ode has bounded parameters; every ADVI draw must respect them.
    const auto wl = workloads::makeWorkload("ode");
    AdviConfig cfg;
    cfg.maxIterations = 300;
    cfg.outputDraws = 200;
    const auto fit = fitAdvi(*wl, cfg);
    for (const auto& d : fit.draws) {
        EXPECT_GT(d[0], 2.0);  // mtt in (2, 12)
        EXPECT_LT(d[0], 12.0);
        EXPECT_GT(d[4], 0.01); // sigma in (0.01, 1)
        EXPECT_LT(d[4], 1.0);
    }
}

TEST(Advi, ApproximatesWorkloadPosteriorMean)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    AdviConfig cfg;
    cfg.maxIterations = 2500;
    const auto fit = fitAdvi(*wl, cfg);
    // beta_limit is negative in truth and posterior; the variational
    // mean must land clearly on the correct side.
    const auto& layout = wl->layout();
    const std::size_t idx = layout.offset(layout.blockIndex("beta_limit"));
    double m = 0;
    for (const auto& d : fit.draws)
        m += d[idx];
    m /= static_cast<double>(fit.draws.size());
    EXPECT_LT(m, 0.0);
    EXPECT_GT(m, -0.8);
}

TEST(Advi, ValidatesConfig)
{
    DiagGaussian model;
    AdviConfig bad;
    bad.maxIterations = 0;
    EXPECT_THROW(fitAdvi(model, bad), Error);
    bad = AdviConfig{};
    bad.evalInterval = 0; // the convergence check divides by it
    EXPECT_THROW(fitAdvi(model, bad), Error);
    bad = AdviConfig{};
    bad.outputDraws = -1;
    EXPECT_THROW(fitAdvi(model, bad), Error);
}

} // namespace
} // namespace bayes::samplers
