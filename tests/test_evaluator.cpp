/**
 * @file
 * Evaluator tests: unconstrained log density with Jacobian, gradient
 * consistency, constrained output, counters, the recorded density
 * start that places the traced data pass, the infeasible-point (-inf)
 * recovery path, and a gradient path that writes no metric.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "archsim/trace.hpp"
#include "math/distributions.hpp"
#include "obs/registry.hpp"
#include "ppl/evaluator.hpp"
#include "workloads/suite.hpp"

namespace bayes::ppl {
namespace {

/** y_i ~ Normal(mu, sigma), sigma > 0, flat-ish priors. */
class ToyModel : public Model
{
  public:
    ToyModel()
        : layout_({{"mu", 1, TransformKind::Identity, 0, 0},
                   {"sigma", 1, TransformKind::LowerBound, 0.0, 0}})
    {
    }

    const std::string& name() const override { return name_; }
    const ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override
    {
        return data_.size() * sizeof(double);
    }

    double
    logProb(const ParamView<double>& p) const override
    {
        return body(p);
    }

    ad::Var
    logProb(const ParamView<ad::Var>& p) const override
    {
        return body(p);
    }

    std::vector<double> data_ = {0.4, -0.3, 1.2, 0.8, -1.0};

  private:
    template <typename T>
    T
    body(const ParamView<T>& p) const
    {
        using namespace bayes::math;
        const T& mu = p.scalar(0);
        const T& sigma = p.scalar(1);
        T lp = normal_lpdf(mu, 0.0, 10.0) + normal_lpdf(sigma, 0.0, 5.0);
        for (double y : data_)
            lp += normal_lpdf(y, mu, sigma);
        return lp;
    }

    std::string name_ = "toy";
    ParamLayout layout_;
};

/** Model that always reports an infeasible numeric state. */
class ThrowingModel : public Model
{
  public:
    ThrowingModel() : layout_({{"x", 1, TransformKind::Identity, 0, 0}}) {}
    const std::string& name() const override { return name_; }
    const ParamLayout& layout() const override { return layout_; }
    std::size_t modeledDataBytes() const override { return 0; }
    double logProb(const ParamView<double>&) const override
    {
        throw Error("not positive definite");
    }
    ad::Var logProb(const ParamView<ad::Var>&) const override
    {
        throw Error("not positive definite");
    }

  private:
    std::string name_ = "throwing";
    ParamLayout layout_;
};

TEST(Evaluator, ValueAndGradientPathsAgree)
{
    ToyModel model;
    Evaluator eval(model);
    const std::vector<double> q = {0.3, -0.2};
    std::vector<double> grad;
    const double lp1 = eval.logProb(q);
    const double lp2 = eval.logProbGrad(q, grad);
    EXPECT_NEAR(lp1, lp2, 1e-12);
    EXPECT_EQ(grad.size(), 2u);
}

TEST(Evaluator, GradientMatchesFiniteDifference)
{
    ToyModel model;
    Evaluator eval(model);
    const std::vector<double> q = {0.5, 0.1};
    std::vector<double> grad;
    eval.logProbGrad(q, grad);
    const double h = 1e-6;
    for (std::size_t i = 0; i < q.size(); ++i) {
        auto qp = q, qm = q;
        qp[i] += h;
        qm[i] -= h;
        const double numeric =
            (eval.logProb(qp) - eval.logProb(qm)) / (2 * h);
        EXPECT_NEAR(grad[i], numeric, 1e-5) << "coordinate " << i;
    }
}

TEST(Evaluator, JacobianIncluded)
{
    // For the toy model, logProb(q) should differ from the constrained
    // density by exactly the LowerBound Jacobian (= q[1]).
    ToyModel model;
    Evaluator eval(model);
    const std::vector<double> q = {0.0, 0.7};
    const auto x = eval.constrain(q);
    const ParamView<double> view(model.layout(), x);
    EXPECT_NEAR(eval.logProb(q), model.logProb(view) + 0.7, 1e-12);
}

TEST(Evaluator, ConstrainAppliesTransforms)
{
    ToyModel model;
    Evaluator eval(model);
    const auto x = eval.constrain({1.5, -0.3});
    EXPECT_DOUBLE_EQ(x[0], 1.5);
    EXPECT_NEAR(x[1], std::exp(-0.3), 1e-12);
}

TEST(Evaluator, CountsEvaluations)
{
    ToyModel model;
    Evaluator eval(model);
    std::vector<double> grad;
    eval.logProb({0.0, 0.0});
    eval.logProbGrad({0.0, 0.0}, grad);
    eval.logProbGrad({0.1, 0.1}, grad);
    EXPECT_EQ(eval.numGradEvals(), 2u);
    EXPECT_GT(eval.lastTapeNodes(), 0u);
}

TEST(Evaluator, RejectsWrongDimension)
{
    ToyModel model;
    Evaluator eval(model);
    std::vector<double> grad;
    EXPECT_THROW(eval.logProb({0.0}), Error);
    EXPECT_THROW(eval.logProbGrad({0.0, 0.0, 0.0}, grad), Error);
}

TEST(Evaluator, InfeasibleModelBecomesMinusInfinity)
{
    ThrowingModel model;
    Evaluator eval(model);
    std::vector<double> grad;
    EXPECT_EQ(eval.logProb({0.0}), -INFINITY);
    const double lp = eval.logProbGrad({0.0}, grad);
    EXPECT_EQ(lp, -INFINITY);
    EXPECT_EQ(grad.size(), 1u);
    EXPECT_DOUBLE_EQ(grad[0], 0.0);
}

TEST(Evaluator, DensityBeginPlacesTheDataPass)
{
    // The traced data pass reads ceil(modeledDataBytes / 64) lines,
    // after the transform nodes' writes and before the density's first
    // node.
    ToyModel model;
    model.data_.assign(20, 0.5); // 160 bytes: three lines
    Evaluator eval(model);
    std::vector<double> grad;
    eval.logProbGrad({0.3, -0.2}, grad);
    const std::size_t begin = eval.densityBegin();
    EXPECT_GT(begin, eval.dim()); // the leaves, then sigma's transform
    EXPECT_LT(begin, eval.lastTapeNodes());

    const auto trace = archsim::gradientTrace(
        eval.tape(), begin, model.modeledDataBytes(), 0);
    const std::uint64_t nodes =
        archsim::arenaBase(0, archsim::Arena::Nodes);
    const std::uint64_t data = archsim::arenaBase(0, archsim::Arena::Data);
    std::size_t dataReads = 0;
    for (const archsim::Access& a : trace)
        dataReads += a.addr - data < (1u << 20); // arenas lie 64 GB apart
    EXPECT_EQ(dataReads, 3u);
    ASSERT_GT(trace.size(), begin + 3);
    for (std::size_t i = 0; i < begin; ++i)
        EXPECT_EQ(trace[i], (archsim::Access{nodes + i * sizeof(ad::Node),
                                             true}));
    for (std::size_t line = 0; line < 3; ++line)
        EXPECT_EQ(trace[begin + line],
                  (archsim::Access{data + 64 * line, false}));
    EXPECT_EQ(trace[begin + 3],
              (archsim::Access{nodes + begin * sizeof(ad::Node), true}));
}

TEST(Evaluator, GradientEvaluationWritesNoMetric)
{
    // The gradient path (ad, math, ppl) writes no metric: evaluating
    // the density, with or without its gradient, leaves every metric
    // in the process-wide registry exactly as it was.
    const auto wl = workloads::makeWorkload("tickets", 0.25);
    Evaluator eval(*wl);
    std::vector<double> q(eval.dim()), grad;

    obs::Registry::global().reset();
    const std::string before = obs::Registry::global().snapshot().json();
    for (int k = 0; k < 100; ++k) {
        for (std::size_t d = 0; d < q.size(); ++d)
            q[d] = 0.01 * static_cast<double>((k + static_cast<int>(d)) % 7);
        ASSERT_TRUE(std::isfinite(eval.logProbGrad(q, grad)));
        ASSERT_TRUE(std::isfinite(eval.logProb(q)));
    }
    EXPECT_EQ(obs::Registry::global().snapshot().json(), before);
}

} // namespace
} // namespace bayes::ppl
