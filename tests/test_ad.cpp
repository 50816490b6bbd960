/**
 * @file
 * Reverse-mode autodiff tests: every operator's gradient is validated
 * against central finite differences, plus tape mechanics (arena reuse,
 * op-class accounting, constant folding).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "ad/tape.hpp"
#include "ad/var.hpp"
#include "math/functions.hpp"

namespace bayes::ad {
namespace {

/** d f / d x at x0 via the tape. */
double
tapeGradient(const std::function<Var(const Var&)>& f, double x0)
{
    Tape tape;
    Var x = leaf(tape, x0);
    Var y = f(x);
    std::vector<double> adj;
    tape.gradient(y.id(), adj);
    return adj[x.id()];
}

/** Central finite difference. */
double
numericGradient(const std::function<Var(const Var&)>& f, double x0,
                double h = 1e-6)
{
    return (f(Var(x0 + h)).value() - f(Var(x0 - h)).value()) / (2.0 * h);
}

struct UnaryCase
{
    std::string name;
    std::function<Var(const Var&)> f;
    double x0;
};

class UnaryGradientTest : public ::testing::TestWithParam<UnaryCase>
{
};

TEST_P(UnaryGradientTest, MatchesFiniteDifference)
{
    const auto& c = GetParam();
    const double analytic = tapeGradient(c.f, c.x0);
    const double numeric = numericGradient(c.f, c.x0);
    EXPECT_NEAR(analytic, numeric,
                1e-5 * std::max(1.0, std::fabs(numeric)))
        << c.name << " at x=" << c.x0;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradientTest,
    ::testing::Values(
        UnaryCase{"exp", [](const Var& x) { return exp(x); }, 0.7},
        UnaryCase{"log", [](const Var& x) { return log(x); }, 2.3},
        UnaryCase{"log1p", [](const Var& x) { return log1p(x); }, 0.4},
        UnaryCase{"sqrt", [](const Var& x) { return sqrt(x); }, 3.1},
        UnaryCase{"square", [](const Var& x) { return square(x); }, -1.4},
        UnaryCase{"sin", [](const Var& x) { return sin(x); }, 1.1},
        UnaryCase{"cos", [](const Var& x) { return cos(x); }, 0.3},
        UnaryCase{"tanh", [](const Var& x) { return tanh(x); }, -0.8},
        UnaryCase{"atan", [](const Var& x) { return atan(x); }, 2.0},
        UnaryCase{"fabs", [](const Var& x) { return fabs(x); }, -2.5},
        UnaryCase{"neg", [](const Var& x) { return -x; }, 0.9},
        UnaryCase{"powc", [](const Var& x) { return pow(x, 2.5); }, 1.7},
        UnaryCase{"lgamma",
                  [](const Var& x) { return math::lgamma(x); }, 3.3},
        UnaryCase{"erf", [](const Var& x) { return math::erf(x); }, 0.5},
        UnaryCase{"erfc", [](const Var& x) { return math::erfc(x); }, -0.2},
        UnaryCase{"invlogit",
                  [](const Var& x) { return math::invLogit(x); }, 0.8},
        UnaryCase{"log1pexp",
                  [](const Var& x) { return math::log1pExp(x); }, -1.5},
        UnaryCase{"expm1",
                  [](const Var& x) { return math::expm1(x); }, 0.6},
        UnaryCase{"stdnormcdf",
                  [](const Var& x) { return math::stdNormalCdf(x); }, 0.4},
        UnaryCase{"composite",
                  [](const Var& x) {
                      return exp(x) * log(x + 3.0) - square(x) / (x + 5.0);
                  },
                  1.2}),
    [](const auto& paramInfo) { return paramInfo.param.name; });

TEST(Ad, BinaryOperatorGradients)
{
    Tape tape;
    Var x = leaf(tape, 2.0);
    Var y = leaf(tape, 3.0);
    Var f = x * y + x / y - y + pow(x, y);
    std::vector<double> adj;
    tape.gradient(f.id(), adj);
    // df/dx = y + 1/y + y x^{y-1} = 3 + 1/3 + 3*4 = 15.3333...
    EXPECT_NEAR(adj[x.id()], 3.0 + 1.0 / 3.0 + 12.0, 1e-10);
    // df/dy = x - x/y^2 - 1 + x^y ln x = 2 - 2/9 - 1 + 8 ln 2
    EXPECT_NEAR(adj[y.id()], 2.0 - 2.0 / 9.0 - 1.0 + 8.0 * std::log(2.0),
                1e-10);
}

TEST(Ad, SharedSubexpressionAccumulatesAdjoints)
{
    Tape tape;
    Var x = leaf(tape, 1.5);
    Var s = x * x; // used twice below
    Var f = s + s;
    std::vector<double> adj;
    tape.gradient(f.id(), adj);
    EXPECT_NEAR(adj[x.id()], 4.0 * 1.5, 1e-12); // d(2x^2)/dx = 4x
}

TEST(Ad, ConstantsDoNotTouchTheTape)
{
    Tape tape;
    Var a(2.0), b(3.0);
    Var c = a * b + exp(a);
    EXPECT_FALSE(c.tracked());
    EXPECT_NEAR(c.value(), 6.0 + std::exp(2.0), 1e-12);
    EXPECT_EQ(tape.size(), 0u);
}

TEST(Ad, MixedConstantVariable)
{
    Tape tape;
    Var x = leaf(tape, 4.0);
    Var f = 2.0 * x + 10.0;
    std::vector<double> adj;
    tape.gradient(f.id(), adj);
    EXPECT_NEAR(adj[x.id()], 2.0, 1e-12);
}

TEST(Ad, ClearReusesArena)
{
    Tape tape;
    for (int rep = 0; rep < 3; ++rep) {
        tape.clear();
        Var x = leaf(tape, 1.0 + rep);
        Var y = exp(x) + x;
        std::vector<double> adj;
        tape.gradient(y.id(), adj);
        EXPECT_NEAR(adj[x.id()], std::exp(1.0 + rep) + 1.0, 1e-10);
        EXPECT_EQ(tape.size(), 3u); // leaf, exp, add
    }
}

TEST(Ad, OpClassAccounting)
{
    Tape tape;
    Var x = leaf(tape, 1.0);
    Var y = leaf(tape, 2.0);
    Var f = x + y;       // AddSub
    f = f * x;           // Mul
    f = f / y;           // Div
    f = exp(f);          // Special
    (void)f;
    const auto& counts = tape.opCounts();
    EXPECT_EQ(counts[static_cast<int>(OpClass::Leaf)], 2u);
    EXPECT_EQ(counts[static_cast<int>(OpClass::AddSub)], 1u);
    EXPECT_EQ(counts[static_cast<int>(OpClass::Mul)], 1u);
    EXPECT_EQ(counts[static_cast<int>(OpClass::Div)], 1u);
    EXPECT_EQ(counts[static_cast<int>(OpClass::Special)], 1u);
    tape.clear();
    for (auto c : tape.opCounts())
        EXPECT_EQ(c, 0u);
}

TEST(Ad, FminFmaxRouteToWinner)
{
    Tape tape;
    Var x = leaf(tape, 2.0);
    Var y = leaf(tape, 5.0);
    EXPECT_EQ(fmax(x, y).id(), y.id());
    EXPECT_EQ(fmin(x, y).id(), x.id());
}

TEST(Ad, GradientOfUnknownNodeThrows)
{
    Tape tape;
    std::vector<double> adj;
    EXPECT_THROW(tape.gradient(0, adj), Error);
}

TEST(Ad, MultivariateGradientMatchesFiniteDifference)
{
    // f(a, b, c) = a*exp(b) + log(c)*a^2 at (1.2, 0.4, 2.0)
    auto f = [](double a, double b, double c) {
        return a * std::exp(b) + std::log(c) * a * a;
    };
    Tape tape;
    Var a = leaf(tape, 1.2);
    Var b = leaf(tape, 0.4);
    Var c = leaf(tape, 2.0);
    Var y = a * exp(b) + log(c) * square(a);
    std::vector<double> adj;
    tape.gradient(y.id(), adj);

    const double h = 1e-6;
    EXPECT_NEAR(adj[a.id()],
                (f(1.2 + h, 0.4, 2.0) - f(1.2 - h, 0.4, 2.0)) / (2 * h),
                1e-5);
    EXPECT_NEAR(adj[b.id()],
                (f(1.2, 0.4 + h, 2.0) - f(1.2, 0.4 - h, 2.0)) / (2 * h),
                1e-5);
    EXPECT_NEAR(adj[c.id()],
                (f(1.2, 0.4, 2.0 + h) - f(1.2, 0.4, 2.0 - h)) / (2 * h),
                1e-5);
}

} // namespace
} // namespace bayes::ad
