/**
 * @file
 * Micro-bench — hot distribution kernels in both evaluation modes:
 * value-only (double) and taped (Var). The value/taped ratio is the
 * interpreter overhead the architecture model's per-node instruction
 * costs represent.
 */
#include <benchmark/benchmark.h>

#include "ad/tape.hpp"
#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"
#include "support/rng.hpp"

using namespace bayes;
using namespace bayes::math;

namespace {

std::vector<double>
observations(std::size_t n)
{
    Rng rng(42);
    std::vector<double> ys(n);
    for (auto& y : ys)
        y = rng.normal(0.5, 1.2);
    return ys;
}

void
BM_NormalLpdfDouble(benchmark::State& state)
{
    const auto ys = observations(1024);
    for (auto _ : state) {
        double lp = 0.0;
        for (double y : ys)
            lp += normal_lpdf(y, 0.3, 1.1);
        benchmark::DoNotOptimize(lp);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_NormalLpdfTaped(benchmark::State& state)
{
    const auto ys = observations(1024);
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        ad::Var mu = ad::leaf(tape, 0.3);
        ad::Var sigma = ad::leaf(tape, 1.1);
        ad::Var lp = 0.0;
        for (double y : ys)
            lp += normal_lpdf(y, mu, sigma);
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_BernoulliLogitTaped(benchmark::State& state)
{
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        ad::Var eta = ad::leaf(tape, 0.4);
        ad::Var lp = 0.0;
        for (int i = 0; i < 1024; ++i)
            lp += bernoulli_logit_lpmf(i & 1, eta);
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_PoissonLogTaped(benchmark::State& state)
{
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        ad::Var eta = ad::leaf(tape, 1.2);
        ad::Var lp = 0.0;
        for (long i = 0; i < 1024; ++i)
            lp += poisson_log_lpmf(i % 7, eta);
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}

// ---------------------------------------------------------------------
// Fused kernels: same likelihoods as the taped loops above, one wide
// node each. The time ratio against the *Taped twins is the per-node
// interpreter overhead the fusion removes; tape_nodes shows the
// working-set collapse (3 nodes vs ~10k).
// ---------------------------------------------------------------------

void
BM_NormalLpdfFused(benchmark::State& state)
{
    const auto ys = observations(1024);
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        ad::Var mu = ad::leaf(tape, 0.3);
        ad::Var sigma = ad::leaf(tape, 1.1);
        ad::Var lp = normal_lpdf_vec(std::span<const double>(ys), mu, sigma);
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.counters["tape_nodes"] = static_cast<double>(tape.size());
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_BernoulliLogitGlmFused(benchmark::State& state)
{
    const std::size_t n = 1024, numK = 4;
    Rng rng(43);
    std::vector<double> x(n * numK);
    for (auto& v : x)
        v = rng.normal(0.0, 1.0);
    std::vector<int> ys(n);
    for (std::size_t i = 0; i < n; ++i)
        ys[i] = static_cast<int>(i & 1);
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        std::vector<ad::Var> betas;
        for (std::size_t k = 0; k < numK; ++k)
            betas.push_back(ad::leaf(tape, 0.1 * static_cast<double>(k)));
        ad::Var alpha = ad::leaf(tape, 0.4);
        ad::Var lp = bernoulli_logit_glm_lpmf(
            std::span<const int>(ys), std::span<const double>(x), alpha,
            std::span<const ad::Var>(betas));
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.counters["tape_nodes"] = static_cast<double>(tape.size());
    state.SetItemsProcessed(state.iterations() * 1024);
}

void
BM_PoissonLogGlmFused(benchmark::State& state)
{
    const std::size_t n = 1024, numK = 4;
    Rng rng(44);
    std::vector<double> x(n * numK);
    for (auto& v : x)
        v = rng.normal(0.0, 0.5);
    std::vector<long> ys(n);
    for (std::size_t i = 0; i < n; ++i)
        ys[i] = static_cast<long>(i % 7);
    ad::Tape tape;
    for (auto _ : state) {
        tape.clear();
        std::vector<ad::Var> betas;
        for (std::size_t k = 0; k < numK; ++k)
            betas.push_back(ad::leaf(tape, 0.05 * static_cast<double>(k)));
        std::vector<ad::Var> alphas{ad::leaf(tape, 1.2)};
        ad::Var lp = poisson_log_glm_lpmf(
            std::span<const long>(ys), std::span<const double>(x), {}, {},
            std::span<const ad::Var>(alphas),
            std::span<const ad::Var>(betas));
        std::vector<double> adj;
        tape.gradient(lp.id(), adj);
        benchmark::DoNotOptimize(adj.data());
    }
    state.counters["tape_nodes"] = static_cast<double>(tape.size());
    state.SetItemsProcessed(state.iterations() * 1024);
}

} // namespace

BENCHMARK(BM_NormalLpdfDouble);
BENCHMARK(BM_NormalLpdfTaped);
BENCHMARK(BM_BernoulliLogitTaped);
BENCHMARK(BM_PoissonLogTaped);
BENCHMARK(BM_NormalLpdfFused);
BENCHMARK(BM_BernoulliLogitGlmFused);
BENCHMARK(BM_PoissonLogGlmFused);
