/**
 * @file
 * Performance smoke tests. On the `ad` attribution workload the fused
 * tape must stay at or below 25% of the per-observation reference
 * tape's node count while producing the same log density and gradient, a
 * steady-state gradient on `ad` and `tickets` must make no more heap
 * allocations than its ceiling, and one runtime R-hat check must stay
 * under the paper's §VI-A overhead. Runs as a plain ctest under the
 * `perf-smoke` label (never under a sanitizer, which would distort the
 * timing) so CI catches regressions that quietly re-inflate the tape
 * (e.g. a kernel falling back to the scalar loop), add allocations to
 * the gradient path, or slow the convergence detector.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "elide/elision.hpp"
#include "ppl/evaluator.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "workloads/suite.hpp"

namespace {

// This binary replaces the global allocation functions with counting
// ones. Each thread counts its own calls to operator new, so the test
// thread reads an exact count however many threads the process has.
thread_local std::uint64_t tAllocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++tAllocations;
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace bayes {
namespace {

TEST(PerfSmoke, FusedTapeIsAQuarterOfScalarOnAdAttribution)
{
    const auto wl = workloads::makeWorkload("ad", 1.0);
    ppl::Evaluator fused(*wl);
    ppl::Evaluator scalar(*wl);
    scalar.tape().setPerObservation(true);

    Rng rng(2019);
    std::vector<double> q(fused.dim());
    for (auto& qi : q)
        qi = rng.normal(0.0, 0.3);

    std::vector<double> gF, gS;
    const double lpF = fused.logProbGrad(q, gF);
    const double lpS = scalar.logProbGrad(q, gS);

    // Same posterior...
    EXPECT_NEAR(lpF, lpS, 1e-9 * std::fabs(lpS));
    ASSERT_EQ(gF.size(), gS.size());
    for (std::size_t i = 0; i < gF.size(); ++i)
        EXPECT_NEAR(gF[i], gS[i],
                    1e-8 * std::max(1.0, std::fabs(gS[i])))
            << "coord " << i;

    // ...from a tape at most a quarter of the size (the PR's bar).
    EXPECT_LE(4 * fused.lastTapeNodes(), scalar.lastTapeNodes())
        << "fused " << fused.lastTapeNodes() << " nodes vs scalar "
        << scalar.lastTapeNodes();
}

TEST(PerfSmoke, SteadyStateGradientStaysUnderAllocationCeiling)
{
    // Heap allocations per logProbGrad once a warm-up call has sized the
    // tape and adjoint buffers, at full data scale.
    struct Case
    {
        const char* name;
        std::uint64_t ceiling;
    };
    for (const Case c : {Case{"ad", 8}, Case{"tickets", 13}}) {
        const auto wl = workloads::makeWorkload(c.name, 1.0);
        ppl::Evaluator eval(*wl);
        Rng rng(2019);
        std::vector<double> q(eval.dim());
        for (auto& qi : q)
            qi = rng.normal(0.0, 0.3);
        std::vector<double> grad;
        ASSERT_TRUE(std::isfinite(eval.logProbGrad(q, grad))) << c.name;

        constexpr std::uint64_t kCalls = 50;
        const std::uint64_t before = tAllocations;
        for (std::uint64_t i = 0; i < kCalls; ++i)
            eval.logProbGrad(q, grad);
        const std::uint64_t allocations = tAllocations - before;
        EXPECT_LE(allocations, c.ceiling * kCalls)
            << c.name << ": " << static_cast<double>(allocations) / kCalls
            << " allocations per gradient";
    }
}

TEST(PerfSmoke, RhatCheckStaysUnderThePapersOverhead)
{
    // §VI-A: one convergence check in the paper's worst case (2000
    // draws, 4 chains, the second half used) costs 0.06 s on one
    // Skylake core. 67 coordinates is the suite's largest parameter
    // vector (tickets).
    constexpr int kChains = 4, kDraws = 2000, kDim = 67;
    Rng rng(1234);
    std::vector<samplers::ChainResult> chains(kChains);
    for (auto& chain : chains) {
        chain.draws.assign(kDraws, std::vector<double>(kDim));
        for (auto& draw : chain.draws)
            for (auto& x : draw)
                x = rng.normal();
    }

    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
        Timer timer;
        const double rhat = elide::detectorRhat(chains, kDraws, 0.5);
        seconds.push_back(timer.seconds());
        ASSERT_TRUE(std::isfinite(rhat));
    }
    EXPECT_LT(quantile(seconds, 0.5), 0.06)
        << "median R-hat check " << quantile(seconds, 0.5) << " s";
}

} // namespace
} // namespace bayes
