/**
 * @file
 * Figure 5 — the convergence process of `12cities`: the Gelman-Rubin
 * R-hat trace, the KL divergence of the intermediate posterior against
 * a 2x-iteration ground truth, the detected convergence point, and the
 * latency saving the elision yields (paper: converges at 600 of 2000
 * iterations; latency reduced 53%; slowest/fastest chain ratio ~1.7).
 */
#include "common.hpp"
#include "diagnostics/convergence.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "support/table.hpp"

#include <cstdio>

using namespace bayes;

namespace {

std::vector<std::vector<double>>
pooledUpTo(const samplers::RunResult& run, int draws)
{
    const std::size_t dim = run.chains[0].draws[0].size();
    std::vector<std::vector<double>> out(dim);
    for (std::size_t i = 0; i < dim; ++i)
        for (const auto& chain : run.chains)
            for (int t = 0; t < draws; ++t)
                out[i].push_back(chain.draws[t][i]);
    return out;
}

} // namespace

int
main()
{
    const auto wl = workloads::makeWorkload("12cities");
    auto cfg = bench::userConfig(*wl);

    // Ground truth: the user's configuration with twice the iterations.
    std::fprintf(stderr, "[bench] sampling 12cities ground truth...\n");
    auto gtCfg = cfg;
    gtCfg.iterations = cfg.iterations * 2;
    gtCfg.seed = cfg.seed ^ 0x5157u;
    const auto gtRun = samplers::run(*wl, gtCfg);
    std::vector<std::vector<double>> groundTruth;
    {
        const std::size_t dim = wl->layout().dim();
        for (std::size_t i = 0; i < dim; ++i)
            groundTruth.push_back(diagnostics::pooledCoordinate(gtRun, i));
    }

    // Full-budget run so the trace extends past the convergence point.
    std::fprintf(stderr, "[bench] sampling 12cities full budget...\n");
    const auto fullRun = samplers::run(*wl, cfg);

    // The R-hat trajectory replays the live detector's own check
    // schedule (elide::convergenceTrace) instead of re-implementing the
    // interval walk here; only the KL column is bench-specific.
    elide::ElisionConfig detector;
    detector.minDraws = 50; // trace from the first informative window
    const auto rhatTrace =
        elide::convergenceTrace(fullRun.chains, detector);

    Table trace({"draws/chain", "Rhat(window)", "KL vs ground truth"});
    int convergedAt = -1;
    for (const auto& sample : rhatTrace) {
        const double kl = diagnostics::gaussianKl(
            pooledUpTo(fullRun, sample.draw), groundTruth);
        trace.row()
            .cell(static_cast<long>(sample.draw))
            .cell(sample.rhat, 4)
            .cell(kl, 5);
        if (convergedAt < 0 && sample.rhat < detector.rhatThreshold)
            convergedAt = sample.draw;
    }
    printSection("Figure 5 — 12cities convergence trace "
                 "(R-hat over the recent-half window; KL vs 2x ground "
                 "truth)",
                 trace);

    // Latency effect: simulate the elided run against the full run.
    // Detection runs on the shared pool, one task per chain per R-hat
    // check — the stop draw is identical to the sequential schedule.
    const auto elided = elide::runWithElision(*wl, cfg);
    const auto profile = archsim::profileWorkload(
        *wl, cfg.chains, archsim::TapeKind::Reference);
    const auto platform = archsim::Platform::skylake();
    const auto tFull = archsim::simulateSystem(
        profile, archsim::extractRunWork(fullRun), platform, 4);
    const auto tElided = archsim::simulateSystem(
        profile, archsim::extractRunWork(elided.run), platform, 4);

    double slowest = 0.0, fastest = 1e30;
    for (double s : tFull.chainSeconds) {
        slowest = std::max(slowest, s);
        fastest = std::min(fastest, s);
    }

    Table summary({"metric", "value"});
    summary.row().cell("iteration budget (post-warmup draws)").cell(
        static_cast<long>(cfg.postWarmup()));
    summary.row().cell("converged at draw (trace)").cell(
        static_cast<long>(convergedAt));
    summary.row().cell("detector stop draw").cell(
        static_cast<long>(elided.stoppedAtDraw));
    summary.row().cell("iterations elided (%)").cell(
        100.0 * elided.elidedFraction(), 1);
    summary.row().cell("simulated latency, full budget (s)").cell(
        tFull.seconds, 2);
    summary.row().cell("simulated latency, elided (s)").cell(
        tElided.seconds, 2);
    summary.row().cell("latency saving (%) [paper: 53%]").cell(
        100.0 * (1.0 - tElided.seconds / tFull.seconds), 1);
    summary.row().cell("slowest/fastest chain ratio [paper: 1.7]").cell(
        slowest / fastest, 2);
    printSection("Figure 5 — convergence summary", summary);
    bench::writeRunReport("fig5_convergence_trace");
    return 0;
}
