/**
 * @file
 * Computation elision in practice — run one BayesSuite workload with
 * and without runtime convergence detection, compare the iteration
 * counts, posterior quality, and the simulated latency/energy effect
 * on a Skylake server (the paper's §VI mechanism).
 */
#include <cstdio>
#include <fstream>

#include "archsim/system.hpp"
#include "diagnostics/convergence.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "workloads/workload.hpp"

using namespace bayes;

int
main()
{
    const auto wl = workloads::makeWorkload("12cities");
    samplers::Config cfg;
    cfg.chains = wl->info().defaultChains;
    cfg.iterations = wl->info().defaultIterations;
    cfg.execution = samplers::ExecutionPolicy::pool();

    std::printf("Running %s at the user setting (%d x %d)...\n",
                wl->name().c_str(), cfg.chains, cfg.iterations);
    const auto full = samplers::run(*wl, cfg);

    std::printf("Running %s with runtime convergence detection "
                "(one task per chain per R-hat check)...\n",
                wl->name().c_str());
    // The detector publishes its decisions through the obs layer: the
    // trace carries an `elide.rhat` counter track, the registry the
    // check/stop rollup. No ad-hoc logging needed here.
    obs::Tracer::global().start();
    Timer pooledTimer;
    const auto elided = elide::runWithElision(*wl, cfg);
    const double pooledSeconds = pooledTimer.seconds();

    // Elision composes with parallelism: the sequential schedule stops
    // at the very same draw, it just uses one core.
    auto seqCfg = cfg;
    seqCfg.execution = samplers::ExecutionPolicy::sequential();
    Timer seqTimer;
    const auto elidedSeq = elide::runWithElision(*wl, seqCfg);
    const double seqSeconds = seqTimer.seconds();
    std::printf("pooled stop draw %d == sequential stop draw %d; "
                "wall %.2fs vs %.2fs (%.2fx)\n",
                elided.stoppedAtDraw, elidedSeq.stoppedAtDraw,
                pooledSeconds, seqSeconds, seqSeconds / pooledSeconds);

    // Detector telemetry straight from the obs registry — this is the
    // same data `bayessuite_cli --metrics-out` exports.
    obs::Tracer::global().stop();
    const auto snap = obs::Registry::global().snapshot();
    const obs::HistogramStats* rhatStats = snap.histogram("elide.rhat");
    std::printf("\nDetector telemetry (obs registry):\n");
    std::printf("  R-hat checks:        %llu\n",
                static_cast<unsigned long long>(snap.counter(
                    "elide.checks")));
    if (rhatStats != nullptr)
        std::printf("  R-hat range checked: [%.4f, %.4f], last %.4f\n",
                    rhatStats->min, rhatStats->max, snap.gauge(
                        "elide.last_rhat"));
    std::printf("  stop draw:           %.0f\n", snap.gauge(
                    "elide.stop_draw"));
    {
        std::ofstream os("early_stopping.trace.json");
        obs::Tracer::global().writeJson(os);
        std::printf("  trace written to early_stopping.trace.json "
                    "(%zu events; the elide.rhat counter track in "
                    "ui.perfetto.dev is the R-hat trajectory)\n",
                    obs::Tracer::global().eventCount());
    }

    // Posterior quality: compare a few coordinates.
    const auto sumFull = diagnostics::summarize(full, wl->layout());
    const auto sumElided =
        diagnostics::summarize(elided.run, wl->layout());
    Table quality({"param", "full mean", "elided mean", "full sd"});
    for (std::size_t i = 0; i < 3; ++i) {
        quality.row()
            .cell(sumFull.coords[i].name)
            .cell(sumFull.coords[i].mean, 4)
            .cell(sumElided.coords[i].mean, 4)
            .cell(sumFull.coords[i].sd, 4);
    }
    std::printf("\n%s\n", quality.str().c_str());

    // Architecture effect.
    const auto profile = archsim::profileWorkload(
        *wl, cfg.chains, archsim::TapeKind::Reference);
    const auto platform = archsim::Platform::skylake();
    const auto tFull = archsim::simulateSystem(
        profile, archsim::extractRunWork(full), platform, 4);
    const auto tElided = archsim::simulateSystem(
        profile, archsim::extractRunWork(elided.run), platform, 4);

    std::printf("iterations executed: %d of %d (%.0f%% elided)\n",
                elided.executedIterations, elided.budgetIterations,
                100.0 * elided.elidedFraction());
    std::printf("simulated latency:  %.2fs -> %.2fs (%.1fx)\n",
                tFull.seconds, tElided.seconds,
                tFull.seconds / tElided.seconds);
    std::printf("simulated energy:   %.1fJ -> %.1fJ (%.0f%% saved)\n",
                tFull.energyJ, tElided.energyJ,
                100.0 * (1.0 - tElided.energyJ / tFull.energyJ));
    std::printf("detector overhead:  %.4fs wall clock\n",
                elided.detectorSeconds);
    return elided.converged ? 0 : 1;
}
