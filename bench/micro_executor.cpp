/**
 * @file
 * Executor micro-bench — wall-clock time of `runWithElision` under
 * sequential, pool(chains) and the hardware-wide pool on `12cities`
 * and `votes` (4 chains). Each chain runs from one R-hat check to the
 * next as one task, and every policy must produce the identical stop
 * draw; the interesting number is the wall-time ratio, which approaches
 * the chain count on a machine with that many idle cores.
 */
#include "common.hpp"
#include "elide/elision.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

#include <cstdio>
#include <thread>

using namespace bayes;

namespace {

struct Measurement
{
    double seconds;
    elide::ElisionResult result;
};

Measurement
timedElision(const workloads::Workload& wl, samplers::Config cfg,
             samplers::ExecutionPolicy policy)
{
    cfg.execution = policy;
    Timer timer;
    Measurement m{0.0, elide::runWithElision(wl, cfg)};
    m.seconds = timer.seconds();
    return m;
}

} // namespace

int
main()
{
    std::printf("hardware concurrency: %u\n",
                std::thread::hardware_concurrency());

    Table table({"workload", "policy", "wall(s)", "speedup", "stop draw",
                 "converged"});
    for (const std::string name : {"12cities", "votes"}) {
        const auto wl = workloads::makeWorkload(name);
        auto cfg = bench::userConfig(
            *wl, samplers::ExecutionPolicy::sequential());
        cfg.chains = 4;
        std::fprintf(stderr, "[bench] %s: elided runs x3 policies...\n",
                     name.c_str());

        const auto seq = timedElision(
            *wl, cfg, samplers::ExecutionPolicy::sequential());
        const auto perChain = timedElision(
            *wl, cfg, samplers::ExecutionPolicy::pool(cfg.chains));
        const auto pool =
            timedElision(*wl, cfg, samplers::ExecutionPolicy::pool());

        auto emit = [&](const char* policy, const Measurement& m) {
            table.row()
                .cell(name)
                .cell(policy)
                .cell(m.seconds, 2)
                .cell(seq.seconds / m.seconds, 2)
                .cell(static_cast<long>(m.result.stoppedAtDraw))
                .cell(m.result.converged ? "yes" : "no");
        };
        emit("sequential", seq);
        emit("pool(chains)", perChain);
        emit("pool", pool);

        // The whole point of the schedule: identical decisions.
        if (perChain.result.stoppedAtDraw != seq.result.stoppedAtDraw
            || pool.result.stoppedAtDraw != seq.result.stoppedAtDraw) {
            std::fprintf(stderr,
                         "ERROR: stop draw differs across policies\n");
            return 1;
        }
    }
    printSection("Executor micro-bench — runWithElision wall time by "
                 "execution policy (4 chains)",
                 table);

    // Observability overhead at runtime: the same pooled elision run
    // with the tracer idle (metrics only — the default) and with full
    // trace collection. The acceptance bar for the obs layer is < 2%
    // on the idle path; the compile-time half of the story
    // (BAYES_OBS=OFF, which deletes the metric writes entirely) is a
    // cross-build comparison — see docs/observability.md.
    {
        const auto wl = workloads::makeWorkload("12cities");
        auto cfg = bench::userConfig(*wl);
        cfg.chains = 4;
        std::fprintf(stderr,
                     "[bench] obs overhead: tracer idle vs active...\n");
        // Best-of-3 per mode: scheduler noise on a busy host easily
        // exceeds the effect being measured, and the minimum is the
        // cleanest estimator of the undisturbed run.
        auto bestOf3 = [&](bool traceActive) {
            double best = 1e300;
            for (int rep = 0; rep < 3; ++rep) {
                if (traceActive)
                    obs::Tracer::global().start();
                const auto m = timedElision(
                    *wl, cfg, samplers::ExecutionPolicy::pool());
                if (traceActive)
                    obs::Tracer::global().stop();
                best = std::min(best, m.seconds);
            }
            return best;
        };
        const double idle = bestOf3(false);
        const double active = bestOf3(true);

        Table obsTable({"obs mode", "best-of-3 wall(s)", "overhead(%)"});
        obsTable.row().cell("tracer idle (null sink)").cell(idle, 3).cell(
            0.0, 1);
        obsTable.row().cell("tracer active").cell(active, 3).cell(
            100.0 * (active / idle - 1.0), 1);
        printSection(
            "Observability overhead — pooled elided 12cities run "
            "(compiled-in metrics always on; BAYES_OBS=OFF is a "
            "cross-build comparison)",
            obsTable);
        std::fprintf(stderr, "[bench] trace events collected: %zu\n",
                     obs::Tracer::global().eventCount());
    }

    bench::writeRunReport("micro_executor");
    return 0;
}
