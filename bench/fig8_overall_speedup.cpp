/**
 * @file
 * Figure 8 — the overall speedup of the paper's combined techniques
 * (platform scheduling from §V + computation elision from §VI) over the
 * baseline: no convergence detection, running on the Broadwell server.
 * The paper reports 5.8x average, with the energy-oracle points at
 * 6.2x.
 *
 * The oracle here is the lowest-energy quality-passing point among
 * {1,2,4}-core placements of the 4-chain and 2-chain elided runs on the
 * scheduled platform (the paper's oracle also uses fewer chains).
 */
#include "common.hpp"
#include "diagnostics/convergence.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "sched/scheduler.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

#include <cstdio>

using namespace bayes;

namespace {

std::vector<std::vector<double>>
pooledAll(const samplers::RunResult& run, std::size_t dim)
{
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < dim; ++i)
        out.push_back(diagnostics::pooledCoordinate(run, i));
    return out;
}

} // namespace

int
main()
{
    const auto sky = archsim::Platform::skylake();
    const auto bdw = archsim::Platform::broadwell();
    const sched::PlatformScheduler scheduler(sky, bdw, 16.0 * 1024.0);

    Table table({"workload", "platform", "baseline(s)", "proposed(s)",
                 "speedup", "oracle spd"});
    std::vector<double> speedups, oracleSpeedups;

    for (const auto& name : workloads::suiteNames()) {
        const auto wl = workloads::makeWorkload(name);
        // Pooled execution (the userConfig default): the baseline and
        // the elided runs use all cores, and the synchronized monitor
        // keeps the elided stop draw identical to the sequential
        // schedule.
        const auto cfg = bench::userConfig(*wl);
        std::fprintf(stderr, "[bench] %s: baseline + elided runs...\n",
                     name.c_str());

        const auto userRun = samplers::run(*wl, cfg);
        const auto elided = elide::runWithElision(*wl, cfg);
        auto cfg2 = cfg;
        cfg2.chains = 2;
        const auto elided2 = elide::runWithElision(*wl, cfg2);

        const auto profile4 = archsim::profileWorkload(*wl, 4);
        const auto profile2 = archsim::profileWorkload(*wl, 2);
        const auto placement = scheduler.place(*wl);
        const auto& target = *placement.platform;

        // Baseline: user setting, no elision, all-Broadwell, 4 cores.
        const auto baseline = archsim::simulateSystem(
            profile4, archsim::extractRunWork(userRun), bdw, 4);
        // Proposed: scheduled platform + 4-chain elision, 4 cores.
        const auto proposed = archsim::simulateSystem(
            profile4, archsim::extractRunWork(elided.run), target, 4);

        // Oracle: cheapest quality-passing elided placement.
        const auto userPooled = pooledAll(userRun, wl->layout().dim());
        auto quality = [&](const samplers::RunResult& run) {
            return diagnostics::gaussianKl(
                pooledAll(run, wl->layout().dim()), userPooled);
        };
        const double klGate = 0.15;
        double oracleSeconds = proposed.seconds;
        double oracleEnergy = proposed.energyJ;
        auto consider = [&](const archsim::WorkloadProfile& profile,
                            const samplers::RunResult& run, double kl) {
            if (kl > klGate)
                return;
            const auto work = archsim::extractRunWork(run);
            for (int cores : {1, 2, 4}) {
                const auto sim =
                    archsim::simulateSystem(profile, work, target, cores);
                if (sim.energyJ < oracleEnergy) {
                    oracleEnergy = sim.energyJ;
                    oracleSeconds = sim.seconds;
                }
            }
        };
        consider(profile4, elided.run, quality(elided.run));
        consider(profile2, elided2.run, quality(elided2.run));

        const double speedup = baseline.seconds / proposed.seconds;
        const double oracleSpeedup = baseline.seconds / oracleSeconds;
        speedups.push_back(speedup);
        oracleSpeedups.push_back(oracleSpeedup);
        table.row()
            .cell(name)
            .cell(target.name)
            .cell(baseline.seconds, 2)
            .cell(proposed.seconds, 2)
            .cell(speedup, 2)
            .cell(oracleSpeedup, 2);
    }
    printSection("Figure 8 — overall speedup of scheduling + elision "
                 "over the no-elision Broadwell baseline",
                 table);

    Table agg({"aggregate", "value"});
    agg.row().cell("mean speedup [paper: 5.8x]").cell(mean(speedups), 2);
    agg.row().cell("geomean speedup").cell(geometricMean(speedups), 2);
    agg.row().cell("mean oracle speedup [paper: 6.2x]").cell(
        mean(oracleSpeedups), 2);
    printSection("Figure 8 — aggregate", agg);
    return 0;
}
