/**
 * @file
 * Scheduling a fleet of inference jobs across heterogeneous servers —
 * the paper's §V mechanism as a user-facing workflow:
 *   1. extract each job's static modeled-data-size feature,
 *   2. classify LLC-bound vs compute-bound with the fitted threshold,
 *   3. place jobs on the big-LLC (Broadwell) or high-frequency
 *      (Skylake) platform and report the predicted win.
 */
#include <cstdio>

#include "archsim/system.hpp"
#include "samplers/runner.hpp"
#include "sched/scheduler.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workloads/workload.hpp"

using namespace bayes;

int
main()
{
    const auto sky = archsim::Platform::skylake();
    const auto bdw = archsim::Platform::broadwell();
    const sched::PlatformScheduler scheduler(sky, bdw, 16.0 * 1024.0);

    std::printf("Scheduling the BayesSuite fleet across %s and %s...\n\n",
                sky.name.c_str(), bdw.name.c_str());

    Table table({"job", "modeled KB", "class", "placed on",
                 "sim time (s)", "vs all-Broadwell"});
    std::vector<double> speedups;
    for (const auto& wl : workloads::makeSuite()) {
        // Short run: placement uses only the static feature; the run
        // just provides work counters for the latency estimate.
        samplers::Config cfg;
        cfg.chains = 4;
        cfg.iterations = 200;
        cfg.execution = samplers::ExecutionPolicy::pool();
        const auto run = samplers::run(*wl, cfg);
        const auto profile = archsim::profileWorkload(
            *wl, 4, archsim::TapeKind::Reference);
        const auto work = archsim::extractRunWork(run);

        const auto placement = scheduler.place(*wl);
        const auto onTarget = archsim::simulateSystem(
            profile, work, *placement.platform, 4);
        const auto onBdw =
            archsim::simulateSystem(profile, work, bdw, 4);
        const double speedup = onBdw.seconds / onTarget.seconds;
        speedups.push_back(speedup);
        table.row()
            .cell(wl->name())
            .cell(static_cast<double>(wl->modeledDataBytes()) / 1024.0, 1)
            .cell(placement.llcBound ? "LLC-bound" : "compute-bound")
            .cell(placement.platform->name)
            .cell(onTarget.seconds, 2)
            .cell(speedup, 2);
        std::fprintf(stderr, "[fleet] %s placed\n", wl->name().c_str());
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("geomean speedup over all-Broadwell: %.2fx "
                "(paper: 1.16x)\n",
                geometricMean(speedups));
    return 0;
}
