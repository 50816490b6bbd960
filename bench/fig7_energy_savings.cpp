/**
 * @file
 * Figure 7 — energy savings of the convergence-detection design points
 * relative to the original user settings, for every workload on both
 * platforms (paper: 70% average across 10 workloads x 2 platforms).
 *
 * For each workload we run the user configuration once and an elided
 * run once; each platform then evaluates the best core count for the
 * elided run against the 4-core user setting.
 */
#include "common.hpp"
#include "elide/elision.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

#include <cstdio>

using namespace bayes;

int
main()
{
    const auto platforms = {archsim::Platform::skylake(),
                            archsim::Platform::broadwell()};
    Table table({"workload", "platform", "user E(J)", "elided E(J)",
                 "best cores", "saving %"});
    std::vector<double> savings;

    for (const auto& name : workloads::suiteNames()) {
        const auto wl = workloads::makeWorkload(name);
        const auto cfg = bench::userConfig(*wl);
        std::fprintf(stderr, "[bench] %s: user + elided runs...\n",
                     name.c_str());
        const auto userRun = samplers::run(*wl, cfg);
        const auto elided = elide::runWithElision(*wl, cfg);
        const auto profile = archsim::profileWorkload(
            *wl, cfg.chains, archsim::TapeKind::Reference);
        const auto userWork = archsim::extractRunWork(userRun);
        const auto elidedWork = archsim::extractRunWork(elided.run);

        for (const auto& platform : platforms) {
            const auto user =
                archsim::simulateSystem(profile, userWork, platform, 4);
            double bestEnergy = 1e300;
            int bestCores = 0;
            for (int cores : {1, 2, 4}) {
                const auto sim = archsim::simulateSystem(
                    profile, elidedWork, platform, cores);
                if (sim.energyJ < bestEnergy) {
                    bestEnergy = sim.energyJ;
                    bestCores = cores;
                }
            }
            const double saving = 1.0 - bestEnergy / user.energyJ;
            savings.push_back(saving);
            table.row()
                .cell(name)
                .cell(platform.name)
                .cell(user.energyJ, 1)
                .cell(bestEnergy, 1)
                .cell(static_cast<long>(bestCores))
                .cell(100.0 * saving, 1);
        }
    }
    printSection("Figure 7 — energy savings of convergence-detection "
                 "design points vs user settings",
                 table);

    Table agg({"aggregate", "value"});
    agg.row().cell("mean energy saving (%) [paper: ~70%]").cell(
        100.0 * mean(savings), 1);
    printSection("Figure 7 — aggregate", agg);
    return 0;
}
