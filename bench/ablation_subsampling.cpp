/**
 * @file
 * Ablation (§VII-B) — likelihood subsampling as the LLC mitigation the
 * paper proposes: "the inference algorithm should be tuned to
 * subsample the data such that the working set fits the LLC. Figure 3
 * can be used to estimate the proper sub-sampled data size."
 *
 * Runs `tickets` (the workload the paper singles out) with the full
 * likelihood and with inverse-probability-reweighted 50% and 25%
 * subsamples, reporting the working set, LLC behavior, multicore
 * speedup, and the posterior-quality cost (quota-effect estimate vs
 * the full run).
 */
#include "common.hpp"
#include "diagnostics/summary.hpp"
#include "support/table.hpp"
#include "workloads/tickets_quota.hpp"

#include <cstdio>

using namespace bayes;

int
main()
{
    const auto platform = archsim::Platform::skylake();
    Table table({"subsample", "rows/eval", "modeled KB", "tape nodes",
                 "MPKI@1", "MPKI@4", "spd@4", "delta mean", "delta sd"});
    const std::size_t deltaIdx = [] {
        workloads::TicketsQuota probe;
        return probe.layout().offset(probe.layout().blockIndex("delta"));
    }();

    for (const double fraction : {1.0, 0.5, 0.25, 0.125}) {
        workloads::TicketsQuota wl(1.0, fraction);
        samplers::Config cfg;
        cfg.chains = 4;
        cfg.iterations = bench::kShortIterations;
        std::fprintf(stderr, "[bench] tickets subsample=%.2f...\n",
                     fraction);
        const auto run = samplers::run(wl, cfg);
        const auto profile = archsim::profileWorkload(
            wl, 4, archsim::TapeKind::Reference);
        const auto work = archsim::extractRunWork(run);
        const auto s1 = archsim::simulateSystem(profile, work, platform, 1);
        const auto s4 = archsim::simulateSystem(profile, work, platform, 4);
        const auto summary = diagnostics::summarize(run, wl.layout());
        table.row()
            .cell(fraction, 2)
            .cell(static_cast<long>(wl.activeRows()))
            .cell(static_cast<double>(wl.modeledDataBytes()) / 1024.0, 1)
            .cell(static_cast<long>(profile.chains[0].tapeNodes))
            .cell(s1.llcMpki, 2)
            .cell(s4.llcMpki, 2)
            .cell(s1.seconds / s4.seconds, 2)
            .cell(summary.coords[deltaIdx].mean, 3)
            .cell(summary.coords[deltaIdx].sd, 3);
    }
    printSection("Ablation — likelihood subsampling on tickets "
                 "(paper §VII-B mitigation; delta generated at 0.35)",
                 table);
    return 0;
}
