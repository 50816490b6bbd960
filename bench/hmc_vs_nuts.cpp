/**
 * @file
 * §IV-A companion — HMC vs NUTS single-core profiles. The paper notes
 * HMC's characteristics closely track NUTS (IPC 1.5-2.7, same
 * LLC-bound outliers), so it reports NUTS only; this bench reproduces
 * the comparison on a representative slice of the suite.
 */
#include "common.hpp"
#include "support/table.hpp"

#include <cstdio>
#include <vector>

using namespace bayes;

int
main()
{
    const auto platform = archsim::Platform::skylake();
    Table table({"workload", "algo", "IPC", "LLCMPKI", "BW(MB/s)",
                 "gradevals", "time(s)"});
    for (const std::string name : {"12cities", "ad", "votes", "tickets"}) {
        const auto wl = workloads::makeWorkload(name);
        const auto profile = archsim::profileWorkload(
            *wl, 4, archsim::TapeKind::Reference);
        const bool small = name == "12cities";
        std::vector<samplers::Algorithm> algos = {
            samplers::Algorithm::Nuts, samplers::Algorithm::Hmc};
        if (small) {
            // The gradient-free baselines are only tractable on the
            // smallest workload at bench time scales.
            algos.push_back(samplers::Algorithm::Mh);
            algos.push_back(samplers::Algorithm::Slice);
        }
        for (const auto algo : algos) {
            auto cfg = bench::userConfig(*wl);
            cfg.algorithm = algo;
            cfg.iterations = bench::kShortIterations;
            const auto run = samplers::run(*wl, cfg);
            const auto sim = archsim::simulateSystem(
                profile, archsim::extractRunWork(run), platform, 1);
            table.row()
                .cell(name)
                .cell(samplers::algorithmName(algo))
                .cell(sim.ipc, 2)
                .cell(sim.llcMpki, 2)
                .cell(sim.bandwidthMBps, 0)
                .cell(static_cast<long>(run.totalGradEvals()))
                .cell(sim.seconds, 2);
            std::fprintf(stderr, "[bench] %s/%s done\n", name.c_str(),
                         samplers::algorithmName(algo));
        }
    }
    printSection("Algorithm comparison, single-core profiles "
                 "(paper §IV-A: HMC closely tracks NUTS; MH/slice "
                 "gradient-free baselines on 12cities)",
                 table);
    return 0;
}
