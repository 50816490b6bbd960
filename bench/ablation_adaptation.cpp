/**
 * @file
 * Ablation — NUTS warmup adaptation. Compares the full adaptation
 * (dual-averaging step size + diagonal metric) against metric-free
 * adaptation: without the metric, poorly scaled posteriors force deeper
 * trees (more gradient evaluations per iteration) and slower simulated
 * execution — the design choice DESIGN.md calls out.
 */
#include "common.hpp"
#include "support/table.hpp"

#include <cstdio>

using namespace bayes;

int
main()
{
    const auto platform = archsim::Platform::skylake();
    Table table({"workload", "metric", "gradevals/iter", "divergences",
                 "time(s)"});
    for (const std::string name : {"12cities", "memory", "survival"}) {
        const auto wl = workloads::makeWorkload(name);
        const auto profile = archsim::profileWorkload(
            *wl, 4, archsim::TapeKind::Reference);
        for (const bool metric : {true, false}) {
            auto cfg = bench::userConfig(*wl);
            cfg.iterations = 400;
            cfg.adaptMetric = metric;
            const auto run = samplers::run(*wl, cfg);
            std::uint64_t divs = 0;
            for (const auto& chain : run.chains)
                divs += chain.divergences;
            const double evalsPerIter =
                static_cast<double>(run.totalGradEvals())
                / (400.0 * static_cast<double>(cfg.chains));
            const auto sim = archsim::simulateSystem(
                profile, archsim::extractRunWork(run), platform, 4);
            table.row()
                .cell(name)
                .cell(metric ? "on" : "off")
                .cell(evalsPerIter, 1)
                .cell(static_cast<long>(divs))
                .cell(sim.seconds, 2);
            std::fprintf(stderr, "[bench] %s metric=%d done\n",
                         name.c_str(), metric);
        }
    }
    printSection("Ablation — diagonal metric adaptation on/off "
                 "(400 iterations, 4 chains)",
                 table);
    return 0;
}
