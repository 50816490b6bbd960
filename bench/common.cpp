#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/obs.hpp"
#include "support/timer.hpp"

namespace bayes::bench {

samplers::Config
userConfig(const workloads::Workload& workload,
           samplers::ExecutionPolicy execution)
{
    samplers::Config cfg;
    cfg.chains = workload.info().defaultChains;
    cfg.iterations = workload.info().defaultIterations;
    cfg.execution = execution;
    return cfg;
}

SuiteEntry
prepareWorkload(const std::string& name, double dataScale, int iterations,
                samplers::ExecutionPolicy execution)
{
    SuiteEntry entry;
    entry.workload = workloads::makeWorkload(name, dataScale);
    samplers::Config cfg = userConfig(*entry.workload, execution);
    if (iterations > 0)
        cfg.iterations = iterations;

    Timer timer;
    entry.run = samplers::run(*entry.workload, cfg);
    entry.profile = archsim::profileWorkload(
        *entry.workload, cfg.chains, archsim::TapeKind::Reference);
    entry.work = archsim::extractRunWork(entry.run);
    std::fprintf(stderr, "[bench] %-10s scale=%.2f iters=%d sampled in %.1fs\n",
                 name.c_str(), dataScale, cfg.iterations, timer.seconds());
    return entry;
}

std::vector<SuiteEntry>
prepareSuite(double dataScale, int iterations,
             samplers::ExecutionPolicy execution)
{
    std::vector<SuiteEntry> suite;
    for (const auto& name : workloads::suiteNames())
        suite.push_back(
            prepareWorkload(name, dataScale, iterations, execution));
    return suite;
}

void
writeRunReport(const std::string& benchName)
{
    const char* dir = std::getenv("BAYES_BENCH_METRICS_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    const std::string path = std::string(dir) + "/" + benchName + ".json";
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "[bench] cannot write run report %s\n",
                     path.c_str());
        return;
    }
    obs::Registry::global().snapshot().writeJson(os);
    std::fprintf(stderr, "[bench] run report written to %s\n", path.c_str());
}

} // namespace bayes::bench
