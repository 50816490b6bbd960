/**
 * @file
 * Command-line driver for the library: run any BayesSuite workload (or
 * list them), choose the algorithm, enable convergence detection, dump
 * draws to CSV, and optionally simulate the run on one of the Table II
 * platforms.
 *
 * Usage:
 *   bayessuite_cli --list
 *   bayessuite_cli <workload> [--algorithm nuts|hmc|mh|slice|advi]
 *       [--chains N] [--iterations N] [--seed S] [--scale F]
 *       [--execution seq|pool[:N]] [--elide]
 *       [--simulate skylake|broadwell] [--cores N] [--dump draws.csv]
 *       [--metrics-out FILE.json] [--trace-out FILE.json]
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "archsim/system.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "io/csv.hpp"
#include "obs/obs.hpp"
#include "samplers/advi.hpp"
#include "samplers/runner.hpp"
#include "support/timer.hpp"
#include "workloads/workload.hpp"

using namespace bayes;

namespace {

struct CliOptions
{
    std::string workload;
    samplers::Config config;
    double dataScale = 1.0;
    bool useAdvi = false;
    bool elide = false;
    std::string simulate; // "", "skylake", "broadwell"
    int cores = 4;
    std::string dumpPath;
    std::string metricsOutPath;
    std::string traceOutPath;
    bool iterationsSet = false;
    bool chainsSet = false;
};

void
usage()
{
    std::printf(
        "usage: bayessuite_cli <workload>|--list [options]\n"
        "  --algorithm nuts|hmc|mh|slice|advi  inference algorithm\n"
        "  --chains N                     Markov chains (default: 4)\n"
        "  --iterations N                 total iterations (default: "
        "workload's)\n"
        "  --seed S                       RNG seed\n"
        "  --scale F                      dataset scale in (0,1]\n"
        "  --execution seq|pool[:N]       chain execution policy\n"
        "                                 (pool:N = shared pool, N workers)\n"
        "  --elide                        runtime convergence detection\n"
        "  --simulate skylake|broadwell   architecture simulation\n"
        "  --cores N                      simulated cores (default: 4)\n"
        "  --dump FILE                    write draws as CSV\n"
        "  --metrics-out FILE             write the obs metrics snapshot "
        "as JSON\n"
        "  --trace-out FILE               record a Chrome trace_event "
        "JSON trace\n"
        "                                 (open in chrome://tracing or "
        "Perfetto)\n");
}

bool
parse(int argc, char** argv, CliOptions& opt)
{
    if (argc < 2)
        return false;
    if (std::strcmp(argv[1], "--list") == 0) {
        for (const auto& wl : workloads::makeSuite()) {
            std::printf("%-10s %-36s dim=%zu iters=%d\n",
                        wl->name().c_str(),
                        wl->info().modelFamily.c_str(),
                        wl->layout().dim(),
                        wl->info().defaultIterations);
        }
        std::exit(0);
    }
    opt.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            BAYES_CHECK(i + 1 < argc, arg << " needs a value");
            return argv[++i];
        };
        if (arg == "--algorithm") {
            const std::string a = next();
            if (a == "nuts")
                opt.config.algorithm = samplers::Algorithm::Nuts;
            else if (a == "hmc")
                opt.config.algorithm = samplers::Algorithm::Hmc;
            else if (a == "mh")
                opt.config.algorithm = samplers::Algorithm::Mh;
            else if (a == "slice")
                opt.config.algorithm = samplers::Algorithm::Slice;
            else if (a == "advi")
                opt.useAdvi = true;
            else
                throw Error("unknown algorithm '" + a + "'");
        } else if (arg == "--chains") {
            opt.config.chains = std::stoi(next());
            opt.chainsSet = true;
        } else if (arg == "--iterations") {
            opt.config.iterations = std::stoi(next());
            opt.iterationsSet = true;
        } else if (arg == "--seed") {
            opt.config.seed = std::stoull(next());
        } else if (arg == "--execution") {
            const std::string e = next();
            if (e == "seq" || e == "sequential")
                opt.config.execution =
                    samplers::ExecutionPolicy::sequential();
            else if (e == "pool")
                opt.config.execution = samplers::ExecutionPolicy::pool();
            else if (e.rfind("pool:", 0) == 0 && e.size() > 5
                     && e.find_first_not_of("0123456789", 5)
                            == std::string::npos)
                opt.config.execution =
                    samplers::ExecutionPolicy::pool(std::stoi(e.substr(5)));
            else
                throw Error("unknown execution policy '" + e + "'");
        } else if (arg == "--scale") {
            opt.dataScale = std::stod(next());
        } else if (arg == "--elide") {
            opt.elide = true;
        } else if (arg == "--simulate") {
            opt.simulate = next();
        } else if (arg == "--cores") {
            opt.cores = std::stoi(next());
        } else if (arg == "--dump") {
            opt.dumpPath = next();
        } else if (arg == "--metrics-out") {
            opt.metricsOutPath = next();
        } else if (arg == "--trace-out") {
            opt.traceOutPath = next();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return false;
        }
    }
    return true;
}

void
simulate(const workloads::Workload& wl, const samplers::RunResult& run,
         const std::string& platformName, int chains, int cores)
{
    const auto platform = platformName == "skylake"
        ? archsim::Platform::skylake()
        : archsim::Platform::broadwell();
    BAYES_CHECK(platformName == "skylake" || platformName == "broadwell",
                "unknown platform '" << platformName << "'");
    const auto profile = archsim::profileWorkload(
        wl, chains, archsim::TapeKind::Reference);
    const auto sim = archsim::simulateSystem(
        profile, archsim::extractRunWork(run), platform, cores);
    std::printf("\nsimulated on %s, %d cores:\n", platform.name.c_str(),
                cores);
    std::printf("  time %.2fs  IPC %.2f  LLC MPKI %.2f  BW %.0f MB/s  "
                "power %.0fW  energy %.0fJ\n",
                sim.seconds, sim.ipc, sim.llcMpki, sim.bandwidthMBps,
                sim.powerW, sim.energyJ);
}

/**
 * The --metrics-out / --trace-out exporters. Construction starts the
 * trace collection (when requested) so every phase of the invocation —
 * sampling, elision, profiling for --simulate — lands on the timeline;
 * write() flushes both files exactly once.
 */
class ObsExports
{
  public:
    explicit ObsExports(const CliOptions& opt) : opt_(opt)
    {
        if ((!opt.traceOutPath.empty() || !opt.metricsOutPath.empty())
            && !obs::kCompiledIn)
            std::fprintf(stderr,
                         "warning: built with BAYES_OBS=OFF — metrics and "
                         "traces will be empty\n");
        if (!opt.traceOutPath.empty())
            obs::Tracer::global().start();
    }

    void
    write()
    {
        if (written_)
            return;
        written_ = true;
        if (!opt_.traceOutPath.empty()) {
            obs::Tracer::global().stop();
            std::ofstream os(opt_.traceOutPath);
            BAYES_CHECK(os, "cannot write trace file '" << opt_.traceOutPath
                                                        << "'");
            obs::Tracer::global().writeJson(os);
            std::printf("trace written to %s (%zu events; open in "
                        "chrome://tracing or ui.perfetto.dev)\n",
                        opt_.traceOutPath.c_str(),
                        obs::Tracer::global().eventCount());
        }
        if (!opt_.metricsOutPath.empty()) {
            std::ofstream os(opt_.metricsOutPath);
            BAYES_CHECK(os, "cannot write metrics file '"
                                << opt_.metricsOutPath << "'");
            obs::Registry::global().snapshot().writeJson(os);
            std::printf("metrics snapshot written to %s\n",
                        opt_.metricsOutPath.c_str());
        }
    }

  private:
    const CliOptions& opt_;
    bool written_ = false;
};

} // namespace

int
main(int argc, char** argv)
{
    CliOptions opt;
    try {
        if (!parse(argc, argv, opt)) {
            usage();
            return 2;
        }
        ObsExports exports(opt);
        const auto wl = workloads::makeWorkload(opt.workload,
                                                opt.dataScale);
        if (!opt.iterationsSet)
            opt.config.iterations = wl->info().defaultIterations;
        if (!opt.chainsSet)
            opt.config.chains = wl->info().defaultChains;

        Timer timer;
        if (opt.useAdvi) {
            samplers::AdviConfig advi;
            advi.seed = opt.config.seed;
            const auto fit = samplers::fitAdvi(*wl, advi);
            std::printf("ADVI: %s in %.1fs, %llu gradient evals, "
                        "final ELBO %.2f\n",
                        fit.converged ? "converged" : "budget exhausted",
                        timer.seconds(),
                        static_cast<unsigned long long>(fit.gradEvals),
                        fit.elboTrace.empty() ? 0.0
                                              : fit.elboTrace.back());
            for (std::size_t i = 0; i < wl->layout().dim(); ++i) {
                // Report the variational posterior via its draws.
                double mean = 0;
                for (const auto& d : fit.draws)
                    mean += d[i];
                mean /= static_cast<double>(fit.draws.size());
                std::printf("  %-16s mean %.4f\n",
                            wl->layout().coordName(i).c_str(), mean);
            }
            exports.write();
            return 0;
        }

        samplers::RunResult run;
        if (opt.elide) {
            const auto result = elide::runWithElision(*wl, opt.config);
            std::printf("elision: %s at draw %d (%d of %d iterations, "
                        "%.0f%% elided)\n",
                        result.converged ? "converged" : "not converged",
                        result.stoppedAtDraw, result.executedIterations,
                        result.budgetIterations,
                        100.0 * result.elidedFraction());
            run = result.run;
        } else {
            run = samplers::run(*wl, opt.config);
        }
        std::printf("sampled %s in %.1fs wall (%s execution)\n",
                    wl->name().c_str(), timer.seconds(),
                    samplers::executionModeName(
                        opt.config.execution.mode));

        const auto summary = diagnostics::summarize(run, wl->layout());
        std::printf("%s", summary.table().str().c_str());
        std::printf("max R-hat %.3f, min ESS %.0f\n", summary.maxRhat(),
                    summary.minEss());

        if (!opt.dumpPath.empty()) {
            writeDrawsCsv(opt.dumpPath, run, wl->layout());
            std::printf("draws written to %s\n", opt.dumpPath.c_str());
        }
        if (!opt.simulate.empty())
            simulate(*wl, run, opt.simulate, opt.config.chains, opt.cores);
        exports.write();
        return 0;
    } catch (const Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
