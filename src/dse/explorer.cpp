#include "dse/explorer.hpp"

#include <algorithm>
#include <cmath>

#include <functional>
#include <future>

#include "diagnostics/convergence.hpp"
#include "diagnostics/summary.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/thread_pool.hpp"

namespace bayes::dse {
namespace {

/** Exploration telemetry (catalogued in docs/observability.md). */
struct DseMetrics
{
    obs::Counter& explorations =
        obs::Registry::global().counter("dse.explorations");
    obs::Counter& samplingRuns =
        obs::Registry::global().counter("dse.sampling_runs");
    obs::Counter& points = obs::Registry::global().counter("dse.points");
    obs::Counter& pointsQualityOk =
        obs::Registry::global().counter("dse.points_quality_ok");
    obs::Gauge& oracleEnergyJ =
        obs::Registry::global().gauge("dse.oracle_energy_j");
    obs::Gauge& elisionEnergySaving =
        obs::Registry::global().gauge("dse.elision_energy_saving");
    obs::Histogram& pointEnergyJ =
        obs::Registry::global().histogram("dse.point_energy_j");
    obs::Histogram& pointKl =
        obs::Registry::global().histogram("dse.point_kl");

    static DseMetrics& get()
    {
        static DseMetrics* m = new DseMetrics; // leaked, like Registry
        return *m;
    }
};

/** Pool draws per coordinate: [coordinate][sample]. */
std::vector<std::vector<double>>
pooledByCoordinate(const samplers::RunResult& run)
{
    BAYES_CHECK(!run.chains.empty() && !run.chains[0].draws.empty(),
                "empty run");
    const std::size_t dim = run.chains[0].draws[0].size();
    std::vector<std::vector<double>> out(dim);
    for (std::size_t i = 0; i < dim; ++i)
        out[i] = diagnostics::pooledCoordinate(run, i);
    return out;
}

} // namespace

double
DseResult::elisionEnergySaving() const
{
    return 1.0 - bestElision().energyJ / user.energyJ;
}

double
DseResult::oracleEnergySaving() const
{
    return 1.0 - oracle.energyJ / user.energyJ;
}

const DesignPoint&
DseResult::bestElision() const
{
    BAYES_CHECK(!elision.empty(), "no elision points");
    const DesignPoint* best = &elision.front();
    for (const auto& p : elision)
        if (p.energyJ < best->energyJ)
            best = &p;
    return *best;
}

DseResult
explore(const workloads::Workload& workload,
        const archsim::Platform& platform, const DseConfig& config)
{
    BAYES_CHECK(!config.coreCounts.empty() && !config.chainCounts.empty()
                    && !config.iterFractions.empty(),
                "empty exploration grid");
    obs::Span exploreSpan("dse.explore");
    DseMetrics& metrics = DseMetrics::get();
    metrics.explorations.add();
    DseResult result;
    result.workload = workload.name();
    result.platform = platform.name;

    const int userChains = workload.info().defaultChains;
    const int userIters = workload.info().defaultIterations;

    // Every sampling run (ground truth, user setting, grid candidates,
    // elided run) is seeded independently, so they are order-free: in a
    // parallel driver mode each one becomes a task on the shared pool
    // and the coordinating thread waits for the whole batch. Inner runs
    // stay Sequential — the parallelism is at run granularity.
    const bool pooledDriver =
        config.execution.mode != samplers::ExecutionMode::Sequential;
    std::vector<std::future<void>> pending;
    auto dispatch = [&](std::string label,
                        std::function<void()> samplingTask) {
        metrics.samplingRuns.add();
        auto traced = [label = std::move(label),
                       task = std::move(samplingTask)] {
            obs::Span span("dse.run:" + label);
            task();
        };
        if (pooledDriver)
            pending.push_back(support::sharedPool(config.execution.workers)
                                  .submit(std::move(traced)));
        else
            traced();
    };

    // Ground truth: the user configuration with twice the iterations.
    samplers::Config gtCfg;
    gtCfg.chains = userChains;
    gtCfg.iterations = userIters * 2;
    gtCfg.seed = config.seed ^ 0x5157u;
    samplers::RunResult gtRun;
    dispatch("ground-truth", [&gtRun, &workload, gtCfg] {
        gtRun = samplers::run(workload, gtCfg);
    });

    // The user setting itself.
    samplers::Config userCfg;
    userCfg.chains = userChains;
    userCfg.iterations = userIters;
    userCfg.seed = config.seed;
    samplers::RunResult userRun;
    dispatch("user", [&userRun, &workload, userCfg] {
        userRun = samplers::run(workload, userCfg);
    });

    // Grid candidates: one sampling run per (chains, iteration budget).
    struct Candidate
    {
        int chains;
        int iterations;
        double fraction;
        samplers::RunResult run;
    };
    std::vector<Candidate> candidates;
    candidates.reserve(config.chainCounts.size()
                       * config.iterFractions.size());
    for (int chains : config.chainCounts) {
        for (double frac : config.iterFractions) {
            const int iters = std::max(
                40, static_cast<int>(std::lround(frac * userIters)));
            candidates.push_back(Candidate{chains, iters, frac, {}});
        }
    }
    for (auto& cand : candidates) {
        samplers::Config cfg;
        cfg.chains = cand.chains;
        cfg.iterations = cand.iterations;
        cfg.seed = config.seed + cand.chains * 1000 + cand.iterations;
        dispatch(std::to_string(cand.chains) + "ch-"
                     + std::to_string(cand.iterations) + "it",
                 [&cand, &workload, cfg] {
                     cand.run = samplers::run(workload, cfg);
                 });
    }

    // Elision-achievable run: 4 chains + runtime detection.
    samplers::Config cdCfg;
    cdCfg.chains = userChains;
    cdCfg.iterations = userIters;
    cdCfg.seed = config.seed;
    elide::ElisionResult elided;
    dispatch("cd", [&elided, &workload, cdCfg] {
        elided = elide::runWithElision(workload, cdCfg);
    });

    support::waitAll(pending);

    const auto groundTruth = pooledByCoordinate(gtRun);

    // Profiles per chain count (memory behavior depends on residency).
    std::vector<archsim::WorkloadProfile> profiles(
        *std::max_element(config.chainCounts.begin(),
                          config.chainCounts.end())
        + 1);
    auto profileFor = [&](int chains) -> const archsim::WorkloadProfile& {
        auto& slot = profiles[chains];
        if (slot.chains.empty())
            slot = archsim::profileWorkload(
                workload, chains, archsim::TapeKind::Reference);
        return slot;
    };

    auto evaluate = [&](const samplers::RunResult& run, int chains,
                        int cores, int iterations, bool usedElision,
                        std::string label) {
        const auto work = archsim::extractRunWork(run);
        const auto sim = archsim::simulateSystem(profileFor(chains), work,
                                                 platform, cores);
        DesignPoint p;
        p.label = std::move(label);
        p.cores = cores;
        p.chains = chains;
        p.iterations = iterations;
        p.elided = usedElision;
        p.seconds = sim.seconds;
        p.energyJ = sim.energyJ;
        p.kl = diagnostics::gaussianKl(pooledByCoordinate(run), groundTruth);
        return p;
    };

    // The user setting itself, on all platform cores (up to 4).
    const int userCores =
        std::min(4, std::min(platform.cores, userChains));
    result.user =
        evaluate(userRun, userChains, userCores, userIters, false, "user");
    result.user.qualityOk = true;
    const double klGate =
        std::max(config.klFloor, config.klFactor * result.user.kl);

    // Grid: (chains, iteration fraction) sampling runs x core counts.
    for (const auto& cand : candidates) {
        for (int cores : config.coreCounts) {
            if (cores > platform.cores)
                continue;
            auto p = evaluate(
                cand.run, cand.chains, cores, cand.iterations, false,
                std::to_string(cand.chains) + "ch-"
                    + std::to_string(
                        static_cast<int>(std::lround(cand.fraction * 100)))
                    + "%-" + std::to_string(cores) + "c");
            p.qualityOk = p.kl <= klGate;
            result.grid.push_back(std::move(p));
        }
    }

    // Elision-achievable points: 4 chains + runtime detection.
    const int elidedIters = elided.executedIterations;
    for (int cores : config.coreCounts) {
        if (cores > platform.cores)
            continue;
        auto p = evaluate(elided.run, userChains, cores, elidedIters, true,
                          "cd-" + std::to_string(cores) + "c");
        p.qualityOk = p.kl <= klGate;
        result.elision.push_back(std::move(p));
    }

    // Energy oracle: cheapest quality-passing point anywhere.
    const DesignPoint* oracle = &result.user;
    auto consider = [&](const DesignPoint& p) {
        if (p.qualityOk && p.energyJ < oracle->energyJ)
            oracle = &p;
    };
    for (const auto& p : result.grid)
        consider(p);
    for (const auto& p : result.elision)
        consider(p);
    result.oracle = *oracle;

    // Per-grid-point rollups for the metrics exporter.
    auto rollup = [&](const DesignPoint& p) {
        metrics.points.add();
        if (p.qualityOk)
            metrics.pointsQualityOk.add();
        metrics.pointEnergyJ.observe(p.energyJ);
        metrics.pointKl.observe(p.kl);
    };
    rollup(result.user);
    for (const auto& p : result.grid)
        rollup(p);
    for (const auto& p : result.elision)
        rollup(p);
    metrics.oracleEnergyJ.set(result.oracle.energyJ);
    metrics.elisionEnergySaving.set(result.elisionEnergySaving());
    return result;
}

} // namespace bayes::dse
