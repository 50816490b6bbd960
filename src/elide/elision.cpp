#include "elide/elision.hpp"

#include <algorithm>

#include "diagnostics/convergence.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/timer.hpp"

namespace bayes::elide {
namespace {

/** Detector telemetry (catalogued in docs/observability.md). */
struct ElideMetrics
{
    obs::Counter& checks = obs::Registry::global().counter("elide.checks");
    obs::Counter& convergedRuns =
        obs::Registry::global().counter("elide.converged_runs");
    obs::Counter& elidedIterations =
        obs::Registry::global().counter("elide.elided_iterations");
    obs::Gauge& lastRhat = obs::Registry::global().gauge("elide.last_rhat");
    obs::Gauge& stopDraw = obs::Registry::global().gauge("elide.stop_draw");
    obs::Histogram& rhat = obs::Registry::global().histogram("elide.rhat");
    obs::Histogram& checkSeconds =
        obs::Registry::global().histogram("elide.check_seconds");

    static ElideMetrics& get()
    {
        static ElideMetrics* m = new ElideMetrics; // leaked, like Registry
        return *m;
    }
};

} // namespace

double
ElisionResult::elidedFraction() const
{
    if (!converged || budgetIterations == 0)
        return 0.0;
    return 1.0
        - static_cast<double>(executedIterations)
        / static_cast<double>(budgetIterations);
}

double
detectorRhat(const std::vector<samplers::ChainResult>& chains,
             int drawsSoFar, double windowFraction)
{
    BAYES_CHECK(!chains.empty(), "no chains");
    BAYES_CHECK(drawsSoFar >= 4, "too few draws for R-hat");
    BAYES_CHECK(windowFraction > 0.0 && windowFraction <= 1.0,
                "window fraction must be in (0, 1], got " << windowFraction);
    const std::size_t keep = std::max<std::size_t>(
        4, static_cast<std::size_t>(windowFraction * drawsSoFar));
    const std::size_t start =
        static_cast<std::size_t>(drawsSoFar) > keep
        ? static_cast<std::size_t>(drawsSoFar) - keep
        : 0;

    const std::size_t dim = chains[0].draws[0].size();
    double worst = 1.0;
    std::vector<std::vector<double>> window(chains.size());
    for (std::size_t i = 0; i < dim; ++i) {
        for (std::size_t c = 0; c < chains.size(); ++c) {
            auto& xs = window[c];
            xs.clear();
            for (std::size_t t = start;
                 t < static_cast<std::size_t>(drawsSoFar); ++t)
                xs.push_back(chains[c].draws[t][i]);
        }
        worst = std::max(worst, diagnostics::splitRhat(window));
        if (!(worst < INFINITY))
            break;
    }
    return worst;
}

bool
detectorChecksAt(const ElisionConfig& config, int draw)
{
    return draw >= config.minDraws && draw % config.checkInterval == 0;
}

std::vector<RhatSample>
convergenceTrace(const std::vector<samplers::ChainResult>& chains,
                 const ElisionConfig& config)
{
    BAYES_CHECK(!chains.empty() && !chains[0].draws.empty(),
                "convergenceTrace needs a completed run");
    BAYES_CHECK(config.checkInterval >= 1,
                "check interval must be >= 1, got " << config.checkInterval);
    const int draws = static_cast<int>(chains[0].draws.size());
    std::vector<RhatSample> trace;
    for (int draw = 1; draw <= draws; ++draw)
        if (detectorChecksAt(config, draw))
            trace.push_back(RhatSample{
                draw, detectorRhat(chains, draw, config.windowFraction)});
    return trace;
}

ElisionResult
runWithElision(const ppl::Model& model, const samplers::Config& config,
               const ElisionConfig& elision)
{
    BAYES_CHECK(config.chains >= 2,
                "convergence detection needs at least two chains");
    BAYES_CHECK(elision.checkInterval >= 1,
                "check interval must be >= 1, got " << elision.checkInterval);
    // Elided schedule: short fixed adaptation, detection thereafter.
    samplers::Config elidedCfg = config;
    elidedCfg.warmup =
        std::min(config.resolvedWarmup(), elision.adaptationIters);

    ElisionResult result;
    result.budgetDraws = elidedCfg.postWarmup();
    result.budgetIterations = config.iterations;

    ElideMetrics& metrics = ElideMetrics::get();

    // Runs on the coordinating thread with every chain parked between
    // segments (any ExecutionPolicy), so plain writes to `result` are
    // safe and the stop decision is schedule-independent. Segments end
    // at multiples of checkInterval; the first check waits for minDraws.
    const auto check =
        [&](const samplers::MonitorContext& ctx) -> samplers::MonitorAction {
        if (!detectorChecksAt(elision, ctx.draws))
            return samplers::MonitorAction::Continue;
        Timer timer;
        double rhat;
        {
            obs::Span span("elide.rhat_check");
            rhat = detectorRhat(ctx.chains, ctx.draws,
                                elision.windowFraction);
        }
        const double checkSeconds = timer.seconds();
        result.detectorSeconds += checkSeconds;
        result.rhatTrace.push_back(RhatSample{ctx.draws, rhat});
        metrics.checks.add();
        metrics.checkSeconds.observe(checkSeconds);
        metrics.rhat.observe(rhat);
        metrics.lastRhat.set(rhat);
        // The R-hat trajectory as a Perfetto counter track.
        obs::Tracer::global().counter("elide.rhat", rhat);
        if (rhat < elision.rhatThreshold) {
            result.converged = true;
            result.stoppedAtDraw = ctx.draws;
            return samplers::MonitorAction::Stop;
        }
        return samplers::MonitorAction::Continue;
    };

    result.run =
        samplers::run(model, elidedCfg, {check, elision.checkInterval});
    if (!result.converged)
        result.stoppedAtDraw =
            static_cast<int>(result.run.chains[0].draws.size());
    result.executedIterations =
        static_cast<int>(result.run.chains[0].iterStats.size());
    metrics.stopDraw.set(result.stoppedAtDraw);
    if (result.converged) {
        metrics.convergedRuns.add();
        metrics.elidedIterations.add(static_cast<std::uint64_t>(
            std::max(0, result.budgetIterations
                            - result.executedIterations)));
    }
    return result;
}

} // namespace bayes::elide
