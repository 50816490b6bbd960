/**
 * @file
 * The two serving workloads. Both are open-loop Poisson replays at a
 * fixed 10 req/s through Server::runSchedule, cut into deterministic
 * segments of kSegmentRequests arrivals so a run measures for the
 * requested wall time on any host; segment k's trace derives from the
 * run seed and k alone.
 *
 *  - serve_mix: defaultTenantMix() (six tenants, MH/HMC, 2 chains),
 *    amortized tier off — admission, pool dispatch, the batched
 *    executor and the value-only evaluator path.
 *  - serve_repeat: NUTS requests on ad/votes (the tier's gate passes)
 *    and 12cities (it rejects and escalates), amortized tier on, so
 *    ~80% of requests repeat a cached key while cold fits and
 *    escalation runs write beside them.
 */
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"
#include "support/stats.hpp"

namespace perfbench {

using namespace bayes;

samplers::amortize::AmortizeConfig
tierConfig()
{
    samplers::amortize::AmortizeConfig config;
    config.advi.maxIterations = 400;
    config.advi.outputDraws = 256;
    config.importanceDraws = 128;
    return config;
}

namespace {

/**
 * Well below capacity (~55 req/s on 4 cores): at 40 req/s queueing amplified
 * host noise into 20-80% run-to-run latency swings. The server's
 * virtual clock skips idle gaps, so the rate costs no wall time.
 */
constexpr double kArrivalRate = 10.0;
constexpr std::size_t kSegmentRequests = 50;
constexpr std::size_t kWarmupRequests = 30;
constexpr int kSetups = 3;

struct ServeWorkload
{
    serve::ServerConfig server;
    std::vector<serve::TenantSpec> mix;
};

ServeWorkload
serveMix()
{
    return {serve::ServerConfig{}, serve::defaultTenantMix()};
}

ServeWorkload
serveRepeat()
{
    ServeWorkload w;
    w.server.amortizedTier = true;
    w.server.amortize = tierConfig();
    samplers::Config nuts;
    nuts.algorithm = samplers::Algorithm::Nuts;
    nuts.chains = 2;
    nuts.iterations = 200;
    for (const char* name : kRepeatModels) {
        serve::TenantSpec& spec = w.mix.emplace_back();
        spec.tenant = name;
        spec.workload = name;
        spec.dataScale = kRepeatScale;
        // ad and votes carry 4/5 of the traffic: the repeats the tier
        // answers; 12cities escalates every time.
        spec.weight = std::string(name) == "12cities" ? 1.0 : 2.0;
        spec.deadlineSeconds = std::numeric_limits<double>::infinity();
        spec.config = nuts;
    }
    return w;
}

/** Segment @p k of the run's trace, starting at virtual time @p t0. */
std::vector<serve::Request>
segment(const ServeWorkload& w, std::uint64_t seed, std::uint64_t k,
        std::size_t requests, double t0)
{
    std::vector<serve::TenantSpec> mix = w.mix;
    for (serve::TenantSpec& spec : mix)
        spec.config.seed = deriveSeed(seed, 2 * k + 1);
    serve::LoadConfig load;
    load.arrivalRatePerSecond = kArrivalRate;
    load.requests = requests;
    load.seed = deriveSeed(seed, 2 * k);
    std::vector<serve::Request> trace =
        serve::LoadGenerator(load, std::move(mix)).schedule();
    for (serve::Request& r : trace)
        r.arrivalSeconds += t0;
    return trace;
}

/**
 * A warmed server: the model cache holds every tenant key, and a short
 * replay has spun up the pool and, with the amortized tier on, made
 * the one-time cold fit of every key. Set-up cost shows in setup_s.
 */
std::unique_ptr<serve::Server>
setUp(const ServeWorkload& w)
{
    auto server = std::make_unique<serve::Server>(w.server);
    for (const serve::TenantSpec& spec : w.mix) {
        serve::Request probe;
        probe.workload = spec.workload;
        probe.dataScale = spec.dataScale;
        probe.config = spec.config;
        server->estimatedServiceSeconds(probe);
    }
    server->runSchedule(segment(w, ~0ULL, 0, kWarmupRequests, 0.0));
    return server;
}

/** What one replay phase produced. */
struct Replay
{
    std::vector<serve::Request> requests;
    std::vector<serve::Response> responses;
    double wallSeconds = 0.0;
    std::uint64_t segments = 0;
    std::uint64_t admitted = 0, shed = 0, misses = 0, warmHits = 0,
                  warmMisses = 0;
    /** Amortized-tier accounting over this replay only. */
    samplers::amortize::Stats tier;
};

/**
 * Replay segments on @p server until @p seconds of wall time are spent
 * (at least one), or exactly @p segments when nonzero.
 */
Replay
replay(serve::Server& server, const ServeWorkload& w, std::uint64_t seed,
       double seconds, std::uint64_t segments = 0)
{
    Replay out;
    const std::size_t firstId = server.responses().size();
    const std::uint64_t admitted0 = server.admitted();
    const std::uint64_t shed0 = server.shedCount();
    const std::uint64_t misses0 = server.deadlineMisses();
    const std::uint64_t hits0 = server.warmHits();
    const std::uint64_t warmMisses0 = server.warmMisses();
    const samplers::amortize::Stats tier0 = server.amortStats();
    while (segments ? out.segments < segments
                    : out.segments == 0 || out.wallSeconds < seconds) {
        std::vector<serve::Request> trace = segment(
            w, seed, out.segments, kSegmentRequests, server.virtualNow());
        out.requests.insert(out.requests.end(), trace.begin(), trace.end());
        const double start = now();
        {
            obs::Span span("perfbench.serve.runSchedule");
            server.runSchedule(std::move(trace));
        }
        out.wallSeconds += now() - start;
        ++out.segments;
    }
    out.responses.assign(server.responses().begin() + firstId,
                         server.responses().end());
    out.admitted = server.admitted() - admitted0;
    out.shed = server.shedCount() - shed0;
    out.misses = server.deadlineMisses() - misses0;
    out.warmHits = server.warmHits() - hits0;
    out.warmMisses = server.warmMisses() - warmMisses0;
    const samplers::amortize::Stats tier = server.amortStats();
    out.tier.requests = tier.requests - tier0.requests;
    out.tier.served = tier.served - tier0.served;
    out.tier.escalated = tier.escalated - tier0.escalated;
    out.tier.cold = tier.cold - tier0.cold;
    return out;
}

double
quantileOr0(const std::vector<double>& xs, double q)
{
    return xs.empty() ? 0.0 : quantile(xs, q);
}

/** Failed operations and correctness checks over one replay. */
void
check(const Replay& r, bool amortized, Outcome& out)
{
    out.attempted += r.requests.size();
    if (r.responses.size() != r.requests.size())
        out.checkFailed("response count " + std::to_string(r.responses.size())
                        + " != request count "
                        + std::to_string(r.requests.size()));
    for (const serve::Response& resp : r.responses) {
        if (resp.status == serve::RequestStatus::Queued) {
            out.checkFailed("request " + std::to_string(resp.id)
                            + " never reached a terminal state");
            continue;
        }
        if (resp.status != serve::RequestStatus::Ok) {
            ++out.failed; // shed, deadline miss or failed run
            continue;
        }
        bool finite = !resp.posteriorMean.empty();
        for (double m : resp.posteriorMean)
            finite = finite && std::isfinite(m);
        if (!finite)
            out.checkFailed("request " + std::to_string(resp.id)
                            + " has a non-finite posterior mean");
        if (resp.servedAmortized && resp.escalated)
            out.checkFailed("request " + std::to_string(resp.id)
                            + " is both amortized and escalated");
        if (!amortized && resp.servedAmortized)
            out.checkFailed("request " + std::to_string(resp.id)
                            + " served by a disabled tier");
    }
    if (amortized) {
        const samplers::amortize::Stats& s = r.tier;
        if (s.served + s.escalated + s.cold != s.requests
            || s.requests != r.requests.size())
            out.checkFailed("tier accounting: served " + std::to_string(s.served)
                            + " + escalated " + std::to_string(s.escalated)
                            + " + cold " + std::to_string(s.cold)
                            + " != requests " + std::to_string(s.requests));
    }
}

/** End-to-end metrics of a replay; every request is one posterior. */
void
endToEnd(const Replay& r, Outcome& out)
{
    std::vector<double> latency;
    for (const serve::Response& resp : r.responses)
        if (resp.status == serve::RequestStatus::Ok)
            latency.push_back(resp.latencySeconds);
    out.metrics["capacity_rps"] = {
        static_cast<double>(latency.size()) / r.wallSeconds, "1/s"};
    out.metrics["latency_p99_s"] = {quantileOr0(latency, 0.99), "s"};
    out.metrics["geomean_posterior_s"] = {
        latency.empty() ? 0.0 : geometricMean(latency), "s"};
}

/**
 * Computed executor overhead of the MH/HMC requests: 1 − the time
 * their rounds would take at the probed 2-lane batch cost ÷ their
 * measured service time. 0 when the replay ran neither (NUTS requests
 * have no fixed evaluation count).
 */
double
overheadFraction(const Replay& r, const Metrics& probes)
{
    double ideal = 0.0;
    double service = 0.0;
    for (std::size_t i = 0; i < r.responses.size(); ++i) {
        const serve::Request& req = r.requests[i];
        const serve::Response& resp = r.responses[i];
        if (resp.status != serve::RequestStatus::Ok || resp.servedAmortized)
            continue;
        double perRound = 0.0;
        if (req.config.algorithm == samplers::Algorithm::Mh)
            perRound = probes.at("ppl.logprob_us." + req.workload).value;
        else if (req.config.algorithm == samplers::Algorithm::Hmc)
            perRound = probes.at("ppl.batch_grad_us." + req.workload).value
                * req.config.hmcLeapfrogSteps;
        else
            continue;
        ideal += perRound * 1e-6 * req.config.iterations;
        service += resp.serviceSeconds;
    }
    return service > 0.0 ? 1.0 - ideal / service : 0.0;
}

/** Per-layer metrics of the traced replay. */
void
perLayer(const Replay& r, double untracedWall, Outcome& out)
{
    Metrics& m = out.metrics;
    std::vector<double> latency, wait, service, interactive;
    double serviceSum = 0.0;
    for (const serve::Response& resp : r.responses) {
        if (resp.status == serve::RequestStatus::Shed
            || resp.status == serve::RequestStatus::Failed)
            continue;
        latency.push_back(resp.latencySeconds);
        wait.push_back(resp.queueWaitSeconds);
        service.push_back(resp.serviceSeconds);
        serviceSum += resp.serviceSeconds;
        if (resp.slo == serve::SloClass::Interactive)
            interactive.push_back(resp.latencySeconds);
    }
    m["latency_p50_s"] = {quantileOr0(latency, 0.50), "s"};
    m["serve.queue_wait_p50_s"] = {quantileOr0(wait, 0.50), "s"};
    m["serve.queue_wait_p99_s"] = {quantileOr0(wait, 0.99), "s"};
    m["serve.service_p50_s"] = {quantileOr0(service, 0.50), "s"};
    m["serve.service_p99_s"] = {quantileOr0(service, 0.99), "s"};
    m["serve.interactive_p95_s"] = {quantileOr0(interactive, 0.95), "s"};
    m["serve.unbilled_s"] = {r.wallSeconds - serviceSum, "s"};
    m["serve.admitted"] = {static_cast<double>(r.admitted), "count"};
    m["serve.shed"] = {static_cast<double>(r.shed), "count"};
    m["serve.deadline_miss"] = {static_cast<double>(r.misses), "count"};
    m["serve.warm_hits"] = {static_cast<double>(r.warmHits), "count"};
    m["serve.warm_misses"] = {static_cast<double>(r.warmMisses), "count"};

    // Admission cost model vs measured service of full sampling runs,
    // per workload key, priced by a tier-off server so every estimate
    // is the full-run model.
    serve::Server estimator;
    std::map<std::string, std::vector<double>> ratios;
    for (std::size_t i = 0; i < r.responses.size(); ++i) {
        const serve::Response& resp = r.responses[i];
        if (resp.status != serve::RequestStatus::Ok || resp.servedAmortized)
            continue;
        ratios[resp.workload].push_back(
            estimator.estimatedServiceSeconds(r.requests[i])
            / resp.serviceSeconds);
    }
    for (auto& [workload, values] : ratios)
        m["serve.cost_model_ratio." + workload] = {median(values), "ratio"};

    m["samplers.overhead_frac"] = {overheadFraction(r, m), "fraction"};
    m["trace_overhead_frac"] = {r.wallSeconds / untracedWall - 1.0,
                                "fraction"};
}

void
runServe(const ServeWorkload& w, const Options& options, Outcome& out)
{
    // Set-up (model cache, datasets, pool) is repeated; the median is
    // setup_s and the last server(s) built carry the measurement.
    std::vector<double> setups;
    std::vector<std::unique_ptr<serve::Server>> servers;
    const int builds = options.trace ? 2 : 1;
    for (int i = 0; i < kSetups; ++i) {
        const double start = now();
        auto server = setUp(w);
        setups.push_back(now() - start);
        servers.push_back(std::move(server));
        if (servers.size() > static_cast<std::size_t>(builds))
            servers.erase(servers.begin());
    }

    const bool amortized = w.server.amortizedTier;
    if (!options.trace) {
        const Replay r = replay(*servers[0], w, options.seed, options.seconds);
        check(r, amortized, out);
        endToEnd(r, out);
        out.metrics["setup_s"] = {median(setups), "s"};
        return;
    }

    // Traced: the same segments twice on twin servers, untraced then
    // traced; per-layer numbers come from the traced replay alone.
    const Replay plain =
        replay(*servers[0], w, options.seed, options.seconds / 2.0);
    check(plain, amortized, out);
    obs::Registry::global().reset();
    obs::Tracer::global().start();
    const Replay traced =
        replay(*servers[1], w, options.seed, 0.0, plain.segments);
    obs::Tracer::global().stop();
    check(traced, amortized, out);
    perLayer(traced, plain.wallSeconds, out);
}

} // namespace

void
runServeMix(const Options& options, Outcome& out)
{
    runServe(serveMix(), options, out);
}

void
runServeRepeat(const Options& options, Outcome& out)
{
    runServe(serveRepeat(), options, out);
}

} // namespace perfbench
