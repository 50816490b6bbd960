#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "diagnostics/summary.hpp"
#include "obs/obs.hpp"
#include "ppl/evaluator.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bayes::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Projected service time of an amortized-tier answer: admission's
 * cost model prices a request at this when its cached gate passes. */
constexpr double kAmortizedServiceSeconds = 500e-6;

/** Serving telemetry (catalogued in docs/observability.md). */
struct ServeMetrics
{
    obs::Counter& admitted =
        obs::Registry::global().counter("serve.admitted");
    obs::Counter& shed = obs::Registry::global().counter("serve.shed");
    obs::Counter& deadlineMiss =
        obs::Registry::global().counter("serve.deadline_miss");
    obs::Counter& failed = obs::Registry::global().counter("serve.failed");
    obs::Counter& warmHits =
        obs::Registry::global().counter("serve.warm_hits");
    obs::Counter& warmMisses =
        obs::Registry::global().counter("serve.warm_misses");
    obs::Counter& warmEvictions =
        obs::Registry::global().counter("serve.warm_evictions");
    obs::Histogram& queueDepth =
        obs::Registry::global().histogram("serve.queue_depth");
    obs::Histogram& requestLatency =
        obs::Registry::global().histogram("serve.request_latency");
    obs::Histogram& serviceSeconds =
        obs::Registry::global().histogram("serve.service_seconds");

    static ServeMetrics& get()
    {
        static ServeMetrics* m = new ServeMetrics; // leaked, like Registry
        return *m;
    }
};

/**
 * Coarse per-chain evaluation-count model for the admission projection.
 * Deliberately deterministic (no measurement feedback): admit-vs-shed
 * must be reproducible under a fixed seed.
 */
double
estimatedEvalsPerChain(const samplers::Config& config, std::size_t dim)
{
    const double iterations = static_cast<double>(config.iterations);
    switch (config.algorithm) {
      case samplers::Algorithm::Mh:
        return iterations;
      case samplers::Algorithm::Hmc:
        return iterations * static_cast<double>(config.hmcLeapfrogSteps);
      case samplers::Algorithm::Nuts:
        // Typical adapted tree depth is ~4 (2^4 gradient evals).
        return iterations * 16.0;
      case samplers::Algorithm::Slice:
        // Stepping out + shrinkage averages a handful of density
        // evaluations per coordinate per sweep.
        return iterations * static_cast<double>(dim) * 5.0;
    }
    return iterations;
}

} // namespace

const char*
sloClassName(SloClass slo)
{
    switch (slo) {
      case SloClass::Interactive:
        return "interactive";
      case SloClass::Standard:
        return "standard";
      case SloClass::Batch:
        return "batch";
    }
    return "?";
}

double
defaultDeadlineSeconds(SloClass slo)
{
    switch (slo) {
      case SloClass::Interactive:
        return 5.0;
      case SloClass::Standard:
        return 30.0;
      case SloClass::Batch:
        return kInf;
    }
    return kInf;
}

const char*
requestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::Queued:
        return "queued";
      case RequestStatus::Ok:
        return "ok";
      case RequestStatus::Shed:
        return "shed";
      case RequestStatus::DeadlineMiss:
        return "deadline-miss";
      case RequestStatus::Failed:
        return "failed";
    }
    return "?";
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), amortCache_(config_.amortize)
{
    BAYES_CHECK(config_.queueCapacity >= 1,
                "serve: queue capacity must be >= 1");
    BAYES_CHECK(config_.warmCacheCapacity >= 1,
                "serve: warm cache capacity must be >= 1");
}

Server::~Server() = default;

std::shared_ptr<Server::WarmModel>
Server::warm(const std::string& name, double dataScale)
{
    // Checked before the lookup: a NaN scale compares equivalent to
    // every cached scale of the workload and would alias its entry.
    BAYES_CHECK(dataScale > 0.0 && dataScale <= 1.0,
                "serve: dataScale must be in (0, 1], got " << dataScale);
    const auto key = std::make_pair(name, dataScale);
    auto it = warmCache_.find(key);
    if (it != warmCache_.end()) {
        ++warmHits_;
        ServeMetrics::get().warmHits.add();
        it->second->lastUse = ++warmUseTick_;
        return it->second;
    }
    ++warmMisses_;
    ServeMetrics::get().warmMisses.add();
    auto entry = std::make_shared<WarmModel>();
    entry->model = workloads::makeWorkload(name, dataScale);
    // Profile once at the origin: the work-intensity term of the
    // admission cost model.
    ppl::Evaluator eval(*entry->model);
    std::vector<double> q(eval.dim(), 0.0);
    std::vector<double> grad;
    eval.logProbGrad(q, grad);
    entry->nodesPerEval = static_cast<double>(eval.lastTapeNodes());
    entry->amortDigest =
        samplers::amortize::AmortizedCache::statsDigest(*entry->model);
    entry->lastUse = ++warmUseTick_;
    warmCache_.emplace(key, entry);
    // LRU bound: evict the stalest key. The entry just inserted carries
    // the freshest tick, so it is never the victim; queued and running
    // requests hold their own shared_ptr and are unaffected.
    while (warmCache_.size() > config_.warmCacheCapacity) {
        auto victim = warmCache_.begin();
        for (auto cand = warmCache_.begin(); cand != warmCache_.end();
             ++cand)
            if (cand->second->lastUse < victim->second->lastUse)
                victim = cand;
        warmCache_.erase(victim);
        ++warmEvictions_;
        ServeMetrics::get().warmEvictions.add();
    }
    return entry;
}

double
Server::estimate(const Request& request, const WarmModel& warmModel)
{
    // Tier projection: when the cached posterior's gate currently
    // passes, the request will be answered by the cheap tier at a flat
    // (tiny) cost — project that instead of the full-run cost so
    // admission does not shed repeat traffic the tier can absorb.
    if (config_.amortizedTier && !warmModel.amortDigest.empty()) {
        const samplers::amortize::CacheKey key{
            request.workload, warmModel.amortDigest, request.dataScale};
        const samplers::amortize::Entry* cached = amortCache_.find(key);
        if (cached != nullptr && amortCache_.gate(*cached).pass)
            return kAmortizedServiceSeconds;
    }
    const double perChain = estimatedEvalsPerChain(
        request.config, warmModel.model->layout().dim());
    const double evals =
        perChain * static_cast<double>(std::max(1, request.config.chains));
    return evals
        * (config_.costPerEvalSeconds
           + warmModel.nodesPerEval * config_.costPerNodeSeconds);
}

double
Server::estimatedServiceSeconds(const Request& request)
{
    return estimate(request, *warm(request.workload, request.dataScale));
}

std::size_t
Server::queueDepth() const
{
    std::size_t depth = 0;
    for (const auto& queue : queues_)
        depth += queue.size();
    return depth;
}

double
Server::projectedWaitSeconds(SloClass slo) const
{
    // Everything that will be served before a new arrival of class
    // `slo`: all queued requests of strictly higher priority plus the
    // ones already waiting in its own class.
    double wait = 0.0;
    for (std::size_t c = 0; c <= static_cast<std::size_t>(slo); ++c)
        for (const QueueEntry& entry : queues_[c])
            wait += entry.estimatedSeconds;
    return wait;
}

void
Server::shed(Response& response)
{
    response.status = RequestStatus::Shed;
    response.startSeconds = response.arrivalSeconds;
    response.completionSeconds = response.arrivalSeconds;
    ++shed_;
    ServeMetrics::get().shed.add();
}

void
Server::fail(Response& response, const std::string& why)
{
    response.status = RequestStatus::Failed;
    response.error = why;
    response.startSeconds = response.arrivalSeconds;
    response.completionSeconds = response.arrivalSeconds;
    ServeMetrics::get().failed.add();
}

std::uint64_t
Server::submit(Request request)
{
    const std::uint64_t id = responses_.size();
    Response& response = responses_.emplace_back();
    response.id = id;
    response.tenant = request.tenant;
    response.workload = request.workload;
    response.slo = request.slo;
    response.arrivalSeconds = request.arrivalSeconds < 0.0
        ? virtualNow_
        : request.arrivalSeconds;
    const double deadline = request.deadlineSeconds < 0.0
        ? defaultDeadlineSeconds(request.slo)
        : request.deadlineSeconds;
    response.deadlineSeconds = deadline;

    // Criterion 1, malformed request: a NaN time or a +inf arrival
    // would poison the virtual clock and the latency histogram; warm()
    // rejects unknown workloads and scales outside (0, 1]. The one
    // warm-cache lookup of the request also prices it.
    std::shared_ptr<WarmModel> model;
    double estimated = 0.0;
    std::string malformed;
    try {
        BAYES_CHECK(request.arrivalSeconds < kInf,
                    "serve: arrivalSeconds must not be NaN or +inf, got "
                        << request.arrivalSeconds);
        BAYES_CHECK(!std::isnan(request.deadlineSeconds),
                    "serve: deadlineSeconds must not be NaN");
        model = warm(request.workload, request.dataScale);
        estimated = estimate(request, *model);
    } catch (const Error& e) {
        malformed = e.what();
    }

    if (model == nullptr) {
        fail(response, malformed);
    } else if (deadline <= 0.0) {
        shed(response); // criterion 2: unsatisfiable by definition
    } else if (queueDepth() >= config_.queueCapacity) {
        shed(response); // criterion 3: bounded queue
    } else if (projectedWaitSeconds(request.slo) + estimated > deadline) {
        shed(response); // criterion 4: projected completion past deadline
    } else {
        queues_[static_cast<std::size_t>(response.slo)].push_back(
            {id, std::move(request), std::move(model), estimated});
        ++admitted_;
        ServeMetrics::get().admitted.add();
    }
    ServeMetrics::get().queueDepth.observe(static_cast<double>(queueDepth()));
    return id;
}

void
Server::serveNext()
{
    auto queue = queues_.begin();
    while (queue != queues_.end() && queue->empty())
        ++queue;
    if (queue == queues_.end())
        return;
    const QueueEntry entry = std::move(queue->front());
    queue->pop_front();

    Response& response = responses_[entry.id];
    servedOrder_.push_back(entry.id);
    response.startSeconds = std::max(virtualNow_, response.arrivalSeconds);
    response.queueWaitSeconds =
        response.startSeconds - response.arrivalSeconds;

    if (response.queueWaitSeconds > response.deadlineSeconds) {
        // Expired while waiting: answering with a late full run would
        // only push every later request past its deadline too, so the
        // miss is recorded without running.
        response.status = RequestStatus::DeadlineMiss;
        response.completionSeconds = response.startSeconds;
        response.latencySeconds = response.queueWaitSeconds;
        ++deadlineMisses_;
        ServeMetrics::get().deadlineMiss.add();
        ServeMetrics::get().requestLatency.observe(response.latencySeconds);
        return;
    }

    // Amortized tier: answer from the posterior cache when the gate
    // passes. A cold key or a gate rejection falls through to the full
    // run, which then installs or refreshes the cache entry.
    const WarmModel& warmModel = *entry.model;
    bool refreshTier = false;
    if (config_.amortizedTier && !warmModel.amortDigest.empty()) {
        // The answer's service time covers the lookup and the gate.
        const Timer clock;
        amortCache_.noteRequest();
        samplers::amortize::Entry* cached = amortCache_.find(
            {entry.request.workload, warmModel.amortDigest,
             entry.request.dataScale});
        if (cached == nullptr) {
            amortCache_.noteCold();
        } else if (amortCache_.gate(*cached).pass) {
            amortCache_.noteServed(*cached);
            response.servedAmortized = true;
            response.draws = static_cast<int>(cached->fit.draws.size());
            response.posteriorMean = cached->mean;
            response.maxRhat = entry.request.query == QueryKind::Summary
                ? cached->refMaxRhat
                : std::numeric_limits<double>::quiet_NaN();
            complete(response, clock.seconds());
            return;
        } else {
            amortCache_.noteEscalated();
            response.escalated = true;
        }
        refreshTier = true;
    }
    finishServed(response, entry, refreshTier);
}

void
Server::finishServed(Response& response, const QueueEntry& entry,
                     bool refreshTier)
{
    obs::Span span("serve.request");
    const WarmModel& warmModel = *entry.model;
    samplers::Config config = entry.request.config;
    config.execution = samplers::ExecutionPolicy::pool();
    const double remaining =
        response.deadlineSeconds - response.queueWaitSeconds;

    const Timer clock;
    double service = 0.0;
    try {
        const samplers::DeadlineRunResult outcome =
            samplers::runWithDeadline(*warmModel.model, config, remaining);
        service = clock.seconds();
        response.truncatedByDeadline = outcome.expired;
        response.draws =
            static_cast<int>(outcome.run.chains.front().draws.size());

        const ppl::ParamLayout& layout = warmModel.model->layout();
        if (entry.request.query == QueryKind::Summary) {
            const diagnostics::PosteriorSummary summary =
                diagnostics::summarize(outcome.run, layout);
            response.posteriorMean.reserve(summary.coords.size());
            for (const auto& coord : summary.coords)
                response.posteriorMean.push_back(coord.mean);
            response.maxRhat = summary.maxRhat();
        } else {
            response.posteriorMean.assign(layout.dim(), 0.0);
            double count = 0.0;
            for (const auto& chain : outcome.run.chains) {
                for (const auto& draw : chain.draws) {
                    for (std::size_t i = 0; i < draw.size(); ++i)
                        response.posteriorMean[i] += draw[i];
                    count += 1.0;
                }
            }
            if (count > 0.0)
                for (double& m : response.posteriorMean)
                    m /= count;
            response.maxRhat = std::numeric_limits<double>::quiet_NaN();
        }

        if (entry.request.keepDraws)
            response.run =
                std::make_shared<const samplers::RunResult>(outcome.run);

        // Cold/escalated amortized requests refresh the cheap tier: an
        // untruncated full run fits ADVI on first touch of the key and
        // installs/refreshes the reference summary the gate compares
        // against. (Not billed to this request's service time — the
        // fit amortizes over all future repeats of the key.)
        if (refreshTier && !outcome.expired) {
            const samplers::amortize::CacheKey key{
                entry.request.workload, warmModel.amortDigest,
                entry.request.dataScale};
            samplers::amortize::Entry* cached = amortCache_.find(key);
            if (cached == nullptr) {
                ppl::Evaluator eval(*warmModel.model);
                cached = &amortCache_.fit(key, *warmModel.model, eval);
            }
            amortCache_.installReference(*cached, outcome.run);
        }
    } catch (const Error& e) {
        service = clock.seconds();
        response.status = RequestStatus::Failed;
        response.error = e.what();
    }
    complete(response, service);
}

void
Server::complete(Response& response, double serviceSeconds)
{
    response.serviceSeconds = serviceSeconds;
    response.completionSeconds = response.startSeconds + serviceSeconds;
    response.latencySeconds =
        response.completionSeconds - response.arrivalSeconds;
    if (response.status == RequestStatus::Failed) {
        ServeMetrics::get().failed.add();
    } else if (response.truncatedByDeadline
               || response.latencySeconds > response.deadlineSeconds) {
        response.status = RequestStatus::DeadlineMiss;
        ++deadlineMisses_;
        ServeMetrics::get().deadlineMiss.add();
    } else {
        response.status = RequestStatus::Ok;
    }
    virtualNow_ = response.completionSeconds;
    ServeMetrics::get().requestLatency.observe(response.latencySeconds);
    ServeMetrics::get().serviceSeconds.observe(serviceSeconds);
}

void
Server::drain()
{
    while (queueDepth() > 0)
        serveNext();
}

void
Server::runSchedule(std::vector<Request> arrivals)
{
    // One arrival key for the sort, the idle jump and the admit test:
    // negative ("now"), NaN and +inf arrivals are admitted at once, and
    // submit() fails the NaN and +inf ones as malformed.
    const auto due = [](const Request& request) {
        return request.arrivalSeconds < kInf
            ? std::max(0.0, request.arrivalSeconds)
            : 0.0;
    };
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [&](const Request& a, const Request& b) {
                         return due(a) < due(b);
                     });
    std::size_t next = 0;
    while (next < arrivals.size() || queueDepth() > 0) {
        // Idle server: jump the virtual clock to the next arrival.
        if (queueDepth() == 0 && next < arrivals.size())
            virtualNow_ = std::max(virtualNow_, due(arrivals[next]));
        // Admit everything that has arrived by now, in arrival order.
        while (next < arrivals.size() && due(arrivals[next]) <= virtualNow_)
            submit(std::move(arrivals[next++]));
        serveNext();
    }
}

const Response&
Server::response(std::uint64_t id) const
{
    BAYES_CHECK(id < responses_.size(),
                "serve: unknown request id " << id);
    return responses_[id];
}

} // namespace bayes::serve
