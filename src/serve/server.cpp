#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "diagnostics/summary.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bayes::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Serving telemetry (catalogued in docs/observability.md). */
struct ServeMetrics
{
    obs::Counter& admitted =
        obs::Registry::global().counter("serve.admitted");
    obs::Counter& shed = obs::Registry::global().counter("serve.shed");
    obs::Counter& deadlineMiss =
        obs::Registry::global().counter("serve.deadline_miss");
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
    BAYES_CHECK(config_.workers >= 0,
                "serve: pool worker count must be >= 0, got "
                    << config_.workers);
    BAYES_CHECK(config_.warmCacheCapacity >= 1,
                "serve: warm cache capacity must be >= 1");
}

Server::~Server() = default;

std::shared_ptr<Server::WarmModel>
Server::warm(const std::string& name, double dataScale)
{
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
    entry->eval = std::make_unique<ppl::Evaluator>(*entry->model);
    // Profile once at the origin: sizes the tape arena (reused for the
    // key's lifetime) and yields the work-intensity term of the
    // admission cost model.
    std::vector<double> q(entry->eval->dim(), 0.0);
    std::vector<double> grad;
    entry->eval->logProbGrad(q, grad);
    entry->nodesPerEval = static_cast<double>(entry->eval->lastTapeNodes());
    entry->amortDigest =
        samplers::amortize::AmortizedCache::statsDigest(*entry->model);
    entry->lastUse = ++warmUseTick_;
    warmCache_.emplace(key, entry);
    // LRU bound: evict the stalest key. The entry just inserted carries
    // the freshest tick, so it is never the victim; in-flight serving
    // paths hold their own shared_ptr and are unaffected.
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
Server::estimate(const Request& request, const WarmModel& warmModel,
                 bool forceFull)
{
    // Tier projection: when the cached posterior's gate currently
    // passes, the request will be answered by the cheap tier at a flat
    // (tiny) cost — project that instead of the full-run cost so
    // admission does not shed repeat traffic the tier can absorb.
    if (!forceFull && config_.amortizedTier && request.allowAmortized
        && !warmModel.amortDigest.empty()) {
        const samplers::amortize::CacheKey key{
            request.workload, warmModel.amortDigest, request.dataScale};
        const samplers::amortize::Entry* cached = amortCache_.find(key);
        if (cached != nullptr && amortCache_.gate(*cached).pass)
            return config_.amortizedServiceSeconds;
    }
    const double perChain =
        estimatedEvalsPerChain(request.config, warmModel.eval->dim());
    const double evals =
        perChain * static_cast<double>(std::max(1, request.config.chains));
    return evals
        * (config_.costPerEvalSeconds
           + warmModel.nodesPerEval * config_.costPerNodeSeconds);
}

double
Server::estimatedServiceSeconds(const Request& request)
{
    support::MutexLock lock(mutex_);
    return estimate(request, *warm(request.workload, request.dataScale),
                    false);
}

ppl::Evaluator*
Server::warmEvaluator(const std::string& workload, double dataScale)
{
    support::MutexLock lock(mutex_);
    const auto it = warmCache_.find(std::make_pair(workload, dataScale));
    return it == warmCache_.end() ? nullptr : it->second->eval.get();
}

samplers::amortize::Stats
Server::amortStats() const
{
    support::MutexLock lock(mutex_);
    return amortCache_.stats();
}

std::size_t
Server::queueDepth() const
{
    support::MutexLock lock(mutex_);
    return queueDepthLocked();
}

std::size_t
Server::queueDepthLocked() const
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
}

std::uint64_t
Server::submit(Request request)
{
    const std::uint64_t id = responses_.size();
    responses_.emplace_back();
    Response& response = responses_.back();
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

    // One lock over the whole admission decision: the criteria must see
    // a consistent queue state, and enqueue must be atomic with the
    // checks that justified it.
    std::size_t depth = 0;
    {
        support::MutexLock lock(mutex_);
        double estimated = 0.0;
        bool admit = true;
        try {
            // Warms the cache and prices the run (same math as the
            // public estimatedServiceSeconds, called with the lock
            // already held).
            estimated = estimate(
                request, *warm(request.workload, request.dataScale), false);
        } catch (const Error& e) {
            fail(response, e.what());
            admit = false;
        }
        if (admit && deadline <= 0.0) {
            // Unsatisfiable by definition; reject before it wastes queue
            // space (admission criterion 2).
            shed(response);
            admit = false;
        }
        if (admit && queueDepthLocked() >= config_.queueCapacity) {
            shed(response); // criterion 3: bounded queue
            admit = false;
        }
        if (admit && config_.admitByProjectedWait
            && projectedWaitSeconds(request.slo) + estimated > deadline) {
            shed(response); // criterion 4: projected completion past deadline
            admit = false;
        }
        if (admit) {
            QueueEntry entry;
            entry.id = id;
            entry.arrivalSeconds = response.arrivalSeconds;
            entry.deadlineSeconds = deadline;
            entry.estimatedSeconds = estimated;
            entry.request = std::move(request);
            queues_[static_cast<std::size_t>(entry.request.slo)]
                .push_back(std::move(entry));
            ++admitted_;
            ServeMetrics::get().admitted.add();
        }
        depth = queueDepthLocked();
    }
    ServeMetrics::get().queueDepth.observe(static_cast<double>(depth));
    return id;
}

void
Server::serveNext()
{
    // Pop under the lock, serve unlocked: the sampling run is the long
    // part and must not hold the admission mutex.
    QueueEntry entry;
    bool found = false;
    {
        support::MutexLock lock(mutex_);
        for (auto& queue : queues_) {
            if (queue.empty())
                continue;
            entry = std::move(queue.front());
            queue.pop_front();
            found = true;
            break;
        }
    }
    if (!found)
        return;

    Response& response = responses_[entry.id];

    const double start = std::max(virtualNow_, entry.arrivalSeconds);
    const double wait = start - entry.arrivalSeconds;

    // Amortized tier: try to answer from the posterior cache before
    // committing the coordinator to a full sampling run. A cold key or
    // a gate rejection re-enters the queue with the full path forced.
    if (!entry.forceFull && config_.amortizedTier
        && entry.request.allowAmortized && wait <= entry.deadlineSeconds) {
        const AmortTry outcome = tryAmortized(response, entry, start, wait);
        if (outcome != AmortTry::NotAmortizable)
            return; // served or requeued; bookkeeping done inside
    }

    servedOrder_.push_back(entry.id);
    response.startSeconds = start;
    response.queueWaitSeconds = wait;

    if (wait > entry.deadlineSeconds) {
        // Expired while waiting: answering with a late full run would
        // only push every later request past its deadline too, so the
        // miss is recorded without running.
        response.status = RequestStatus::DeadlineMiss;
        response.completionSeconds = start;
        response.latencySeconds = wait;
        ++deadlineMisses_;
        ServeMetrics::get().deadlineMiss.add();
        ServeMetrics::get().requestLatency.observe(wait);
        return;
    }

    finishServed(response, entry);
}

Server::AmortTry
Server::tryAmortized(Response& response, QueueEntry& entry, double start,
                     double wait)
{
    const Timer clock;
    // The decision and the answer are both extracted under one short
    // lock (amortCache_ is admission-time state); the serve below works
    // on copies only.
    bool cold = false;
    bool pass = false;
    int cachedDraws = 0;
    std::vector<double> cachedMean;
    double cachedRefRhat = 0.0;
    std::shared_ptr<WarmModel> warmModel;
    {
        support::MutexLock lock(mutex_);
        warmModel = warm(entry.request.workload, entry.request.dataScale);
        if (warmModel->amortDigest.empty())
            return AmortTry::NotAmortizable;
        amortCache_.noteRequest();
        const samplers::amortize::CacheKey key{entry.request.workload,
                                               warmModel->amortDigest,
                                               entry.request.dataScale};
        samplers::amortize::Entry* cached = amortCache_.find(key);
        if (cached == nullptr) {
            cold = true;
            amortCache_.noteCold();
        } else if (amortCache_.gate(*cached).pass) {
            pass = true;
            amortCache_.noteServed(*cached);
            cachedDraws = static_cast<int>(cached->fit.draws.size());
            cachedMean = cached->mean;
            cachedRefRhat = cached->refMaxRhat;
        } else {
            amortCache_.noteEscalated();
        }
        if (!pass) {
            // Cold key or gate rejection: the full path must answer.
            // Re-enter at the front of the class queue with the full
            // cost re-projected; the re-served NUTS run stays
            // byte-identical to a direct run with the same seed.
            response.escalated = !cold;
            entry.forceFull = true;
            entry.estimatedSeconds =
                estimate(entry.request, *warmModel, true);
            queues_[static_cast<std::size_t>(entry.request.slo)].push_front(
                std::move(entry));
        }
    }
    if (!pass)
        return AmortTry::Requeued;

    // Serve from the cache: the measured service time is the gate check
    // plus these copies — the whole point of the tier.
    servedOrder_.push_back(entry.id);
    response.servedAmortized = true;
    response.startSeconds = start;
    response.queueWaitSeconds = wait;
    response.draws = cachedDraws;
    response.posteriorMean = std::move(cachedMean);
    response.maxRhat = entry.request.query == QueryKind::Summary
        ? cachedRefRhat
        : std::numeric_limits<double>::quiet_NaN();

    const double service = clock.seconds();
    response.serviceSeconds = service;
    response.completionSeconds = start + service;
    response.latencySeconds =
        response.completionSeconds - response.arrivalSeconds;
    const bool missed = response.latencySeconds > entry.deadlineSeconds;
    response.status =
        missed ? RequestStatus::DeadlineMiss : RequestStatus::Ok;
    if (missed) {
        ++deadlineMisses_;
        ServeMetrics::get().deadlineMiss.add();
    }
    virtualNow_ = response.completionSeconds;
    ServeMetrics::get().requestLatency.observe(response.latencySeconds);
    ServeMetrics::get().serviceSeconds.observe(response.serviceSeconds);
    return AmortTry::Served;
}

void
Server::finishServed(Response& response, QueueEntry& entry)
{
    obs::Span span("serve.request");
    std::shared_ptr<WarmModel> warmModelPtr;
    {
        // Short lock to resolve the cache entry; the shared_ptr keeps
        // the model/evaluator alive unlocked (even across an LRU
        // eviction) so the sampler runs without the mutex held.
        support::MutexLock lock(mutex_);
        warmModelPtr = warm(entry.request.workload, entry.request.dataScale);
    }
    WarmModel& warmModel = *warmModelPtr;

    samplers::Config config = entry.request.config;
    config.execution = samplers::ExecutionPolicy::pool(config_.workers);
    const double remaining = entry.deadlineSeconds - response.queueWaitSeconds;

    const Timer clock;
    try {
        const samplers::DeadlineRunResult outcome =
            samplers::runWithDeadline(*warmModel.model, config, remaining);
        const double service = clock.seconds();
        response.serviceSeconds = service;
        response.completionSeconds = response.startSeconds + service;
        response.latencySeconds =
            response.completionSeconds - response.arrivalSeconds;
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

        const bool missed = outcome.expired
            || response.latencySeconds > entry.deadlineSeconds;
        response.status =
            missed ? RequestStatus::DeadlineMiss : RequestStatus::Ok;
        if (missed) {
            ++deadlineMisses_;
            ServeMetrics::get().deadlineMiss.add();
        }

        if (entry.request.keepDraws)
            response.run =
                std::make_shared<const samplers::RunResult>(outcome.run);

        // Cold/escalated amortized requests refresh the cheap tier: an
        // untruncated full run fits ADVI on first touch of the key and
        // installs/refreshes the reference summary the gate compares
        // against. (Not billed to this request's service time — the
        // fit amortizes over all future repeats of the key.)
        if (config_.amortizedTier && entry.forceFull
            && !warmModel.amortDigest.empty() && !outcome.expired) {
            support::MutexLock lock(mutex_);
            const samplers::amortize::CacheKey key{
                entry.request.workload, warmModel.amortDigest,
                entry.request.dataScale};
            samplers::amortize::Entry* cached = amortCache_.find(key);
            if (cached == nullptr)
                cached = &amortCache_.fit(key, *warmModel.model,
                                          *warmModel.eval);
            amortCache_.installReference(*cached, outcome.run);
        }
    } catch (const Error& e) {
        const double service = clock.seconds();
        response.serviceSeconds = service;
        response.completionSeconds = response.startSeconds + service;
        response.latencySeconds =
            response.completionSeconds - response.arrivalSeconds;
        response.status = RequestStatus::Failed;
        response.error = e.what();
    }
    virtualNow_ = response.completionSeconds;
    ServeMetrics::get().requestLatency.observe(response.latencySeconds);
    ServeMetrics::get().serviceSeconds.observe(response.serviceSeconds);
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
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Request& a, const Request& b) {
                         return std::max(0.0, a.arrivalSeconds)
                             < std::max(0.0, b.arrivalSeconds);
                     });
    std::size_t next = 0;
    while (next < arrivals.size() || queueDepth() > 0) {
        // Idle server: jump the virtual clock to the next arrival.
        if (queueDepth() == 0 && next < arrivals.size()
            && arrivals[next].arrivalSeconds > virtualNow_)
            virtualNow_ = arrivals[next].arrivalSeconds;
        // Admit everything that has arrived by now, in arrival order.
        while (next < arrivals.size()
               && arrivals[next].arrivalSeconds <= virtualNow_)
            submit(std::move(arrivals[next++]));
        if (queueDepth() > 0)
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
