/**
 * @file
 * Multi-tenant inference-as-a-service runtime. A Server is a long-lived
 * front door over the existing sampling stack: tenants submit (model,
 * data-shape, posterior-query) requests, an admission controller
 * decides admit-vs-shed against a bounded priority queue, and admitted
 * requests are served one at a time on the coordinating thread with
 * their chains fanned out over the process-shared support::ThreadPool
 * through the pooled executor. The serving layer never creates
 * threads of its own (lint rule R009): one coordinator + one shared
 * pool is the whole concurrency story, which keeps the pool's
 * no-nested-wait usage rule satisfied by construction.
 *
 * Time model: the server keeps a *virtual clock*. Arrivals carry
 * timestamps (from the load generator's open-loop schedule, or "now"
 * for direct submits), service is the measured wall time of the real
 * sampling run, and the clock advances as completions happen — a
 * trace-driven queueing simulation with genuine service times. Latency
 * percentiles reported from the obs histograms are therefore honest
 * queueing numbers even though the control loop is single-threaded.
 *
 * Admission control (in decision order):
 *   1. malformed request (unknown workload)            -> Failed
 *   2. resolved deadline == 0                          -> Shed
 *   3. bounded queue at capacity                       -> Shed
 *   4. projected wait (queued-ahead estimated service)
 *      already exceeds the request's deadline          -> Shed
 * Projections use a deterministic cost model (profiled tape nodes x
 * estimated gradient evaluations), so admit-vs-shed decisions are
 * reproducible under a fixed seed — tests/test_serve.cpp proves it.
 *
 * Warm-model cache: requests are keyed by (workload, dataScale). A miss
 * instantiates the workload (regenerating its synthetic dataset) and a
 * profiling ppl::Evaluator whose first gradient evaluation sizes the
 * tape; a hit reuses both, so a repeat request costs zero dataset
 * regeneration and zero tape re-allocation (the arena and the
 * evaluator's reserve hints survive — asserted via Tape::nodeCapacity
 * in the tests). The cache is LRU-bounded at
 * ServerConfig::warmCacheCapacity (serve.warm_evictions counts the
 * evictions). Chain evaluators inside a run stay per-request by
 * design: that is what keeps draws deterministic per request.
 *
 * Amortized two-tier policy (ServerConfig::amortizedTier, see
 * samplers/amortize.hpp and docs/serving.md): before committing to a
 * full sampling run, the coordinator consults the amortized posterior
 * cache. A cached fit whose acceptance gate (Pareto-k̂, KL vs the NUTS
 * reference, reference split-R̂) passes answers the request in
 * microseconds; a cold key or gate rejection re-enters the queue with
 * the full path forced, and that request's NUTS run — byte-identical
 * to a direct run with the same seed — installs/refreshes the cache
 * entry. Admission's cost model projects the cheap-tier service time
 * whenever the gate is expected to pass.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ppl/evaluator.hpp"
#include "samplers/amortize.hpp"
#include "samplers/runner.hpp"
#include "support/thread_safety.hpp"
#include "workloads/workload.hpp"

namespace bayes::serve {

/**
 * Service classes, in strict priority order. The queue always serves
 * the highest class with waiting requests; within a class, arrival
 * order (FIFO) — which is the fairness guarantee tenants of the same
 * class get.
 */
enum class SloClass
{
    Interactive, ///< tight deadline, always served first
    Standard,    ///< default class
    Batch,       ///< best-effort; first to be shed under load
};

/** Number of SLO classes (queue array size). */
inline constexpr std::size_t kNumSloClasses = 3;

/** Human-readable class name ("interactive"/"standard"/"batch"). */
const char* sloClassName(SloClass slo);

/** Default deadline per class; Batch is unbounded (+infinity). */
double defaultDeadlineSeconds(SloClass slo);

/** What the tenant wants back from the posterior. */
enum class QueryKind
{
    Summary, ///< per-coordinate means + max split-R-hat
    Mean,    ///< means only (skips the R-hat pass)
};

/** One tenant job: which model/data shape to fit, how, and by when. */
struct Request
{
    /** Tenant identifier (reporting only; no per-tenant state). */
    std::string tenant;
    /** Suite workload name (see workloads::suiteNames()). */
    std::string workload;
    /** Dataset shrink factor in (0, 1] — part of the warm-cache key. */
    double dataScale = 1.0;
    /**
     * Sampler configuration (algorithm/chains/iterations/seed). The
     * server overrides `execution` with its own pooled policy; all
     * other fields are the tenant's.
     */
    samplers::Config config;
    SloClass slo = SloClass::Standard;
    /**
     * Wall-clock budget from arrival to completion. Negative means the
     * class default; 0 is unsatisfiable and is shed at admission; +inf
     * disables the deadline.
     */
    double deadlineSeconds = -1.0;
    /**
     * Arrival timestamp on the server's virtual clock (open-loop load
     * generation). Negative means "now" (the current virtual time).
     */
    double arrivalSeconds = -1.0;
    QueryKind query = QueryKind::Summary;
    /**
     * Allow the amortized tier to answer this request (only effective
     * when ServerConfig::amortizedTier is on). Off forces full MCMC.
     */
    bool allowAmortized = true;
    /** Keep the full run's draws in Response::run (tests/debugging). */
    bool keepDraws = false;
};

/** Terminal state of a request. */
enum class RequestStatus
{
    Queued,       ///< admitted, not yet served (non-terminal)
    Ok,           ///< served within its deadline
    Shed,         ///< rejected at admission (queue/deadline pressure)
    DeadlineMiss, ///< served late, truncated, or expired in queue
    Failed,       ///< malformed request or the run threw
};

/** Human-readable status name. */
const char* requestStatusName(RequestStatus status);

/** What a tenant gets back. */
struct Response
{
    std::uint64_t id = 0;
    std::string tenant;
    std::string workload;
    SloClass slo = SloClass::Standard;
    RequestStatus status = RequestStatus::Queued;
    /** Failure diagnostic (status == Failed). */
    std::string error;

    /** Virtual-clock timeline of the request. */
    double arrivalSeconds = 0.0;
    double startSeconds = 0.0;
    double completionSeconds = 0.0;
    /** startSeconds - arrivalSeconds. */
    double queueWaitSeconds = 0.0;
    /** Measured wall seconds of the sampling run (0 when never run). */
    double serviceSeconds = 0.0;
    /** completionSeconds - arrivalSeconds (0 for shed requests). */
    double latencySeconds = 0.0;

    /** The deadline the request was held to (+inf = none). */
    double deadlineSeconds = 0.0;
    /** True when runWithDeadline cut the run short of its budget. */
    bool truncatedByDeadline = false;

    /** Post-warmup draws delivered per chain (0 when never run). */
    int draws = 0;
    /** Posterior mean per constrained coordinate. */
    std::vector<double> posteriorMean;
    /** Max split-R-hat across coordinates (NaN for QueryKind::Mean). */
    double maxRhat = 0.0;

    /** True when the amortized tier answered (no MCMC run at all). */
    bool servedAmortized = false;
    /** True when the acceptance gate rejected the cached posterior and
     * the request escalated to the full path. */
    bool escalated = false;
    /** The full run's result when Request::keepDraws was set (null
     * otherwise, and always null for amortized answers). */
    std::shared_ptr<const samplers::RunResult> run;
};

/** Server tuning knobs. */
struct ServerConfig
{
    /** Bounded request queue: total across classes. */
    std::size_t queueCapacity = 64;
    /** Shared-pool width for chain execution (0 = hardware). */
    int workers = 0;
    /** Enable projected-wait admission (criterion 4). */
    bool admitByProjectedWait = true;
    /**
     * Deterministic service-cost model for projections:
     * seconds ~= evals x (costPerEvalSeconds + nodes x costPerNodeSeconds).
     */
    double costPerEvalSeconds = 25e-6;
    double costPerNodeSeconds = 2e-9;

    /**
     * Enable the amortized two-tier serving policy: repeat requests
     * whose acceptance gate passes are answered from the cached ADVI
     * posterior; cold keys and gate rejections re-enter the queue and
     * take the full NUTS path (byte-identical draws), whose run then
     * installs/refreshes the cache entry's reference summary.
     */
    bool amortizedTier = false;
    /** Cheap-tier fit + gate settings. */
    samplers::amortize::AmortizeConfig amortize;
    /**
     * Projected service time of an amortized-tier answer, used by the
     * admission cost model when the gate is expected to pass.
     */
    double amortizedServiceSeconds = 500e-6;
    /** Warm-model cache bound: least-recently-used entries beyond this
     * are evicted (serve.warm_evictions counts them). */
    std::size_t warmCacheCapacity = 32;
};

/**
 * The serving runtime. Serving stays single-coordinator by design:
 * drain/runSchedule and the per-request bookkeeping (responses, served
 * order, the virtual clock) run on one coordinating thread, exactly
 * like the sampler executor's monitor contract. The *admission-time*
 * state a future concurrent front door would contend on — the bounded
 * priority queues and the warm-model cache — is mutex-guarded and
 * annotated (`BAYES_GUARDED_BY`, lint rule R011), so clang's thread
 * safety analysis rejects any new code path that touches either
 * without the lock.
 */
class Server
{
  public:
    explicit Server(ServerConfig config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Admission-check @p request and enqueue it (or terminate it on the
     * spot with Shed/Failed). Always returns a request id valid for
     * response(); shed/failed requests have their terminal Response
     * immediately.
     */
    std::uint64_t submit(Request request);

    /** Serve every queued request in priority order (calling thread). */
    void drain();

    /**
     * Replay an open-loop arrival schedule: requests are admitted when
     * the virtual clock reaches their arrivalSeconds and served as the
     * server frees up, so admission sees the queue state a real open
     * loop would produce. Equivalent to interleaved submit()/serve
     * steps; drains completely before returning.
     */
    void runSchedule(std::vector<Request> arrivals);

    /** Response for a request id (terminal unless still Queued). */
    const Response& response(std::uint64_t id) const;

    /** All responses, indexed by request id. */
    const std::vector<Response>& responses() const { return responses_; }

    /** Ids in the order they were actually served (fairness probe). */
    const std::vector<std::uint64_t>& servedOrder() const
    {
        return servedOrder_;
    }

    /** Current virtual time (advances as requests complete). */
    double virtualNow() const { return virtualNow_; }

    /** Requests currently queued across all classes. */
    std::size_t queueDepth() const;

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t shedCount() const { return shed_; }
    std::uint64_t deadlineMisses() const { return deadlineMisses_; }
    std::uint64_t warmHits() const { return warmHits_; }
    std::uint64_t warmMisses() const { return warmMisses_; }
    std::uint64_t warmEvictions() const { return warmEvictions_; }

    /** Amortized-tier accounting snapshot
     * (served + escalated + cold == requests, exactly). */
    samplers::amortize::Stats amortStats() const;

    /**
     * Deterministic service-time estimate for @p request (the
     * projected-wait admission input). Warms the model cache on first
     * touch of a (workload, dataScale) key.
     * @throws bayes::Error for unknown workload names
     */
    double estimatedServiceSeconds(const Request& request);

    /**
     * Warm-cache probe: the cached profiling evaluator for a key, or
     * nullptr when the key was never requested. Test/diagnostic hook —
     * the serving path owns the evaluator.
     */
    ppl::Evaluator* warmEvaluator(const std::string& workload,
                                  double dataScale);

  private:
    struct WarmModel
    {
        std::unique_ptr<workloads::Workload> model;
        std::unique_ptr<ppl::Evaluator> eval;
        /** Tape nodes of one gradient evaluation (profiled once). */
        double nodesPerEval = 0.0;
        /** Amortized-cache dataset fingerprint (empty: not amortizable). */
        std::string amortDigest;
        /** LRU tick of the last warm() touch (eviction order). */
        std::uint64_t lastUse = 0;
    };

    struct QueueEntry
    {
        std::uint64_t id = 0;
        Request request;
        double arrivalSeconds = 0.0;
        double deadlineSeconds = 0.0;
        double estimatedSeconds = 0.0;
        /** Set when an amortized miss/escalation re-enqueued the
         * request: the second pass must take the full path. */
        bool forceFull = false;
    };

    /** Amortized-tier attempt outcome (serveNext control flow). */
    enum class AmortTry
    {
        Served,         ///< answered from the cache, bookkeeping done
        Requeued,       ///< cold/escalated: re-enqueued with forceFull
        NotAmortizable, ///< model exposes no statistics: full path now
    };

    std::shared_ptr<WarmModel> warm(const std::string& name,
                                    double dataScale)
        BAYES_REQUIRES(mutex_);
    double estimate(const Request& request, const WarmModel& warm,
                    bool forceFull) BAYES_REQUIRES(mutex_);
    double projectedWaitSeconds(SloClass slo) const BAYES_REQUIRES(mutex_);
    std::size_t queueDepthLocked() const BAYES_REQUIRES(mutex_);
    void shed(Response& response);
    void fail(Response& response, const std::string& why);
    void serveNext();
    AmortTry tryAmortized(Response& response, QueueEntry& entry,
                          double start, double wait);
    void finishServed(Response& response, QueueEntry& entry);

    ServerConfig config_;
    /** Guards the admission-time state: queues, warm-model cache, and
     * the amortized posterior cache. */
    mutable support::Mutex mutex_;
    std::array<std::deque<QueueEntry>, kNumSloClasses> queues_
        BAYES_GUARDED_BY(mutex_);
    /**
     * Keyed (workload, dataScale), LRU-bounded at
     * ServerConfig::warmCacheCapacity. Entries are shared_ptr so the
     * serving path can keep its model/evaluator alive unlocked while
     * the sampler runs even if the entry is evicted meanwhile.
     */
    std::map<std::pair<std::string, double>, std::shared_ptr<WarmModel>>
        warmCache_ BAYES_GUARDED_BY(mutex_);
    /** Amortized posterior cache (the cheap tier). */
    samplers::amortize::AmortizedCache amortCache_
        BAYES_GUARDED_BY(mutex_);
    std::vector<Response> responses_;
    std::vector<std::uint64_t> servedOrder_;
    double virtualNow_ = 0.0;
    std::uint64_t admitted_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t deadlineMisses_ = 0;
    std::uint64_t warmHits_ = 0;
    std::uint64_t warmMisses_ = 0;
    std::uint64_t warmEvictions_ = 0;
    /** Monotone warm() touch counter feeding WarmModel::lastUse. */
    std::uint64_t warmUseTick_ = 0;
};

} // namespace bayes::serve
