/**
 * @file
 * The serving runtime's contracts: admission-control edge cases (full
 * queue, zero deadline, projected-wait shed, NaN, +inf or out-of-range
 * fields), strict-priority/FIFO fairness, shed-vs-admit determinism
 * under a fixed seed, warm-model cache reuse (one lookup per request),
 * deadline enforcement, one counted terminal state per request, and
 * the open-loop load generator's reproducibility.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "serve/load_generator.hpp"
#include "serve/server.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace bayes;
using namespace bayes::serve;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** A deliberately tiny MH job so tests stay fast under sanitizers. */
samplers::Config
tinyConfig()
{
    samplers::Config config;
    config.algorithm = samplers::Algorithm::Mh;
    config.chains = 2;
    config.iterations = 40;
    return config;
}

Request
tinyRequest(const std::string& workload, SloClass slo = SloClass::Standard,
            double deadline = kInf)
{
    Request request;
    request.tenant = "test";
    request.workload = workload;
    request.dataScale = 0.25;
    request.config = tinyConfig();
    request.slo = slo;
    request.deadlineSeconds = deadline;
    return request;
}

TEST(Serve, ServesARequestEndToEnd)
{
    Server server;
    const auto id = server.submit(tinyRequest("ad"));
    EXPECT_EQ(server.queueDepth(), 1u);
    server.drain();

    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Ok) << requestStatusName(r.status);
    EXPECT_EQ(r.draws, tinyConfig().postWarmup());
    EXPECT_FALSE(r.posteriorMean.empty());
    EXPECT_TRUE(std::isfinite(r.maxRhat));
    EXPECT_GT(r.serviceSeconds, 0.0);
    EXPECT_GE(r.latencySeconds, r.serviceSeconds);
    EXPECT_EQ(server.servedOrder(), std::vector<std::uint64_t>{id});
    EXPECT_EQ(server.admitted(), 1u);
    EXPECT_EQ(server.shedCount(), 0u);
}

TEST(Serve, MeanQuerySkipsRhat)
{
    Server server;
    Request request = tinyRequest("ad");
    request.query = QueryKind::Mean;
    const auto id = server.submit(request);
    server.drain();
    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Ok);
    EXPECT_FALSE(r.posteriorMean.empty());
    EXPECT_TRUE(std::isnan(r.maxRhat));
}

TEST(Serve, ZeroDeadlineIsShedAtAdmission)
{
    Server server;
    const auto id = server.submit(tinyRequest("ad", SloClass::Standard, 0.0));
    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Shed);
    EXPECT_EQ(server.queueDepth(), 0u);
    EXPECT_EQ(server.shedCount(), 1u);
    EXPECT_EQ(server.admitted(), 0u);
}

TEST(Serve, FullQueueSheds)
{
    ServerConfig config;
    config.queueCapacity = 2;
    Server server(config);

    const auto a = server.submit(tinyRequest("ad"));
    const auto b = server.submit(tinyRequest("ad"));
    const auto c = server.submit(tinyRequest("ad"));
    EXPECT_EQ(server.response(a).status, RequestStatus::Queued);
    EXPECT_EQ(server.response(b).status, RequestStatus::Queued);
    EXPECT_EQ(server.response(c).status, RequestStatus::Shed);
    EXPECT_EQ(server.admitted(), 2u);
    EXPECT_EQ(server.shedCount(), 1u);
    EXPECT_EQ(server.queueDepth(), 2u);
}

TEST(Serve, ProjectedWaitShedsRequestsThatCannotMeetTheirDeadline)
{
    ServerConfig config;
    config.costPerEvalSeconds = 1.0; // every job projects as enormous
    Server server(config);

    // Unbounded deadline: admitted no matter how slow the server looks.
    const auto a = server.submit(tinyRequest("ad", SloClass::Standard, kInf));
    EXPECT_EQ(server.response(a).status, RequestStatus::Queued);

    // A second job of the same class queues behind a's projected hours
    // of service; its one-second deadline is hopeless -> shed.
    const auto b = server.submit(tinyRequest("ad", SloClass::Standard, 1.0));
    EXPECT_EQ(server.response(b).status, RequestStatus::Shed);

    // Interactive jumps the standard queue, so the projection ignores
    // a's backlog — but its own estimated service still exceeds the
    // deadline, which also sheds (criterion 4 counts the job itself).
    const auto c =
        server.submit(tinyRequest("ad", SloClass::Interactive, 1.0));
    EXPECT_EQ(server.response(c).status, RequestStatus::Shed);
}

TEST(Serve, UnknownWorkloadFailsAtAdmission)
{
    Server server;
    const auto id = server.submit(tinyRequest("no-such-model"));
    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Failed);
    EXPECT_FALSE(r.error.empty());
    EXPECT_EQ(server.queueDepth(), 0u);
}

TEST(Serve, StrictPriorityThenFifoWithinClass)
{
    Server server;

    const auto batch0 = server.submit(tinyRequest("ad", SloClass::Batch));
    const auto std0 = server.submit(tinyRequest("ad", SloClass::Standard));
    const auto inter0 =
        server.submit(tinyRequest("ad", SloClass::Interactive));
    const auto inter1 =
        server.submit(tinyRequest("ad", SloClass::Interactive));
    const auto std1 = server.submit(tinyRequest("ad", SloClass::Standard));
    server.drain();

    const std::vector<std::uint64_t> expected{inter0, inter1, std0, std1,
                                              batch0};
    EXPECT_EQ(server.servedOrder(), expected);
}

TEST(Serve, ShedVsAdmitIsDeterministicUnderAFixedSeed)
{
    // Two servers, same config, same generated burst: every admission
    // decision must match, because admission never reads measured time
    // — only queue state and the deterministic cost model.
    LoadConfig load;
    load.requests = 200;
    load.arrivalRatePerSecond = 50.0;
    load.seed = 7;
    const LoadGenerator gen(load, defaultTenantMix());

    const auto runBurst = [](const std::vector<Request>& arrivals) {
        ServerConfig config;
        config.queueCapacity = 8;
        Server server(config);
        // Submit the whole burst without draining: decisions depend
        // only on admission state, never on service measurements.
        for (const Request& request : arrivals)
            server.submit(request);
        std::vector<RequestStatus> statuses;
        statuses.reserve(server.responses().size());
        for (const Response& response : server.responses())
            statuses.push_back(response.status);
        return statuses;
    };

    const auto first = runBurst(gen.schedule());
    const auto second = runBurst(gen.schedule());
    EXPECT_EQ(first, second);

    std::size_t queued = 0;
    std::size_t shed = 0;
    for (const RequestStatus status : first) {
        queued += status == RequestStatus::Queued ? 1u : 0u;
        shed += status == RequestStatus::Shed ? 1u : 0u;
    }
    EXPECT_GT(queued, 0u) << "burst admitted nothing";
    EXPECT_GT(shed, 0u) << "burst shed nothing; capacity check untested";
}

TEST(Serve, WarmCacheHitSkipsTheDatasetBuildAndProfile)
{
    // A miss builds the dataset and profiles one gradient; a hit on the
    // same (workload, dataScale) reuses both.
    Server server;
    const auto first = server.submit(tinyRequest("ad"));
    server.drain();
    EXPECT_EQ(server.response(first).status, RequestStatus::Ok);
    EXPECT_EQ(server.warmMisses(), 1u);
    EXPECT_EQ(server.warmHits(), 0u);

    const auto second = server.submit(tinyRequest("ad"));
    server.drain();
    EXPECT_EQ(server.response(second).status, RequestStatus::Ok);
    EXPECT_EQ(server.warmMisses(), 1u);
    EXPECT_EQ(server.warmHits(), 1u) << "one lookup per request";

    // A different data shape is a different key, hence a fresh entry.
    Request scaled = tinyRequest("ad");
    scaled.dataScale = 0.5;
    server.submit(scaled);
    server.drain();
    EXPECT_EQ(server.warmMisses(), 2u);
    EXPECT_EQ(server.warmHits(), 1u);
}

/** Every job projects at 0 s, so criterion 4 never sheds. */
ServerConfig
freeCostModel()
{
    ServerConfig config;
    config.costPerEvalSeconds = 0.0;
    config.costPerNodeSeconds = 0.0;
    return config;
}

TEST(Serve, RequestExpiredInQueueIsADeadlineMissWithoutRunning)
{
    Server server(freeCostModel()); // let the hopeless job in

    const auto slow = server.submit(tinyRequest("ad", SloClass::Standard));
    // Admitted behind `slow`, with a deadline no real service time can
    // beat: by the time it reaches the head it has already expired.
    const auto late =
        server.submit(tinyRequest("ad", SloClass::Standard, 1e-12));
    server.drain();

    EXPECT_EQ(server.response(slow).status, RequestStatus::Ok);
    const Response& r = server.response(late);
    EXPECT_EQ(r.status, RequestStatus::DeadlineMiss);
    EXPECT_EQ(r.draws, 0) << "expired request must not run";
    EXPECT_EQ(r.serviceSeconds, 0.0);
    EXPECT_EQ(server.deadlineMisses(), 1u);
}

TEST(Serve, NanDataScaleFailsAtAdmissionEvenWhenAScaleIsCached)
{
    Server server;
    server.submit(tinyRequest("ad"));
    server.drain();

    // NaN compares equivalent to 0.25 in the warm cache's key order, so
    // an unchecked lookup would answer from the cached 0.25 model.
    for (const double scale : {kNaN, 0.0, -0.5, 2.0}) {
        Request request = tinyRequest("ad");
        request.dataScale = scale;
        const Response& r = server.response(server.submit(request));
        EXPECT_EQ(r.status, RequestStatus::Failed) << "scale " << scale;
        EXPECT_NE(r.error.find("dataScale"), std::string::npos) << r.error;
    }
    EXPECT_EQ(server.queueDepth(), 0u);
    EXPECT_EQ(server.admitted(), 1u);
    EXPECT_EQ(server.warmHits() + server.warmMisses(), 1u)
        << "a malformed scale must not touch the warm cache";
}

TEST(Serve, NanArrivalFailsAtAdmission)
{
    obs::Registry::global().reset();
    Server server;
    Request request = tinyRequest("ad");
    request.arrivalSeconds = kNaN;
    const auto id = server.submit(request);
    server.drain();

    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Failed);
    EXPECT_FALSE(r.error.empty());
    EXPECT_TRUE(server.servedOrder().empty());
    EXPECT_EQ(server.virtualNow(), 0.0);
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::HistogramStats* latency =
        snap.histogram("serve.request_latency");
    EXPECT_TRUE(latency == nullptr || latency->count == 0u);
}

TEST(Serve, InfiniteArrivalFailsAtAdmission)
{
    obs::Registry::global().reset();
    Request infinite = tinyRequest("ad");
    infinite.arrivalSeconds = kInf;

    // Direct submit: the +inf arrival fails and the clock stays put, so
    // the next "now" request keeps a finite latency.
    Server server;
    const auto id = server.submit(infinite);
    server.drain();
    EXPECT_EQ(server.response(id).status, RequestStatus::Failed);
    EXPECT_FALSE(server.response(id).error.empty());
    EXPECT_TRUE(std::isfinite(server.virtualNow()));
    const auto next = server.submit(tinyRequest("ad"));
    server.drain();
    EXPECT_EQ(server.response(next).status, RequestStatus::Ok);
    EXPECT_TRUE(std::isfinite(server.response(next).latencySeconds));

    // Replayed schedule: admitted at once instead of jumping the clock.
    std::vector<Request> arrivals{tinyRequest("ad"), infinite};
    arrivals[0].arrivalSeconds = 0.5;
    Server scheduled;
    scheduled.runSchedule(arrivals);
    ASSERT_EQ(scheduled.responses().size(), 2u);
    EXPECT_EQ(scheduled.response(0).status, RequestStatus::Failed);
    EXPECT_EQ(scheduled.response(1).status, RequestStatus::Ok);
    EXPECT_TRUE(std::isfinite(scheduled.response(1).latencySeconds));
    EXPECT_EQ(scheduled.servedOrder(), (std::vector<std::uint64_t>{1}));
    EXPECT_TRUE(std::isfinite(scheduled.virtualNow()));

    const obs::Snapshot snap = obs::Registry::global().snapshot();
    const obs::HistogramStats* latency =
        snap.histogram("serve.request_latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->count, 2u);
    EXPECT_TRUE(std::isfinite(latency->sum));
}

TEST(Serve, NanDeadlineFailsAtAdmission)
{
    Server server;
    const auto id = server.submit(tinyRequest("ad", SloClass::Standard, kNaN));
    server.drain();

    const Response& r = server.response(id);
    EXPECT_EQ(r.status, RequestStatus::Failed)
        << "a NaN deadline is not \"no deadline\"";
    EXPECT_EQ(r.draws, 0);
    EXPECT_EQ(server.admitted(), 0u);
}

TEST(Serve, RunScheduleFailsANanArrivalInsteadOfSpinning)
{
    std::vector<Request> arrivals(3, tinyRequest("ad"));
    arrivals[0].arrivalSeconds = 0.5;
    arrivals[1].arrivalSeconds = kNaN;
    arrivals[2].arrivalSeconds = 1.0;
    Server server;
    server.runSchedule(arrivals);

    ASSERT_EQ(server.responses().size(), 3u);
    // The NaN arrival sorts and admits as time 0, ahead of the others.
    EXPECT_EQ(server.response(0).status, RequestStatus::Failed);
    EXPECT_EQ(server.response(1).status, RequestStatus::Ok);
    EXPECT_EQ(server.response(2).status, RequestStatus::Ok);
    EXPECT_EQ(server.servedOrder(), (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(std::isfinite(server.virtualNow()));
}

TEST(Serve, EveryRequestEndsInExactlyOneCountedState)
{
    obs::Registry::global().reset();
    Server server(freeCostModel()); // criterion 4 must not shed `late`

    const auto ok = server.submit(tinyRequest("ad"));
    const auto shed =
        server.submit(tinyRequest("ad", SloClass::Standard, 0.0));
    const auto unknown = server.submit(tinyRequest("no-such-model"));
    Request noChains = tinyRequest("ad");
    noChains.config.chains = 0; // admitted, then the run throws
    const auto runFailure = server.submit(noChains);
    // Expires in the queue behind `ok`'s real service time.
    const auto late =
        server.submit(tinyRequest("ad", SloClass::Standard, 1e-12));
    server.drain();

    EXPECT_EQ(server.response(ok).status, RequestStatus::Ok);
    EXPECT_EQ(server.response(shed).status, RequestStatus::Shed);
    EXPECT_EQ(server.response(unknown).status, RequestStatus::Failed);
    EXPECT_EQ(server.response(runFailure).status, RequestStatus::Failed);
    EXPECT_FALSE(server.response(runFailure).error.empty());
    EXPECT_EQ(server.response(late).status, RequestStatus::DeadlineMiss);

    std::map<RequestStatus, std::uint64_t> states;
    for (const Response& r : server.responses())
        ++states[r.status];
    EXPECT_EQ(states[RequestStatus::Queued], 0u);

    const obs::Snapshot snap = obs::Registry::global().snapshot();
    EXPECT_EQ(snap.counter("serve.shed"), states[RequestStatus::Shed]);
    EXPECT_EQ(snap.counter("serve.deadline_miss"),
              states[RequestStatus::DeadlineMiss]);
    EXPECT_EQ(snap.counter("serve.failed"), states[RequestStatus::Failed]);
    EXPECT_EQ(snap.counter("serve.admitted"), server.admitted());
    // Admitted requests end Ok, DeadlineMiss or failed at run time; the
    // admission failure never entered the queue.
    EXPECT_EQ(server.admitted(), states[RequestStatus::Ok]
                                     + states[RequestStatus::DeadlineMiss]
                                     + 1u);
    EXPECT_EQ(server.admitted() + server.shedCount() + 1u,
              server.responses().size());
}

TEST(Serve, RunScheduleJumpsTheVirtualClockBetweenSparseArrivals)
{
    std::vector<Request> arrivals;
    for (int i = 0; i < 3; ++i) {
        Request request = tinyRequest("ad");
        request.arrivalSeconds = 1000.0 * i;
        arrivals.push_back(request);
    }
    Server server;
    server.runSchedule(arrivals);

    ASSERT_EQ(server.responses().size(), 3u);
    for (const Response& r : server.responses()) {
        EXPECT_EQ(r.status, RequestStatus::Ok);
        EXPECT_EQ(r.queueWaitSeconds, 0.0)
            << "sparse arrivals must never queue";
    }
    EXPECT_GE(server.response(2).startSeconds, 2000.0);
    EXPECT_GE(server.virtualNow(), 2000.0);
}

TEST(Serve, RunWithDeadlineTruncatesButKeepsPrefixDraws)
{
    const auto model = workloads::makeWorkload("ad", 0.25);
    samplers::Config config = tinyConfig();
    config.iterations = 4000; // long enough that 0 seconds always cuts it

    const samplers::DeadlineRunResult cut =
        samplers::runWithDeadline(*model, config, 0.0);
    EXPECT_TRUE(cut.expired);
    const int draws =
        static_cast<int>(cut.run.chains.front().draws.size());
    EXPECT_GE(draws, 1);
    EXPECT_LT(draws, config.postWarmup());

    config.iterations = 40;
    const samplers::DeadlineRunResult full =
        samplers::runWithDeadline(*model, config, kInf);
    EXPECT_FALSE(full.expired);
    EXPECT_EQ(static_cast<int>(full.run.chains.front().draws.size()),
              config.postWarmup());
}

TEST(Serve, LoadGeneratorIsDeterministicPerSeed)
{
    LoadConfig load;
    load.requests = 100;
    load.seed = 42;
    const LoadGenerator gen(load, defaultTenantMix());
    const auto a = gen.schedule();
    const auto b = gen.schedule();
    ASSERT_EQ(a.size(), 100u);
    ASSERT_EQ(b.size(), 100u);
    double previous = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].arrivalSeconds, b[i].arrivalSeconds);
        EXPECT_EQ(a[i].config.seed, b[i].config.seed);
        EXPECT_GE(a[i].arrivalSeconds, previous) << "arrivals not sorted";
        previous = a[i].arrivalSeconds;
    }

    LoadConfig other = load;
    other.seed = 43;
    const auto c = LoadGenerator(other, defaultTenantMix()).schedule();
    bool differs = false;
    for (std::size_t i = 0; i < c.size(); ++i)
        differs = differs || c[i].arrivalSeconds != a[i].arrivalSeconds;
    EXPECT_TRUE(differs) << "different seeds produced the same trace";
}

} // namespace
