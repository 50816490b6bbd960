/**
 * @file
 * Observability layer contract: sharded counters aggregate exactly
 * under concurrent pool-worker writes, histogram quantiles stay within
 * the documented log-bucket resolution, snapshots taken while writers
 * run are race-free (exercised under TSan via the `sanitize` label),
 * and the tracer emits structurally valid Chrome trace_event JSON.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "elide/elision.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/thread_pool.hpp"
#include "workloads/suite.hpp"

namespace bayes::obs {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON reader — just enough to validate exporter output. Parses
// the full value grammar (objects, arrays, strings with escapes,
// numbers, true/false/null) and throws on any syntax error, so a
// passing parse is itself the "valid JSON" assertion.
struct Json
{
    enum class Kind { Object, Array, String, Number, Bool, Null };
    Kind kind = Kind::Null;
    std::map<std::string, Json> object;
    std::vector<Json> array;
    std::string string;
    double number = 0.0;
    bool boolean = false;

    bool has(const std::string& key) const
    {
        return kind == Kind::Object && object.count(key) > 0;
    }
    const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    Json parse()
    {
        Json value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing bytes after JSON value");
        return value;
    }

  private:
    char peek()
    {
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end of JSON");
        return text_[pos_];
    }
    char get() { char c = peek(); ++pos_; return c; }
    void skipWs()
    {
        while (pos_ < text_.size()
               && std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    void expect(char c)
    {
        if (get() != c)
            throw std::runtime_error(std::string("expected '") + c + "'");
    }

    Json parseValue()
    {
        skipWs();
        switch (peek()) {
        case '{': return parseObject();
        case '[': return parseArray();
        case '"': return parseString();
        case 't': literal("true"); return makeBool(true);
        case 'f': literal("false"); return makeBool(false);
        case 'n': literal("null"); return Json{};
        default: return parseNumber();
        }
    }

    static Json makeBool(bool b)
    {
        Json j;
        j.kind = Json::Kind::Bool;
        j.boolean = b;
        return j;
    }

    void literal(const char* word)
    {
        for (const char* p = word; *p; ++p)
            if (get() != *p)
                throw std::runtime_error("bad literal");
    }

    Json parseObject()
    {
        Json j;
        j.kind = Json::Kind::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            get();
            return j;
        }
        while (true) {
            skipWs();
            Json key = parseString();
            skipWs();
            expect(':');
            j.object[key.string] = parseValue();
            skipWs();
            char c = get();
            if (c == '}')
                return j;
            if (c != ',')
                throw std::runtime_error("expected ',' or '}'");
        }
    }

    Json parseArray()
    {
        Json j;
        j.kind = Json::Kind::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            get();
            return j;
        }
        while (true) {
            j.array.push_back(parseValue());
            skipWs();
            char c = get();
            if (c == ']')
                return j;
            if (c != ',')
                throw std::runtime_error("expected ',' or ']'");
        }
    }

    Json parseString()
    {
        Json j;
        j.kind = Json::Kind::String;
        expect('"');
        while (true) {
            char c = get();
            if (c == '"')
                return j;
            if (c == '\\') {
                char e = get();
                switch (e) {
                case '"': j.string += '"'; break;
                case '\\': j.string += '\\'; break;
                case '/': j.string += '/'; break;
                case 'b': j.string += '\b'; break;
                case 'f': j.string += '\f'; break;
                case 'n': j.string += '\n'; break;
                case 'r': j.string += '\r'; break;
                case 't': j.string += '\t'; break;
                case 'u':
                    for (int i = 0; i < 4; ++i)
                        if (!std::isxdigit(
                                static_cast<unsigned char>(get())))
                            throw std::runtime_error("bad \\u escape");
                    j.string += '?'; // tests only check structure
                    break;
                default: throw std::runtime_error("bad escape");
                }
            } else {
                j.string += c;
            }
        }
    }

    Json parseNumber()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size()
               && (std::isdigit(static_cast<unsigned char>(text_[pos_]))
                   || text_[pos_] == '.' || text_[pos_] == 'e'
                   || text_[pos_] == 'E' || text_[pos_] == '+'
                   || text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            throw std::runtime_error("expected number");
        Json j;
        j.kind = Json::Kind::Number;
        j.number = std::stod(text_.substr(start, pos_ - start));
        return j;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

Json
parseJson(const std::string& text)
{
    return JsonParser(text).parse();
}

// ---------------------------------------------------------------------
// Counters

TEST(Counter, AddAndReset)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentPoolIncrementsAggregateExactly)
{
    // Many pool workers hammering one counter: after quiescing, the
    // shard sum must be exact — no lost updates across shards.
    Counter c;
    support::ThreadPool pool(4);
    constexpr int kTasks = 64;
    constexpr int kAddsPerTask = 10000;
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t)
        futures.push_back(pool.submit([&c] {
            for (int i = 0; i < kAddsPerTask; ++i)
                c.add();
        }));
    support::waitAll(futures);
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kTasks) * kAddsPerTask);
}

TEST(Gauge, LastWriteWins)
{
    Gauge g;
    g.set(1.5);
    g.set(-3.25);
    EXPECT_DOUBLE_EQ(g.value(), -3.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------------
// Histograms

TEST(Histogram, EmptyStatsAreZero)
{
    Histogram h;
    const auto s = h.stats();
    EXPECT_EQ(s.count, 0u);
    EXPECT_DOUBLE_EQ(s.sum, 0.0);
    EXPECT_DOUBLE_EQ(s.min, 0.0);
    EXPECT_DOUBLE_EQ(s.max, 0.0);
    EXPECT_DOUBLE_EQ(s.p50, 0.0);
}

TEST(Histogram, CountSumMinMaxAreExact)
{
    Histogram h;
    for (double v : {0.5, 2.0, 8.0, 1.0})
        h.observe(v);
    const auto s = h.stats();
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.sum, 11.5);
    EXPECT_DOUBLE_EQ(s.min, 0.5);
    EXPECT_DOUBLE_EQ(s.max, 8.0);
    EXPECT_DOUBLE_EQ(s.mean(), 11.5 / 4.0);
}

TEST(Histogram, QuantilesWithinLogBucketResolution)
{
    // Uniform 1..1000: quantile estimates must land within the
    // documented quarter-octave resolution (~19% relative error).
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.observe(static_cast<double>(i));
    for (double q : {0.5, 0.9, 0.99}) {
        const double expected = q * 1000.0;
        const double got = h.quantile(q);
        EXPECT_GT(got, expected * 0.80) << "q=" << q;
        EXPECT_LT(got, expected * 1.20) << "q=" << q;
    }
}

TEST(Histogram, SingleValueQuantilesAreExact)
{
    // With one distinct value the quantile clamps into [min, max] and
    // is therefore exact despite the log buckets.
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.observe(3.75);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.75);
    EXPECT_DOUBLE_EQ(h.quantile(0.99), 3.75);
}

TEST(Histogram, NonPositiveValuesLandInUnderflow)
{
    Histogram h;
    h.observe(0.0);
    h.observe(-5.0);
    h.observe(4.0);
    const auto s = h.stats();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, -5.0);
    EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Histogram, ConcurrentObservationsKeepExactCount)
{
    Histogram h;
    support::ThreadPool pool(4);
    constexpr int kTasks = 32;
    constexpr int kObsPerTask = 5000;
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t)
        futures.push_back(pool.submit([&h, t] {
            for (int i = 0; i < kObsPerTask; ++i)
                h.observe(1.0 + (t * kObsPerTask + i) % 100);
        }));
    support::waitAll(futures);
    const auto s = h.stats();
    EXPECT_EQ(s.count,
              static_cast<std::uint64_t>(kTasks) * kObsPerTask);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
}

// ---------------------------------------------------------------------
// Registry

TEST(Registry, HandlesAreStableAndNamespacesIndependent)
{
    Registry reg;
    Counter& a = reg.counter("x");
    Counter& b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    // A gauge named "x" is a different metric.
    reg.gauge("x").set(7.0);
    a.add(3);
    EXPECT_EQ(reg.counter("x").value(), 3u);
    EXPECT_DOUBLE_EQ(reg.gauge("x").value(), 7.0);
}

TEST(Registry, SnapshotLookupAndMissingNames)
{
    Registry reg;
    reg.counter("hits").add(5);
    reg.gauge("level").set(2.5);
    reg.histogram("lat").observe(1.0);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counter("hits"), 5u);
    EXPECT_DOUBLE_EQ(snap.gauge("level"), 2.5);
    ASSERT_NE(snap.histogram("lat"), nullptr);
    EXPECT_EQ(snap.histogram("lat")->count, 1u);
    EXPECT_EQ(snap.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauge("absent"), 0.0);
    EXPECT_EQ(snap.histogram("absent"), nullptr);
}

TEST(Registry, ResetZeroesEverythingHandlesSurvive)
{
    Registry reg;
    Counter& c = reg.counter("n");
    c.add(9);
    reg.gauge("g").set(1.0);
    reg.histogram("h").observe(2.0);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.histogram("h").stats().count, 0u);
    c.add(1); // the old handle still works
    EXPECT_EQ(reg.counter("n").value(), 1u);
}

TEST(Registry, SnapshotWhileWritingIsRaceFreeAndMonotonic)
{
    // Pool workers write continuously while the main thread snapshots.
    // Under -DBAYES_SANITIZE=thread this is the data-race check; in any
    // build the observed counter value must be monotone non-decreasing
    // and end exact after quiescing.
    Registry reg;
    Counter& c = reg.counter("w");
    Histogram& h = reg.histogram("lat");
    support::ThreadPool pool(4);
    constexpr int kTasks = 16;
    constexpr int kOps = 20000;
    std::vector<std::future<void>> futures;
    for (int t = 0; t < kTasks; ++t)
        futures.push_back(pool.submit([&c, &h] {
            for (int i = 0; i < kOps; ++i) {
                c.add();
                h.observe(1.0 + i % 7);
            }
        }));
    std::uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        const auto snap = reg.snapshot();
        const std::uint64_t now = snap.counter("w");
        EXPECT_GE(now, last);
        last = now;
    }
    support::waitAll(futures);
    EXPECT_EQ(reg.snapshot().counter("w"),
              static_cast<std::uint64_t>(kTasks) * kOps);
    EXPECT_EQ(reg.snapshot().histogram("lat")->count,
              static_cast<std::uint64_t>(kTasks) * kOps);
}

TEST(Snapshot, JsonIsValidAndCarriesEveryMetric)
{
    Registry reg;
    reg.counter("a.count").add(2);
    reg.gauge("b.level").set(0.5);
    reg.histogram("c \"quoted\"\n").observe(1.0);
    std::ostringstream os;
    reg.snapshot().writeJson(os);
    const Json doc = parseJson(os.str());
    ASSERT_TRUE(doc.has("counters"));
    ASSERT_TRUE(doc.has("gauges"));
    ASSERT_TRUE(doc.has("histograms"));
    EXPECT_DOUBLE_EQ(doc.at("counters").at("a.count").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("b.level").number, 0.5);
    // The escaped name round-trips; the histogram object has the
    // documented fields.
    ASSERT_EQ(doc.at("histograms").object.size(), 1u);
    const Json& hist = doc.at("histograms").object.begin()->second;
    for (const char* key : {"count", "sum", "min", "max", "p50", "p90",
                            "p99"})
        EXPECT_TRUE(hist.has(key)) << key;
}

// ---------------------------------------------------------------------
// Tracer

TEST(Tracer, IdleSpansRecordNothing)
{
    Tracer& tracer = Tracer::global();
    tracer.stop();
    const std::size_t before = tracer.eventCount();
    {
        Span s("idle.span");
        Span dynamic(std::string("idle.dynamic"));
    }
    tracer.counter("idle.counter", 1.0);
    tracer.instant("idle.instant");
    EXPECT_EQ(tracer.eventCount(), before);
}

TEST(Tracer, TraceJsonIsValidTraceEventFormat)
{
    Tracer& tracer = Tracer::global();
    tracer.start();
    {
        Span outer("test.outer");
        {
            Span inner("test.inner");
        }
        tracer.counter("test.rhat", 1.23);
        tracer.instant("test.mark");
    }
    // Spans recorded from pool workers land on their own tid tracks.
    {
        support::ThreadPool pool(2);
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 4; ++i)
            futures.push_back(pool.submit([] { Span s("test.task"); }));
        support::waitAll(futures);
    }
    tracer.stop();

    std::ostringstream os;
    tracer.writeJson(os);
    const Json doc = parseJson(os.str());

    ASSERT_TRUE(doc.has("traceEvents"));
    const Json& events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, Json::Kind::Array);
    ASSERT_GE(events.array.size(), 6u);

    std::size_t complete = 0, counters = 0, instants = 0, metadata = 0;
    std::vector<std::string> names;
    for (const Json& e : events.array) {
        ASSERT_EQ(e.kind, Json::Kind::Object);
        // Required trace_event fields on every record.
        for (const char* key : {"name", "ph", "ts", "pid", "tid"})
            ASSERT_TRUE(e.has(key)) << key;
        ASSERT_EQ(e.at("ph").kind, Json::Kind::String);
        ASSERT_EQ(e.at("ph").string.size(), 1u);
        ASSERT_EQ(e.at("ts").kind, Json::Kind::Number);
        EXPECT_GE(e.at("ts").number, 0.0);
        names.push_back(e.at("name").string);
        switch (e.at("ph").string[0]) {
        case 'X':
            ASSERT_TRUE(e.has("dur"));
            EXPECT_GE(e.at("dur").number, 0.0);
            ++complete;
            break;
        case 'C':
            ASSERT_TRUE(e.has("args"));
            ASSERT_TRUE(e.at("args").has("value"));
            EXPECT_DOUBLE_EQ(e.at("args").at("value").number, 1.23);
            ++counters;
            break;
        case 'i': ++instants; break;
        case 'M': ++metadata; break;
        default: FAIL() << "unexpected phase " << e.at("ph").string;
        }
    }
    EXPECT_GE(complete, 2u); // outer + inner at minimum
    EXPECT_EQ(counters, 1u);
    EXPECT_EQ(instants, 1u);
    EXPECT_GE(metadata, 1u); // process_name
    for (const char* expected :
         {"test.outer", "test.inner", "test.rhat", "test.mark"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
}

TEST(Metrics, RoundSecondsObservesEverySegment)
{
    // sampler.round_seconds times every segment: one pool task per
    // chain, run to the monitor's next check draw or to the last draw.
    // Segments shrink to one draw only when a finite deadline meets
    // fewer workers than chains.
    const auto wl = workloads::makeWorkload("ad", 0.1);
    samplers::Config cfg;
    cfg.algorithm = samplers::Algorithm::Mh;
    cfg.chains = 3;
    cfg.iterations = 40;
    cfg.warmup = 20;
    cfg.seed = 777;
    Registry& reg = Registry::global();
    Histogram& segments = reg.histogram("sampler.round_seconds");
    Counter& tasks = reg.counter("pool.tasks_submitted");
    const auto segmentsTimed = [&](int workers, double deadline,
                                   const samplers::IterationMonitor& monitor) {
        cfg.execution = samplers::ExecutionPolicy::pool(workers);
        reg.reset();
        samplers::runWithDeadline(*wl, cfg, deadline, monitor);
        const std::uint64_t count = segments.stats().count;
        EXPECT_EQ(tasks.value(), 3 * count);
        return count;
    };
    const auto keepGoing = [](const samplers::MonitorContext&) {
        return samplers::MonitorAction::Continue;
    };
    const double never = std::numeric_limits<double>::infinity();

    EXPECT_EQ(segmentsTimed(3, never, {}), 1u);
    EXPECT_EQ(segmentsTimed(3, never, {keepGoing, 1}), 20u);
    EXPECT_EQ(segmentsTimed(3, never, {keepGoing, 5}), 4u);
    EXPECT_EQ(segmentsTimed(2, never, {}), 1u);
    EXPECT_EQ(segmentsTimed(2, 3600.0, {}), 20u);

    // An elided run joins its chains only at multiples of the R-hat
    // check interval, not after every draw.
    samplers::Config nuts;
    nuts.chains = 4;
    nuts.iterations = 1000;
    nuts.execution = samplers::ExecutionPolicy::pool(4);
    reg.reset();
    const elide::ElisionResult elided =
        elide::runWithElision(*workloads::makeWorkload("ad", 0.1), nuts);
    const std::uint64_t count = segments.stats().count;
    EXPECT_TRUE(elided.converged);
    EXPECT_EQ(tasks.value(), 4 * count);
    EXPECT_LE(count, static_cast<std::uint64_t>(elided.stoppedAtDraw / 25));
}

TEST(Tracer, StartClearsPreviousCollection)
{
    Tracer& tracer = Tracer::global();
    tracer.start();
    { Span s("round.one"); }
    tracer.stop();
    EXPECT_GE(tracer.eventCount(), 1u);
    tracer.start();
    tracer.stop();
    EXPECT_EQ(tracer.eventCount(), 0u);
}

} // namespace
} // namespace bayes::obs
