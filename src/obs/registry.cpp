#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>

namespace bayes::obs {
namespace {

/** Relaxed CAS-min on an atomic double. */
void
atomicMin(std::atomic<double>& a, double v) noexcept
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur
           && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Relaxed CAS-max on an atomic double. */
void
atomicMax(std::atomic<double>& a, double v) noexcept
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur
           && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

void
jsonEscape(std::ostream& os, const std::string& s)
{
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
                   << "0123456789abcdef"[c & 0xf];
            else
                os << c;
        }
    }
}

/** JSON-safe double: finite values as-is, non-finite as null. */
void
jsonNumber(std::ostream& os, double v)
{
    if (std::isfinite(v))
        os << v;
    else
        os << "null";
}

} // namespace

int
Histogram::bucketFor(double v) noexcept
{
    if (!(v > 0.0) || !std::isfinite(v))
        return 0; // underflow bin also absorbs NaN and negatives
    const double octave = std::log2(v);
    const int idx = static_cast<int>(
                        std::floor((octave - kMinExp) * kPerOctave))
        + 1;
    return std::clamp(idx, 0, kBuckets - 1);
}

double
Histogram::bucketUpper(int bucket) noexcept
{
    if (bucket <= 0)
        return std::exp2(static_cast<double>(kMinExp));
    if (bucket >= kBuckets - 1)
        return std::numeric_limits<double>::infinity();
    return std::exp2(static_cast<double>(bucket) / kPerOctave + kMinExp);
}

void
Histogram::observeImpl(double v) noexcept
{
    buckets_[static_cast<std::size_t>(bucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    atomicMin(min_, v);
    atomicMax(max_, v);
}

double
Histogram::quantile(double q) const noexcept
{
    const std::uint64_t n = count_.load(std::memory_order_relaxed);
    if (n == 0)
        return 0.0;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[static_cast<std::size_t>(b)].load(
            std::memory_order_relaxed);
        if (seen >= target && seen > 0) {
            // Clamp the bucket estimate into the observed range so
            // degenerate histograms (all-equal values) stay exact.
            const double upper = bucketUpper(b);
            const double lo = min_.load(std::memory_order_relaxed);
            const double hi = max_.load(std::memory_order_relaxed);
            return std::clamp(upper, lo, hi);
        }
    }
    return max_.load(std::memory_order_relaxed);
}

HistogramStats
Histogram::stats() const noexcept
{
    HistogramStats out;
    out.count = count_.load(std::memory_order_relaxed);
    if (out.count == 0)
        return out;
    out.sum = sum_.load(std::memory_order_relaxed);
    out.min = min_.load(std::memory_order_relaxed);
    out.max = max_.load(std::memory_order_relaxed);
    out.p50 = quantile(0.50);
    out.p90 = quantile(0.90);
    out.p99 = quantile(0.99);
    return out;
}

void
Histogram::reset() noexcept
{
    for (auto& b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
}

std::uint64_t
Snapshot::counter(const std::string& name) const noexcept
{
    for (const auto& c : counters)
        if (c.name == name)
            return c.value;
    return 0;
}

double
Snapshot::gauge(const std::string& name) const noexcept
{
    for (const auto& g : gauges)
        if (g.name == name)
            return g.value;
    return 0.0;
}

const HistogramStats*
Snapshot::histogram(const std::string& name) const noexcept
{
    for (const auto& h : histograms)
        if (h.name == name)
            return &h.stats;
    return nullptr;
}

void
Snapshot::writeJson(std::ostream& os) const
{
    os << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        os << (i ? ",\n    \"" : "\n    \"");
        jsonEscape(os, counters[i].name);
        os << "\": " << counters[i].value;
    }
    os << (counters.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        os << (i ? ",\n    \"" : "\n    \"");
        jsonEscape(os, gauges[i].name);
        os << "\": ";
        jsonNumber(os, gauges[i].value);
    }
    os << (gauges.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
    for (std::size_t i = 0; i < histograms.size(); ++i) {
        const auto& h = histograms[i];
        os << (i ? ",\n    \"" : "\n    \"");
        jsonEscape(os, h.name);
        os << "\": {\"count\": " << h.stats.count << ", \"sum\": ";
        jsonNumber(os, h.stats.sum);
        os << ", \"min\": ";
        jsonNumber(os, h.stats.min);
        os << ", \"max\": ";
        jsonNumber(os, h.stats.max);
        os << ", \"p50\": ";
        jsonNumber(os, h.stats.p50);
        os << ", \"p90\": ";
        jsonNumber(os, h.stats.p90);
        os << ", \"p99\": ";
        jsonNumber(os, h.stats.p99);
        os << "}";
    }
    os << (histograms.empty() ? "}" : "\n  }") << "\n}\n";
}

std::string
Snapshot::json() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

Registry&
Registry::global() noexcept
{
    // Leaked on purpose: pool workers and other static-lifetime threads
    // may record metrics during their own teardown, after ordinary
    // static destructors have started running.
    static Registry* instance = new Registry;
    return *instance;
}

Counter&
Registry::counter(const std::string& name)
{
    support::MutexLock lock(mutex_);
    auto& slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    support::MutexLock lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram&
Registry::histogram(const std::string& name)
{
    support::MutexLock lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

Snapshot
Registry::snapshot() const
{
    support::MutexLock lock(mutex_);
    Snapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
        snap.counters.push_back({name, c->value()});
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
        snap.gauges.push_back({name, g->value()});
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
        snap.histograms.push_back({name, h->stats()});
    return snap;
}

void
Registry::reset() noexcept
{
    support::MutexLock lock(mutex_);
    for (auto& [name, c] : counters_)
        c->reset();
    for (auto& [name, g] : gauges_)
        g->reset();
    for (auto& [name, h] : histograms_)
        h->reset();
}

} // namespace bayes::obs
