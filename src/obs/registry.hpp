/**
 * @file
 * Metrics registry — named counters, gauges and histograms shared by
 * the whole runtime (paper §IV: the headline results are measurements;
 * this layer is how the runtime exposes its own).
 *
 * Design constraints, in order:
 *  1. Writers never block writers. A counter is one relaxed atomic
 *     and a histogram relaxed atomic bucket counts. No metric is
 *     written more often than once per pool task, and nothing in the
 *     gradient path (ad, math, ppl) writes one at all, so contention
 *     on a shared line stays rare.
 *  2. Reads aggregate. `Registry::snapshot()` reads every metric while
 *     writers keep writing — each metric is individually coherent
 *     (relaxed atomics), the snapshot as a whole is a point-in-time
 *     approximation. After the workload quiesces (e.g. `waitAll`),
 *     a snapshot is exact.
 *  3. Zero cost when compiled out. Building with `-DBAYES_OBS=OFF`
 *     defines `BAYES_OBS_ENABLED=0`; every write path collapses to an
 *     empty inline body. The registry itself stays linkable so
 *     exporters compile either way (they just report zeros).
 *
 * Handles returned by `Registry::{counter,gauge,histogram}` are stable
 * for the process lifetime — cache them in a function-local static at
 * the instrumentation site and the steady-state cost is one relaxed
 * atomic add.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

// Freestanding support headers (no layer edge — see the manifest in
// docs/architecture.md): obs sits below support but may use the
// annotated lock primitives.
#include "support/thread_safety.hpp"

#ifndef BAYES_OBS_ENABLED
#define BAYES_OBS_ENABLED 1
#endif

namespace bayes::obs {

/** True when the observability layer is compiled in (BAYES_OBS=ON). */
inline constexpr bool kCompiledIn = BAYES_OBS_ENABLED != 0;

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter&) = delete;
    Counter& operator=(const Counter&) = delete;

    /** Add @p n; wait-free, relaxed, safe from any thread. */
    void
    add(std::uint64_t n = 1) noexcept
    {
        if constexpr (kCompiledIn)
            value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current count (approximate while writers run). */
    std::uint64_t value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Zero the count (handles stay valid). */
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written double value (e.g. the most recent R-hat). */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge&) = delete;
    Gauge& operator=(const Gauge&) = delete;

    void
    set(double v) noexcept
    {
        if constexpr (kCompiledIn)
            value_.store(v, std::memory_order_relaxed);
    }

    double value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Aggregated view of one histogram (see Histogram::stats). */
struct HistogramStats
{
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0; ///< 0 when count == 0
    double max = 0.0;
    double p50 = 0.0; ///< quantiles carry log-bucket resolution (~19%)
    double p90 = 0.0;
    double p99 = 0.0;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/**
 * Log-bucketed distribution of positive doubles (latencies, depths,
 * R-hat values). Buckets are quarter-octaves (4 per power of two)
 * spanning [2^-30, 2^34) ≈ [1 ns, 1.7e10] with under/overflow bins, so
 * quantile estimates are within ~19% relative error — plenty for
 * latency telemetry. All writes are relaxed atomics.
 */
class Histogram
{
  public:
    Histogram() = default;
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;

    /** Record @p v; non-positive values land in the underflow bin. */
    void
    observe(double v) noexcept
    {
        if constexpr (kCompiledIn)
            observeImpl(v);
    }

    /** Aggregate count/sum/min/max and interpolated quantiles. */
    HistogramStats stats() const noexcept;

    /** Value at quantile @p q in [0,1] (bucket upper-bound estimate). */
    double quantile(double q) const noexcept;

    void reset() noexcept;

  private:
    void observeImpl(double v) noexcept;
    static int bucketFor(double v) noexcept;
    static double bucketUpper(int bucket) noexcept;

    static constexpr int kPerOctave = 4;
    static constexpr int kMinExp = -30;
    static constexpr int kMaxExp = 34;
    /** [0] underflow, [1..N] log buckets, [N+1] overflow. */
    static constexpr int kBuckets = (kMaxExp - kMinExp) * kPerOctave + 2;

    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    /** ±infinity sentinels until the first observation lands. */
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/** Point-in-time aggregate of every registered metric. */
struct Snapshot
{
    struct CounterSample
    {
        std::string name;
        std::uint64_t value;
    };
    struct GaugeSample
    {
        std::string name;
        double value;
    };
    struct HistogramSample
    {
        std::string name;
        HistogramStats stats;
    };

    std::vector<CounterSample> counters;
    std::vector<GaugeSample> gauges;
    std::vector<HistogramSample> histograms;

    /** Counter value by name; 0 when absent. */
    std::uint64_t counter(const std::string& name) const noexcept;
    /** Gauge value by name; 0.0 when absent. */
    double gauge(const std::string& name) const noexcept;
    /** Histogram stats by name; nullptr when absent. */
    const HistogramStats* histogram(const std::string& name) const noexcept;

    /** Serialize as a stable JSON object (metrics exporter format). */
    void writeJson(std::ostream& os) const;
    std::string json() const;
};

/**
 * Name → metric map. Metrics are created on first use and live for the
 * process lifetime; the three kinds occupy independent namespaces.
 */
class Registry
{
  public:
    /** The process-wide registry (leaked singleton — safe at exit). */
    static Registry& global() noexcept;

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /** Aggregate every metric (sorted by name within each kind). */
    Snapshot snapshot() const;

    /** Zero every metric in place; existing handles stay valid. */
    void reset() noexcept;

    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

  private:
    mutable support::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        BAYES_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        BAYES_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Histogram>> histograms_
        BAYES_GUARDED_BY(mutex_);
};

} // namespace bayes::obs
