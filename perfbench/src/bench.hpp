/**
 * @file
 * Shared plumbing of the repository benchmark: its own clock, the
 * metric map every workload fills, seed derivation, and the entry
 * points of the three workloads and the per-layer probes.
 *
 * The benchmark calls only public library functions and times them
 * with std::chrono::steady_clock directly, so nothing it measures
 * depends on the library's swappable support::Clock seam.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "samplers/amortize.hpp"

namespace perfbench {

/** Monotonic seconds on the benchmark's own clock. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metric name -> value with unit (printed sorted by name). */
using Metrics = std::map<std::string, Metric>;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reference posterior means for suite_elided's correctness check. */
    std::string referencePath;
    /** Where the traced run writes its trace_event JSON ("" = nowhere). */
    std::string traceOut;
};

/** What one workload run reports (the result line). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when any correctness check failed. */
    bool correct = true;
    Metrics metrics;

    /** Record a failed correctness check (also a failed operation). */
    void checkFailed(const std::string& why);
};

/** Independent 64-bit stream @p stream of @p seed (splitmix64). */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/** Median of @p xs (0 when empty). */
double median(std::vector<double> xs);

/** Heap allocations made by the calling thread so far. */
std::uint64_t threadAllocations();

/** serve_repeat's models and scale (the amortized tier's traffic). */
inline constexpr const char* kRepeatModels[] = {"ad", "votes", "12cities"};
inline constexpr double kRepeatScale = 0.25;

/** The amortized tier's fit and gate settings (as bench/serve_amortized). */
bayes::samplers::amortize::AmortizeConfig tierConfig();

/**
 * Fill the workload-independent per-layer metrics: ppl/ad per suite
 * model, the serve_mix tenants' 2-lane batches, math kernels,
 * diagnostics and the amortized tier's fit times.
 */
void layerProbes(Metrics& out);

/**
 * The workloads. Untraced, each fills the end-to-end metrics; traced,
 * it finds the layer probes already in @p out and adds the metrics of
 * the layers it exercises.
 */
void runServeMix(const Options& options, Outcome& out);
void runServeRepeat(const Options& options, Outcome& out);
void runSuiteElided(const Options& options, Outcome& out);

/** Regenerate suite_elided's reference posterior (long non-elided runs). */
void writeReference(std::ostream& os);

} // namespace perfbench
