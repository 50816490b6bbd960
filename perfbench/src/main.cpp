/**
 * @file
 * perfbench — the repository benchmark's binary.
 *
 *   perfbench --workload <serve_mix|suite_elided|serve_repeat>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --reference <suite reference file> [--trace-out <json>]
 *   perfbench --make-reference          (writes the reference to stdout)
 *
 * Prints a host/build fingerprint line, then, as the last line, one
 * JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics untraced, the per-layer metrics traced. Exits
 * nonzero without a result on bad arguments, on an error, or when the
 * build is unoptimised or sanitized (its timings would mislead).
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/obs.hpp"

namespace perfbench {

void
Outcome::checkFailed(const std::string& why)
{
    ++failed;
    correct = false;
    std::cerr << "[perfbench] check failed: " << why << "\n";
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedTu = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizedTu = true;
#else
constexpr bool kSanitizedTu = false;
#endif
#else
constexpr bool kSanitizedTu = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Host and build fingerprint; false when timings must not be reported. */
bool
printFingerprint()
{
    const std::string sanitize = PERFBENCH_SANITIZE;
    const bool sanitized = kSanitizedTu || !sanitize.empty();
    std::cout << "{\"fingerprint\": {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": " << jsonString(__VERSION__)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"optimized\": " << (kOptimized ? "true" : "false")
              << ", \"bayes_obs\": "
              << (bayes::obs::kCompiledIn ? "true" : "false")
              << ", \"sanitizer\": "
              << jsonString(sanitized ? (sanitize.empty() ? "on" : sanitize)
                                      : "none")
              << "}}\n";
    if (sanitized || !kOptimized) {
        std::cerr << "perfbench: refusing to report timings from a "
                  << (sanitized ? "sanitizer" : "non-optimised")
                  << " build\n";
        return false;
    }
    if (!bayes::obs::kCompiledIn) {
        std::cerr << "perfbench: per-layer metrics need BAYES_OBS=ON\n";
        return false;
    }
    return true;
}

/** Per-layer metrics read from the obs registry after a traced phase. */
void
registryMetrics(Metrics& m)
{
    const bayes::obs::Snapshot snap = bayes::obs::Registry::global().snapshot();
    auto count = [&](const char* name) {
        return static_cast<double>(snap.counter(name));
    };
    auto hist = [&](const char* name) {
        const bayes::obs::HistogramStats* h = snap.histogram(name);
        return h ? *h : bayes::obs::HistogramStats{};
    };
    m["samplers.grad_evals"] = {count("sampler.grad_evals"), "count"};
    m["samplers.iterations"] = {count("sampler.iterations"), "count"};
    m["samplers.round_p50_s"] = {hist("sampler.round_seconds").p50, "s"};
    m["pool.task_p50_s"] = {hist("pool.task_seconds").p50, "s"};
    m["pool.worker_idle_s"] = {hist("pool.worker_idle_seconds").sum, "s"};
    m["pool.queue_depth_p99"] = {hist("pool.queue_depth").p99, "count"};
    m["pool.tasks"] = {count("pool.tasks_submitted"), "count"};
    const double requests = count("amort.requests");
    m["amortize.served"] = {count("amort.served"), "count"};
    m["amortize.escalated"] = {count("amort.escalated"), "count"};
    m["amortize.cold"] = {count("amort.cold"), "count"};
    m["amortize.served_frac"] = {
        requests > 0 ? count("amort.served") / requests : 0.0, "fraction"};
    m["elide.checks"] = {count("elide.checks"), "count"};
    m["elide.check_s"] = {hist("elide.check_seconds").sum, "s"};
}

void
printResult(const Outcome& out)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    const char* sep = "";
    for (const auto& [name, metric] : out.metrics) {
        const double v = std::isfinite(metric.value) ? metric.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), v, metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

int
usage()
{
    std::cerr << "usage: perfbench --workload <serve_mix|suite_elided|"
                 "serve_repeat> --seed <n> --seconds <s> --trace <0|1> "
                 "--reference <file> [--trace-out <file>]\n"
                 "       perfbench --make-reference\n";
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Options options;
    bool makeReference = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--make-reference") {
            makeReference = true;
            continue;
        }
        if (value == nullptr)
            return usage();
        ++i;
        if (arg == "--workload")
            options.workload = value;
        else if (arg == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            options.seconds = std::atof(value);
        else if (arg == "--trace")
            options.trace = std::strcmp(value, "1") == 0;
        else if (arg == "--reference")
            options.referencePath = value;
        else if (arg == "--trace-out")
            options.traceOut = value;
        else
            return usage();
    }

    try {
        if (makeReference) {
            writeReference(std::cout);
            return 0;
        }
        void (*workload)(const Options&, Outcome&) = nullptr;
        if (options.workload == "serve_mix")
            workload = runServeMix;
        else if (options.workload == "suite_elided")
            workload = runSuiteElided;
        else if (options.workload == "serve_repeat")
            workload = runServeRepeat;
        if (workload == nullptr || !(options.seconds > 0.0))
            return usage();
        if (!printFingerprint())
            return 3;

        Outcome out;
        if (options.trace)
            layerProbes(out.metrics);
        workload(options, out);
        if (options.trace) {
            registryMetrics(out.metrics);
            if (!options.traceOut.empty()) {
                std::ofstream os(options.traceOut);
                bayes::obs::Tracer::global().writeJson(os);
            }
        }
        printResult(out);
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
