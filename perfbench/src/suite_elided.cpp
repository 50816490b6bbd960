/**
 * @file
 * suite_elided — the Fig. 8 pipeline: all ten suite models at their
 * Table-I NUTS configuration (4 chains, pooled) under runWithElision's
 * default R-hat < 1.1 rule, one elided run per model per pass. Each run
 * is one posterior; its wall time is that posterior's latency. Every
 * run must converge, and its posterior means must sit within
 * kTolerance reference standard deviations of the stored reference.
 *
 * The sampler seed is the library default for every run, so each run
 * does the same work: elision's stop draw is seed-sensitive (across
 * seeds, racial stopped anywhere from draw 125 to 800, and butterfly
 * sometimes not within its budget), which would swamp any speed-up.
 * The run seed only permutes the order of the ten runs.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "diagnostics/summary.hpp"
#include "elide/elision.hpp"
#include "obs/obs.hpp"
#include "samplers/runner.hpp"
#include "support/stats.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace bayes;

namespace {

constexpr int kSetups = 3;
/** Warm-up runs: a short non-elided NUTS run per model. */
constexpr int kWarmupIterations = 60;
/**
 * Allowed |mean − reference mean| in reference posterior SDs. Elided
 * runs stop as soon as split R-hat < 1.1, often with ~100 draws per
 * chain, so their means carry real Monte Carlo error.
 */
constexpr double kTolerance = 0.75;

/** Reference posterior mean and SD per constrained coordinate. */
using Reference = std::map<std::string, std::vector<std::pair<double, double>>>;

samplers::Config
tableOneConfig(const workloads::Workload& model)
{
    samplers::Config config;
    config.algorithm = samplers::Algorithm::Nuts;
    config.chains = model.info().defaultChains;
    config.iterations = model.info().defaultIterations;
    config.execution = samplers::ExecutionPolicy::pool();
    return config;
}

/** Datasets of the whole suite, then one short run per model. */
std::vector<std::unique_ptr<workloads::Workload>>
setUp()
{
    std::vector<std::unique_ptr<workloads::Workload>> suite =
        workloads::makeSuite();
    for (const auto& model : suite) {
        samplers::Config config = tableOneConfig(*model);
        config.iterations = kWarmupIterations;
        config.seed = 1;
        samplers::run(*model, config);
    }
    return suite;
}

/** Parse "<workload> <coordinate> <mean> <sd>" lines; '#' comments. */
Reference
loadReference(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference " + path);
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name;
        std::size_t index = 0;
        double mean = 0.0, sd = 0.0;
        if (!(fields >> name >> index >> mean >> sd)
            || index != ref[name].size())
            throw std::runtime_error("malformed reference line: " + line);
        ref[name].emplace_back(mean, sd);
    }
    return ref;
}

struct Pass
{
    std::vector<double> seconds; ///< per model, suite order
    std::vector<elide::ElisionResult> results;
    double total = 0.0;
};

/** One elided run per model, in the order @p seed permutes them to. */
Pass
runPass(const std::vector<std::unique_ptr<workloads::Workload>>& suite,
        std::uint64_t seed)
{
    std::vector<std::size_t> order(suite.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[deriveSeed(seed, i) % i]);

    Pass out;
    out.seconds.resize(suite.size());
    out.results.resize(suite.size());
    for (const std::size_t i : order) {
        const double start = now();
        {
            obs::Span span("perfbench.suite.runWithElision");
            out.results[i] =
                elide::runWithElision(*suite[i], tableOneConfig(*suite[i]));
        }
        out.seconds[i] = now() - start;
        out.total += out.seconds[i];
    }
    return out;
}

/** Convergence and reference checks; one failed operation per bad run. */
void
check(const std::vector<std::unique_ptr<workloads::Workload>>& suite,
      const Pass& pass, const Reference& ref, Outcome& out)
{
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string& name = suite[i]->name();
        const elide::ElisionResult& result = pass.results[i];
        ++out.attempted;
        if (!result.converged) {
            out.checkFailed(name + " did not converge");
            continue;
        }
        const auto it = ref.find(name);
        const diagnostics::PosteriorSummary summary =
            diagnostics::summarize(result.run, suite[i]->layout());
        if (it == ref.end() || it->second.size() != summary.coords.size()) {
            out.checkFailed(name + ": reference has no matching entry");
            continue;
        }
        double worst = 0.0;
        for (std::size_t c = 0; c < summary.coords.size(); ++c) {
            const auto [mean, sd] = it->second[c];
            const double z = std::abs(summary.coords[c].mean - mean)
                / std::max(sd, 1e-12);
            worst = std::isfinite(z) ? std::max(worst, z)
                                   : std::numeric_limits<double>::infinity();
        }
        std::cerr << "[perfbench] " << name << ": stop draw "
                  << result.stoppedAtDraw << ", worst |z| " << worst << "\n";
        if (!(worst <= kTolerance))
            out.checkFailed(name + ": posterior mean " + std::to_string(worst)
                            + " reference SDs off");
    }
}

std::vector<double>
allSeconds(const std::vector<Pass>& passes)
{
    std::vector<double> seconds;
    for (const Pass& p : passes)
        seconds.insert(seconds.end(), p.seconds.begin(), p.seconds.end());
    return seconds;
}

} // namespace

void
runSuiteElided(const Options& options, Outcome& out)
{
    const Reference ref = loadReference(options.referencePath);
    std::vector<double> setups;
    std::vector<std::unique_ptr<workloads::Workload>> suite;
    for (int i = 0; i < kSetups; ++i) {
        const double start = now();
        suite = setUp();
        setups.push_back(now() - start);
    }

    if (!options.trace) {
        // Whole passes only: stop before a pass that would overrun.
        std::vector<Pass> passes;
        double elapsed = 0.0;
        while (passes.empty()
               || elapsed + passes.back().total <= options.seconds) {
            passes.push_back(
                runPass(suite, deriveSeed(options.seed, passes.size())));
            elapsed += passes.back().total;
            check(suite, passes.back(), ref, out);
        }
        const std::vector<double> seconds = allSeconds(passes);
        out.metrics["capacity_rps"] = {
            static_cast<double>(seconds.size()) / elapsed, "1/s"};
        out.metrics["latency_p99_s"] = {quantile(seconds, 0.99), "s"};
        out.metrics["geomean_posterior_s"] = {geometricMean(seconds), "s"};
        out.metrics["setup_s"] = {median(setups), "s"};
        return;
    }

    // Traced: one pass untraced, then the same pass traced.
    const Pass plain = runPass(suite, options.seed);
    check(suite, plain, ref, out);
    obs::Registry::global().reset();
    obs::Tracer::global().start();
    const Pass traced = runPass(suite, options.seed);
    obs::Tracer::global().stop();
    check(suite, traced, ref, out);

    Metrics& m = out.metrics;
    double ideal = 0.0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string& name = suite[i]->name();
        const elide::ElisionResult& result = traced.results[i];
        m["elide.stop_draw." + name] = {
            static_cast<double>(result.stoppedAtDraw), "draws"};
        // Chains evaluate in parallel, one per pool worker.
        ideal += static_cast<double>(result.run.totalGradEvals())
            * m.at("ppl.grad_us." + name).value * 1e-6
            / static_cast<double>(result.run.chains.size());
    }
    m["latency_p50_s"] = {quantile(traced.seconds, 0.50), "s"};
    m["samplers.overhead_frac"] = {1.0 - ideal / traced.total, "fraction"};
    m["trace_overhead_frac"] = {traced.total / plain.total - 1.0,
                                "fraction"};
}

void
writeReference(std::ostream& os)
{
    os << "# Reference posterior per suite model: <workload> <coordinate>"
          " <mean> <sd>\n"
          "# from non-elided Table-I NUTS runs at four times the configured"
          " iterations, seed 7.\n";
    os.precision(17);
    for (const auto& model : workloads::makeSuite()) {
        samplers::Config config = tableOneConfig(*model);
        config.iterations *= 4;
        config.seed = 7;
        const diagnostics::PosteriorSummary summary = diagnostics::summarize(
            samplers::run(*model, config), model->layout());
        for (std::size_t c = 0; c < summary.coords.size(); ++c)
            os << model->name() << ' ' << c << ' ' << summary.coords[c].mean
               << ' ' << summary.coords[c].sd << '\n';
        std::cerr << "[perfbench] reference " << model->name() << ": "
                  << summary.coords.size() << " coordinates, max R-hat "
                  << summary.maxRhat() << "\n";
    }
}

} // namespace perfbench
