#include "samplers/runner.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "samplers/dual_averaging.hpp"
#include "samplers/hmc.hpp"
#include "samplers/mh.hpp"
#include "samplers/nuts.hpp"
#include "samplers/slice.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace bayes::samplers {
namespace {

/** Run-level telemetry (catalogued in docs/observability.md). */
struct RunnerMetrics
{
    obs::Counter& runs = obs::Registry::global().counter("sampler.runs");
    obs::Counter& chains = obs::Registry::global().counter("sampler.chains");
    obs::Counter& iterations =
        obs::Registry::global().counter("sampler.iterations");
    obs::Counter& gradEvals =
        obs::Registry::global().counter("sampler.grad_evals");
    obs::Counter& divergences =
        obs::Registry::global().counter("sampler.divergences");
    obs::Histogram& roundSeconds =
        obs::Registry::global().histogram("sampler.round_seconds");

    static RunnerMetrics& get()
    {
        static RunnerMetrics* m = new RunnerMetrics; // leaked, like Registry
        return *m;
    }
};

/** First warmup iteration of the variance phase (the 15% mark). */
int
varianceStart(int warmup)
{
    return std::max(1, warmup * 15 / 100);
}

/** Everything one chain needs to advance independently. */
class ChainState
{
  public:
    ChainState(const ppl::Model& model, const Config& config, Rng rng)
        : config_(config), eval_(model), ham_(eval_), rng_(rng),
          nuts_(ham_, config.maxTreeDepth),
          hmc_(ham_, config.hmcLeapfrogSteps), mh_(eval_), slice_(eval_)
    {
        z_.q = findInitialPoint(eval_, rng_, config.seed);
        ham_.refresh(z_);
        if (config_.algorithm == Algorithm::Nuts
            || config_.algorithm == Algorithm::Hmc) {
            const double eps = ham_.findReasonableStepSize(z_, rng_);
            da_ = std::make_unique<DualAveraging>(eps, config.targetAccept);
            setStepSize(eps);
            if (config_.adaptMetric)
                windowEnds_ = metricWindowEnds(config_.resolvedWarmup());
        }
        welford_.assign(eval_.dim(), RunningStats{});
    }

    /** Run one warmup iteration with adaptation. */
    void
    warmupIteration(int t)
    {
        const double acceptStat = advance();

        if (config_.algorithm == Algorithm::Mh) {
            mh_.adaptScale(acceptStat);
            return;
        }
        if (config_.algorithm == Algorithm::Slice) {
            // The stepping-out procedure self-scales to the slice, so
            // the default unit width needs no warmup adaptation; use
            // SliceSampler::tuneWidths directly for custom schedules.
            return;
        }

        da_->update(acceptStat);
        setStepSize(da_->stepSize());

        if (window_ < windowEnds_.size()
            && t >= varianceStart(config_.resolvedWarmup())) {
            for (std::size_t i = 0; i < z_.q.size(); ++i)
                welford_[i].add(z_.q[i]);
            if (t + 1 == windowEnds_[window_]) {
                installMetric();
                ++window_;
            }
        }
        if (t + 1 == config_.resolvedWarmup()) {
            setStepSize(da_->adaptedStepSize());
            result.stepSize = da_->adaptedStepSize();
        }
    }

    /** Run one post-warmup iteration and record the draw. */
    void
    sampleIteration()
    {
        acceptStats_.push_back(advance());
        result.draws.push_back(eval_.constrain(z_.q));
        result.logProbs.push_back(z_.logProb);
    }

    /**
     * Keep the first @p draws draws and finalize the summary statistics
     * over that prefix alone; totalGradEvals still counts all work done.
     */
    void
    finish(int draws)
    {
        const auto kept = static_cast<std::size_t>(draws);
        result.draws.resize(kept);
        result.logProbs.resize(kept);
        result.iterStats.resize(
            static_cast<std::size_t>(config_.resolvedWarmup() + draws));
        RunningStats accept;
        for (std::size_t t = 0; t < kept; ++t)
            accept.add(acceptStats_[t]);
        result.acceptRate = accept.mean();
        result.divergences = static_cast<std::uint64_t>(
            std::count_if(result.iterStats.end() - draws,
                          result.iterStats.end(),
                          [](const IterationStat& s) { return s.divergent; }));
        result.totalGradEvals = eval_.numGradEvals();
    }

    ChainResult result;

  private:
    /** One transition of the configured kernel; returns accept stat. */
    double
    advance()
    {
        IterationStat stat{0, 0, false};
        double acceptStat = 0.0;
        switch (config_.algorithm) {
          case Algorithm::Nuts: {
              const NutsTransition t = nuts_.transition(z_, rng_);
              stat.gradEvals = t.gradEvals;
              stat.treeDepth = t.depth;
              stat.divergent = t.divergent;
              acceptStat = t.acceptStat;
              break;
          }
          case Algorithm::Hmc: {
              const HmcTransition t = hmc_.transition(z_, rng_);
              stat.gradEvals = t.gradEvals;
              stat.treeDepth =
                  static_cast<std::uint16_t>(config_.hmcLeapfrogSteps);
              stat.divergent = t.divergent;
              acceptStat = t.acceptStat;
              break;
          }
          case Algorithm::Mh: {
              const MhTransition t = mh_.transition(z_.q, z_.logProb, rng_);
              acceptStat = t.acceptProb;
              break;
          }
          case Algorithm::Slice: {
              const SliceTransition t = slice_.sweep(z_.q, z_.logProb, rng_);
              // Density evaluations are the slice sampler's work unit.
              stat.gradEvals = t.evals;
              // Report evals per coordinate (used for width tuning).
              acceptStat = static_cast<double>(t.evals)
                  / static_cast<double>(z_.q.size());
              break;
          }
        }
        result.iterStats.push_back(stat);
        return acceptStat;
    }

    void
    setStepSize(double eps)
    {
        nuts_.setStepSize(eps);
        hmc_.setStepSize(eps);
    }

    /**
     * End a metric window: install its regularized variance estimate
     * (Stan's shrinkage prior), restart step-size adaptation from a
     * freshly found step, and start the next window's estimate empty.
     */
    void
    installMetric()
    {
        std::vector<double> invMetric(z_.q.size());
        const double n = static_cast<double>(welford_[0].count());
        for (std::size_t i = 0; i < invMetric.size(); ++i) {
            invMetric[i] = (n / (n + 5.0)) * welford_[i].variance()
                + 1e-3 * (5.0 / (n + 5.0));
            welford_[i].reset();
        }
        ham_.setInvMetric(std::move(invMetric));
        ham_.refresh(z_);
        const double eps = ham_.findReasonableStepSize(z_, rng_);
        da_->restart(eps);
        setStepSize(eps);
    }

    const Config& config_;
    ppl::Evaluator eval_;
    Hamiltonian ham_;
    Rng rng_;
    NutsSampler nuts_;
    HmcSampler hmc_;
    MhSampler mh_;
    SliceSampler slice_;
    PhasePoint z_;
    std::unique_ptr<DualAveraging> da_;
    std::vector<RunningStats> welford_; ///< the current window's moments
    std::vector<int> windowEnds_;       ///< metricWindowEnds(), if adapting
    std::size_t window_ = 0;            ///< the current metric window
    std::vector<double> acceptStats_;   ///< one per post-warmup iteration
};

using States = std::vector<std::unique_ptr<ChainState>>;

/** Finalize every chain at @p draws draws, roll up metrics, hand over. */
RunResult
collect(States& states, int draws)
{
    RunnerMetrics& metrics = RunnerMetrics::get();
    RunResult out;
    out.chains.resize(states.size());
    for (std::size_t c = 0; c < states.size(); ++c) {
        states[c]->finish(draws);
        out.chains[c] = std::move(states[c]->result);
        metrics.chains.add();
        metrics.iterations.add(out.chains[c].iterStats.size());
        metrics.gradEvals.add(out.chains[c].totalGradEvals);
        metrics.divergences.add(out.chains[c].divergences);
    }
    return out;
}

/**
 * Expose the synchronized state to the monitor. Every chain is parked
 * between segments, so the draw storage can be moved into the context
 * view and back without copying.
 */
MonitorAction
askMonitor(const IterationMonitor& monitor, int draws, States& states)
{
    obs::Span span("sampler.monitor");
    std::vector<ChainResult> view(states.size());
    for (std::size_t c = 0; c < states.size(); ++c)
        view[c] = std::move(states[c]->result);
    const MonitorAction action = monitor.check(MonitorContext{draws, view});
    for (std::size_t c = 0; c < states.size(); ++c)
        states[c]->result = std::move(view[c]);
    return action;
}

/**
 * Run @p fn on every chain and return once all have finished: inline on
 * the calling thread without a pool (Sequential), else as one pool task
 * per chain, whose futures are the barrier.
 */
template <typename Fn>
void
forEachChain(support::ThreadPool* pool, States& states, const Fn& fn)
{
    if (!pool) {
        for (auto& chain : states)
            fn(*chain);
        return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(states.size());
    for (auto& chain : states)
        futures.push_back(pool->submit([&fn, &chain] { fn(*chain); }));
    support::waitAll(futures);
}

/** The whole warmup of one chain (no monitor fires during warmup). */
void
warmupChain(ChainState& chain, int warmup)
{
    obs::Span span("chain.warmup");
    for (int t = 0; t < warmup; ++t)
        chain.warmupIteration(t);
}

/** How a run ended: draws every chain keeps, deadline expiry. */
struct Stop
{
    int draws;
    bool expired;
};

/**
 * The schedule (see runner.hpp): segments of one task per chain up to
 * the monitor's next check draw, or to the last draw without a monitor;
 * one-draw segments when a finite @p deadline meets fewer workers than
 * chains. Each chain stops once @p deadline has passed and every chain
 * keeps the shortest chain's draws; between segments the calling thread
 * checks @p deadline, then asks the monitor at its check draws.
 */
Stop
sample(support::ThreadPool* pool, States& states, int warmup, int sampling,
       double deadline, const IterationMonitor& monitor, const Timer& wall)
{
    const bool queued = std::isfinite(deadline)
        && (!pool || pool->workers() < static_cast<int>(states.size()));
    const int segment = queued ? 1 : monitor.check ? monitor.every : sampling;
    for (int draws = 0;;) {
        const int end = draws + std::min(segment, sampling - draws);
        Timer segmentTimer;
        {
            obs::Span span("sampler.round");
            forEachChain(pool, states, [&](ChainState& chain) {
                if (draws == 0)
                    warmupChain(chain, warmup);
                obs::Span chainSpan("chain.sample");
                for (int t = draws; t < end; ++t) {
                    chain.sampleIteration();
                    if (wall.seconds() >= deadline)
                        break;
                }
            });
        }
        RunnerMetrics::get().roundSeconds.observe(segmentTimer.seconds());
        draws = end;
        for (const auto& chain : states)
            draws = std::min(draws,
                             static_cast<int>(chain->result.draws.size()));
        if (draws < end || wall.seconds() >= deadline)
            return {draws, draws < sampling};
        if (monitor.check && draws % monitor.every == 0
            && askMonitor(monitor, draws, states) == MonitorAction::Stop)
            return {draws, false};
        if (draws == sampling)
            return {sampling, false};
    }
}

} // namespace

std::vector<double>
findInitialPoint(ppl::Evaluator& eval, Rng& rng, std::uint64_t seed)
{
    double lastBadLogProb = -INFINITY;
    for (int attempt = 0; attempt < 100; ++attempt) {
        std::vector<double> q(eval.dim());
        for (double& qi : q)
            qi = rng.uniform(-2.0, 2.0);
        std::vector<double> grad;
        const double lp = eval.logProbGrad(q, grad);
        bool gradFinite = std::isfinite(lp);
        for (double g : grad)
            gradFinite = gradFinite && std::isfinite(g);
        if (gradFinite)
            return q;
        if (!std::isfinite(lp))
            lastBadLogProb = lp;
    }
    std::ostringstream os;
    os << "model '" << eval.model().name()
       << "': no finite-density initial point in 100 attempts (seed " << seed
       << ", last non-finite log-density " << lastBadLogProb << ")";
    throw Error(os.str());
}

std::vector<int>
metricWindowEnds(int warmup)
{
    const int begin = varianceStart(warmup);
    const int end = std::max(begin + 1, warmup * 90 / 100);
    std::vector<int> ends;
    for (int from = begin, size = 25; from < end; size *= 2) {
        // Stretch this window to the phase's end when the next one,
        // twice as long, would not fit after it.
        const int to = from + size + 2 * size > end ? end : from + size;
        if (to - from >= 10)
            ends.push_back(to);
        from = to;
    }
    return ends;
}

RunResult
run(const ppl::Model& model, const Config& config,
    const IterationMonitor& monitor)
{
    return runWithDeadline(model, config, INFINITY, monitor).run;
}

DeadlineRunResult
runWithDeadline(const ppl::Model& model, const Config& config,
                double deadlineSeconds, const IterationMonitor& monitor)
{
    BAYES_CHECK(model.layout().dim() >= 1,
                "model '" << model.name() << "' has no parameters to sample");
    BAYES_CHECK(config.chains >= 1, "need at least one chain");
    BAYES_CHECK(config.iterations > config.resolvedWarmup(),
                "iterations must exceed warmup");
    BAYES_CHECK(config.execution.workers >= 0,
                "pool worker count must be >= 0, got "
                    << config.execution.workers);
    BAYES_CHECK(monitor.every >= 1,
                "monitor interval must be >= 1, got " << monitor.every);

    obs::Span runSpan("sampler.run");
    RunnerMetrics::get().runs.add();
    const Timer wall;
    Rng master(config.seed);
    States states;
    states.reserve(config.chains);
    for (int c = 0; c < config.chains; ++c)
        states.push_back(
            std::make_unique<ChainState>(model, config, master.fork()));

    const int warmup = config.resolvedWarmup();
    const int sampling = config.iterations - warmup;

    support::ThreadPool* pool = config.execution.mode == ExecutionMode::Pool
        ? &support::sharedPool(config.execution.workers)
        : nullptr;
    const Stop stop = sample(pool, states, warmup, sampling, deadlineSeconds,
                             monitor, wall);
    return {collect(states, stop.draws), stop.expired};
}

} // namespace bayes::samplers
