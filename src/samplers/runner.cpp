#include "samplers/runner.hpp"

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
    obs::Gauge& dataPassesPerRound =
        obs::Registry::global().gauge("eval.data_passes_per_round");

    static RunnerMetrics& get()
    {
        static RunnerMetrics* m = new RunnerMetrics; // leaked, like Registry
        return *m;
    }
};

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
        }
        welford_.assign(eval_.dim(), RunningStats{});
    }

    /** Run one warmup iteration with adaptation. */
    void
    warmupIteration(int t)
    {
        const int warmup = config_.resolvedWarmup();
        const int phase1End = std::max(1, warmup * 15 / 100);
        const int phase2End = std::max(phase1End + 1, warmup * 90 / 100);

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

        if (t >= phase1End && t < phase2End) {
            for (std::size_t i = 0; i < z_.q.size(); ++i)
                welford_[i].add(z_.q[i]);
        }
        if (config_.adaptMetric && t + 1 == phase2End
            && welford_[0].count() >= 10) {
            std::vector<double> invMetric(z_.q.size());
            // Regularized variance estimate (Stan's shrinkage prior).
            const double n = static_cast<double>(welford_[0].count());
            for (std::size_t i = 0; i < invMetric.size(); ++i) {
                invMetric[i] = (n / (n + 5.0)) * welford_[i].variance()
                    + 1e-3 * (5.0 / (n + 5.0));
            }
            ham_.setInvMetric(std::move(invMetric));
            ham_.refresh(z_);
            const double eps = ham_.findReasonableStepSize(z_, rng_);
            da_->restart(eps);
            setStepSize(eps);
        }
        if (t + 1 == warmup) {
            setStepSize(da_->adaptedStepSize());
            result.stepSize = da_->adaptedStepSize();
        }
    }

    /** Run one post-warmup iteration and record the draw. */
    void
    sampleIteration()
    {
        const double acceptStat = advance();
        finishIteration(IterationStat{}, acceptStat, /*record=*/false);
    }

    // -- Batched round protocol (HMC/MH, see BatchedRound) -------------
    // Each round the executor opens every chain's transition, gathers
    // the pending points into one EvalBatch, and delivers the shared
    // evaluation back — the chain's RNG stream and floating-point
    // sequence are exactly those of sampleIteration().

    /** Open one MH iteration: draw the proposal to be evaluated. */
    void mhBegin() { mh_.propose(z_.q, rng_, proposal_); }

    /** Proposal point awaiting its (batched) density. */
    const std::vector<double>& pendingProposal() const { return proposal_; }

    /** Close the MH iteration with the batched density and record. */
    void
    mhFinish(double proposalLogProb)
    {
        const MhTransition t =
            mh_.finish(z_.q, z_.logProb, proposal_, proposalLogProb, rng_);
        finishIteration(IterationStat{0, 0, false}, t.acceptProb);
    }

    /** Open one HMC iteration: refresh momentum, start the trajectory. */
    void hmcBegin() { hmc_.begin(z_, rng_, phase_); }

    /**
     * Advance to the trajectory's next pending position. Returns false
     * when the trajectory needs no more gradient evaluations.
     */
    bool hmcPrepare() { return hmc_.prepareStep(phase_); }

    /** Trajectory position awaiting its (batched) gradient. */
    const std::vector<double>& pendingPosition() const
    {
        return phase_.trial.q;
    }

    /** Deliver the batched evaluation at the pending position. */
    void
    hmcApplyEval(double logProb, std::span<const double> grad)
    {
        hmc_.applyEval(phase_, logProb, grad);
        ++extGradEvals_;
    }

    /** Close the HMC iteration (accept/reject) and record the draw. */
    void
    hmcFinish()
    {
        const HmcTransition t = hmc_.finish(z_, phase_, rng_);
        finishIteration(
            IterationStat{
                t.gradEvals,
                static_cast<std::uint16_t>(config_.hmcLeapfrogSteps),
                t.divergent},
            t.acceptStat);
    }

    /** Gradient evaluations consumed so far (work counter). */
    std::uint64_t
    gradEvals() const
    {
        return eval_.numGradEvals() + extGradEvals_;
    }

    /** Finalize summary statistics. */
    void
    finish()
    {
        result.acceptRate = acceptAccum_.mean();
        result.totalGradEvals = eval_.numGradEvals() + extGradEvals_;
        result.tapeNodesPerEval = eval_.lastTapeNodes();
    }

    ChainResult result;

  private:
    /**
     * Record one post-warmup iteration: the iteration stat and
     * divergence count (when @p record — advance() already recorded
     * them for the unbatched path), the acceptance statistic, and the
     * constrained draw with its log density.
     */
    void
    finishIteration(IterationStat stat, double acceptStat,
                    bool record = true)
    {
        if (record) {
            if (stat.divergent && !result.draws.empty())
                ++result.divergences;
            result.iterStats.push_back(stat);
        }
        acceptAccum_.add(acceptStat);
        result.draws.push_back(eval_.constrain(z_.q));
        result.logProbs.push_back(z_.logProb);
    }

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
        if (stat.divergent && !result.draws.empty())
            ++result.divergences;
        result.iterStats.push_back(stat);
        return acceptStat;
    }

    void
    setStepSize(double eps)
    {
        nuts_.setStepSize(eps);
        hmc_.setStepSize(eps);
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
    std::vector<RunningStats> welford_;
    RunningStats acceptAccum_;
    HmcPhase phase_;               ///< in-flight batched HMC transition
    std::vector<double> proposal_; ///< in-flight batched MH proposal
    std::uint64_t extGradEvals_ = 0; ///< evals served by a shared batch
};

using States = std::vector<std::unique_ptr<ChainState>>;

/** Finalize every chain, roll its work into the metrics, hand over. */
RunResult
collect(States& states)
{
    RunnerMetrics& metrics = RunnerMetrics::get();
    RunResult out;
    out.chains.resize(states.size());
    for (std::size_t c = 0; c < states.size(); ++c) {
        states[c]->finish();
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
 * (sequential round done, or all workers at the barrier), so the draw
 * storage can be moved into the context view and back without copying.
 */
MonitorAction
askMonitor(const IterationMonitor& monitor, int round, States& states,
           std::vector<ChainResult>& view,
           std::vector<std::uint64_t>& gradEvals, const Timer& wall)
{
    obs::Span span("sampler.monitor");
    for (std::size_t c = 0; c < states.size(); ++c) {
        view[c] = std::move(states[c]->result);
        gradEvals[c] = states[c]->gradEvals();
    }
    const MonitorContext context{round, view, wall.seconds(), gradEvals};
    const MonitorAction action = monitor(context);
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

/**
 * One batched HMC/MH round on the calling thread: gather every chain's
 * pending point into one EvalBatch and evaluate them against the shared
 * data in a single pass (HMC gathers once per leapfrog step, shrinking
 * as trajectories finish early). Per-chain RNG streams are consumed in
 * exactly the unbatched order, so draws are byte-identical to the
 * sequential schedule — batching only changes who performs the
 * evaluation, not what is evaluated.
 */
class BatchedRound
{
  public:
    BatchedRound(const ppl::Model& model, States& states, Algorithm algo)
        : sharedEval_(model), states_(states), algo_(algo)
    {
        lanes_.reserve(states.size());
        pending_.reserve(states.size());
    }

    void
    operator()()
    {
        std::uint64_t passes = 0;
        if (algo_ == Algorithm::Mh) {
            lanes_.clear();
            for (auto& chain : states_) {
                chain->mhBegin();
                lanes_.push_back(&chain->pendingProposal());
            }
            batch_.assignPoints(sharedEval_.dim(), lanes_);
            lp_.resize(lanes_.size());
            sharedEval_.logProbBatch(batch_, lp_);
            ++passes;
            for (std::size_t c = 0; c < states_.size(); ++c)
                states_[c]->mhFinish(lp_[c]);
        } else {
            for (auto& chain : states_)
                chain->hmcBegin();
            for (;;) {
                pending_.clear();
                lanes_.clear();
                for (auto& chain : states_) {
                    if (chain->hmcPrepare()) {
                        pending_.push_back(chain.get());
                        lanes_.push_back(&chain->pendingPosition());
                    }
                }
                if (pending_.empty())
                    break;
                batch_.assignPoints(sharedEval_.dim(), lanes_);
                lp_.resize(lanes_.size());
                sharedEval_.logProbGradBatch(batch_, lp_, grads_);
                ++passes;
                for (std::size_t l = 0; l < pending_.size(); ++l) {
                    grads_.getPoint(l, laneGrad_);
                    pending_[l]->hmcApplyEval(lp_[l], laneGrad_);
                }
            }
            for (auto& chain : states_)
                chain->hmcFinish();
        }
        RunnerMetrics::get().dataPassesPerRound.set(
            static_cast<double>(passes));
    }

  private:
    ppl::Evaluator sharedEval_;
    States& states_;
    Algorithm algo_;
    ppl::EvalBatch batch_;
    ppl::EvalBatch grads_;
    std::vector<double> lp_;
    std::vector<double> laneGrad_;
    std::vector<ChainState*> pending_;
    std::vector<const std::vector<double>*> lanes_;
};

/**
 * The one schedule. Unbatched and without a monitor, every chain
 * free-runs its warmup and sampling as one unit. Otherwise every chain
 * warms up, then the chains advance in barrier rounds — one iteration
 * per chain per round, by forEachChain or by the @p batched round — and
 * after each round the monitor decides on the calling thread while
 * every chain is parked. Stopping only ends the loop, so delivered
 * draws are a prefix of the full run's under every policy.
 */
RunResult
runSchedule(support::ThreadPool* pool, States& states, int warmup,
            int sampling, const IterationMonitor& monitor, const Timer& wall,
            BatchedRound* batched = nullptr)
{
    if (!monitor && !batched) {
        forEachChain(pool, states, [warmup, sampling](ChainState& chain) {
            warmupChain(chain, warmup);
            obs::Span span("chain.sample");
            for (int t = 0; t < sampling; ++t)
                chain.sampleIteration();
        });
        return collect(states);
    }
    {
        obs::Span span("sampler.warmup");
        forEachChain(pool, states, [warmup](ChainState& chain) {
            warmupChain(chain, warmup);
        });
    }

    std::vector<ChainResult> view(states.size());
    std::vector<std::uint64_t> gradEvals(states.size());
    for (int t = 0; t < sampling; ++t) {
        Timer round;
        {
            obs::Span span("sampler.round");
            if (batched)
                (*batched)();
            else
                forEachChain(pool, states, [](ChainState& chain) {
                    obs::Span chainSpan("chain.round");
                    chain.sampleIteration();
                });
        }
        if (!monitor)
            continue;
        RunnerMetrics::get().roundSeconds.observe(round.seconds());
        if (askMonitor(monitor, t + 1, states, view, gradEvals, wall)
            == MonitorAction::Stop)
            break;
    }
    return collect(states);
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

RunResult
run(const ppl::Model& model, const Config& config,
    const IterationMonitor& monitor)
{
    BAYES_CHECK(config.chains >= 1, "need at least one chain");
    BAYES_CHECK(config.iterations > config.resolvedWarmup(),
                "iterations must exceed warmup");
    BAYES_CHECK(config.execution.workers >= 0,
                "pool worker count must be >= 0, got "
                    << config.execution.workers);

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
    // Pool mode is where chains share data and a schedule, so it is
    // where batched evaluation pays: HMC/MH rounds gather all chains'
    // pending points into one EvalBatch. NUTS/Slice keep per-chain
    // evaluation (their evaluation schedule is data-dependent per
    // chain).
    if (pool && config.batchEval && config.chains > 1
        && (config.algorithm == Algorithm::Hmc
            || config.algorithm == Algorithm::Mh)) {
        BatchedRound batched(model, states, config.algorithm);
        return runSchedule(pool, states, warmup, sampling, monitor, wall,
                           &batched);
    }
    return runSchedule(pool, states, warmup, sampling, monitor, wall);
}

DeadlineRunResult
runWithDeadline(const ppl::Model& model, const Config& config,
                double deadlineSeconds, const IterationMonitor& monitor)
{
    DeadlineRunResult out;
    const Timer wall;
    if (std::isinf(deadlineSeconds) && deadlineSeconds > 0.0) {
        out.run = run(model, config, monitor);
        out.elapsedSeconds = wall.seconds();
        return out;
    }
    bool expired = false;
    const IterationMonitor deadlineMonitor =
        [&](const MonitorContext& ctx) -> MonitorAction {
        if (ctx.elapsedSeconds >= deadlineSeconds) {
            // Only a premature stop counts as expiry: the final round
            // of a run that just fits its budget is not a miss.
            expired = ctx.round < config.postWarmup();
            return MonitorAction::Stop;
        }
        return monitor ? monitor(ctx) : MonitorAction::Continue;
    };
    out.run = run(model, config, deadlineMonitor);
    out.expired = expired;
    out.elapsedSeconds = wall.seconds();
    return out;
}

} // namespace bayes::samplers
