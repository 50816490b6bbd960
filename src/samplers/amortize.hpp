/**
 * @file
 * Amortized posterior cache — the cheap tier of the two-tier serving
 * policy (*Amortized Bayesian Workflow*): production traffic is
 * dominated by repeat requests over the same model family and dataset,
 * so the posterior is fitted once (mean-field ADVI) and repeat requests
 * are answered from the cached fit, provided a deterministic acceptance
 * gate vouches for it. Requests the gate rejects escalate to full NUTS,
 * whose run then refreshes the cache entry's reference summary.
 *
 * Cache identity: entries are keyed by (workload name, canonicalized
 * sufficient statistics of the dataset, dataScale). The statistics come
 * from ppl::Model::dataSufficientStats(); a model returning none is not
 * amortizable and never enters the cache.
 *
 * The acceptance gate combines three deterministic diagnostics, all
 * precomputed so the per-request decision is three comparisons against
 * the thresholds in GateThresholds:
 *  1. Pareto-k̂ of the importance ratios log p(θ) − log q(θ) over draws
 *     θ ~ q from the ADVI fit (diagnostics::paretoKhat), fixed at fit
 *     time;
 *  2. Gaussian KL between the ADVI posterior moments and the cached
 *     NUTS reference summary, refreshed whenever the reference is;
 *  3. the reference run's max split-R̂.
 * An entry with no reference yet never passes: the first request for a
 * key takes the full path (the "cold" outcome) and installs the
 * reference from its own NUTS run.
 *
 * Accounting: every request that reaches the tier terminates in exactly
 * one of {served, escalated, cold}, so
 *   amort.served + amort.escalated + amort.cold == amort.requests
 * holds exactly — exported as obs counters and mirrored in Stats for
 * in-process assertions.
 *
 * Thread safety: the cache itself is not synchronized; serve::Server
 * touches it only from its one coordinating thread.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ppl/evaluator.hpp"
#include "ppl/model.hpp"
#include "samplers/advi.hpp"
#include "samplers/types.hpp"

namespace bayes::samplers::amortize {

/**
 * Thresholds the per-request acceptance gate compares against. What
 * each one rejects:
 *  - khatMax: the Pareto-k̂ tail-shape estimate of the ADVI-proposal
 *    importance ratios. k̂ above ~0.7 is the PSIS reliability cutoff —
 *    the variational fit misses enough posterior mass that importance
 *    correction (and hence the cheap answer) cannot be trusted.
 *  - klMax: moment-matched Gaussian KL divergence between the ADVI
 *    posterior and the cached NUTS reference summary, averaged over
 *    coordinates. Catches mean/scale drift of the cheap fit even when
 *    its tails look fine.
 *  - refRhatMax: max split-R̂ of the cached NUTS reference run. A
 *    reference that never converged cannot vouch for the cheap tier,
 *    whatever the KL says.
 */
struct GateThresholds
{
    /** Reject when Pareto-k̂ of the importance ratios exceeds this. */
    double khatMax = 0.70;
    /** Reject when mean per-coordinate Gaussian KL vs the NUTS
     * reference exceeds this (nats). */
    double klMax = 1.0;
    /** Reject when the reference run's max split-R̂ exceeds this. */
    double refRhatMax = 1.10;
};

/** Tuning for the cheap tier. */
struct AmortizeConfig
{
    /** ADVI settings for the one-time fit (seed included). */
    AdviConfig advi;
    /** Draws from q used for the importance-ratio k̂ estimate. */
    int importanceDraws = 256;
    /** Acceptance-gate thresholds. */
    GateThresholds gate;
};

/** Cache identity: workload family + dataset fingerprint + scale. */
struct CacheKey
{
    std::string workload;
    /** Canonicalized sufficient statistics (statsDigest). */
    std::string digest;
    double dataScale = 1.0;

    bool operator<(const CacheKey& o) const
    {
        return std::tie(workload, digest, dataScale)
            < std::tie(o.workload, o.digest, o.dataScale);
    }
};

/** One cached amortized posterior. */
struct Entry
{
    /** The ADVI fit (variational params + constrained-scale draws). */
    AdviResult fit;
    /** Pareto-k̂ of the ADVI-proposal importance ratios (fit time). */
    double khat = 0.0;
    /** Constrained-scale moments of the fit's draws. */
    std::vector<double> mean;
    std::vector<double> sd;

    /** True once a NUTS reference summary has been installed. */
    bool hasReference = false;
    /** Constrained-scale moments of the reference run's draws. */
    std::vector<double> refMean;
    std::vector<double> refSd;
    /** Max split-R̂ of the reference run. */
    double refMaxRhat = 0.0;
    /** Mean per-coordinate Gaussian KL of the fit vs the reference. */
    double klVsReference = 0.0;

    /** Requests this entry answered from the cheap tier. */
    std::uint64_t hits = 0;
};

/** Per-request gate verdict with the numbers behind it. */
struct GateDecision
{
    bool pass = false;
    double khat = 0.0;
    double kl = 0.0;
    double refRhat = 0.0;
    /** Which diagnostic rejected ("" when pass). */
    const char* rejectedBy = "";
};

/** Tier accounting (mirrors the amort.* obs counters). */
struct Stats
{
    std::uint64_t requests = 0;
    std::uint64_t served = 0;
    std::uint64_t escalated = 0;
    std::uint64_t cold = 0;
};

/** The amortized posterior cache. Not synchronized (see file docs). */
class AmortizedCache
{
  public:
    explicit AmortizedCache(AmortizeConfig config = {});

    /**
     * Canonical dataset fingerprint: the model's sufficient statistics
     * formatted with full precision and joined deterministically.
     * Empty when the model exposes none (not amortizable).
     */
    static std::string statsDigest(const ppl::Model& model);

    /** Cached entry for @p key, or nullptr. Pointer stays valid until
     * the cache is destroyed (entries are never erased). */
    Entry* find(const CacheKey& key);

    /**
     * Fit the cheap tier for @p key: runs ADVI on @p model, estimates
     * the importance k̂ through @p eval (value-only log densities), and
     * installs the entry. The entry has no reference yet, so the gate
     * will not pass it until installReference() is called.
     * @return the installed entry (replaces any previous fit)
     */
    Entry& fit(const CacheKey& key, const ppl::Model& model,
               ppl::Evaluator& eval);

    /**
     * Install/refresh the NUTS reference summary of an entry from a
     * full run's draws, recomputing the fit-vs-reference KL. Called
     * after every cold-path and escalated NUTS run.
     */
    void installReference(Entry& entry, const RunResult& run);

    /** Deterministic acceptance verdict for @p entry. */
    GateDecision gate(const Entry& entry) const;

    /** Tier accounting: a request entered the tier. */
    void noteRequest();
    /** Terminal: answered from the cache. */
    void noteServed(Entry& entry);
    /** Terminal: gate rejected, escalated to full NUTS. */
    void noteEscalated();
    /** Terminal: no entry for the key, full path + later install. */
    void noteCold();

    const Stats& stats() const { return stats_; }
    const AmortizeConfig& config() const { return config_; }
    std::size_t size() const { return entries_.size(); }

  private:
    AmortizeConfig config_;
    std::map<CacheKey, Entry> entries_;
    Stats stats_;
};

} // namespace bayes::samplers::amortize
