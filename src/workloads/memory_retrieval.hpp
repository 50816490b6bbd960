/**
 * @file
 * `memory` — modeling memory retrieval in sentence comprehension.
 *
 * Hierarchical Bayesian model after Nicenboim & Vasishth (2016): a
 * direct-access (content-addressable) retrieval account in which each
 * participant has random effects on both retrieval accuracy (logistic)
 * and retrieval latency (lognormal), with memory load as the
 * experimental manipulation.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Hierarchical retrieval accuracy + latency workload. */
class MemoryRetrieval : public ppl::DensityOf<MemoryRetrieval, Workload>
{
  public:
    explicit MemoryRetrieval(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of participants. */
    std::size_t numSubjects() const { return numSubjects_; }

    /** Number of trials. */
    std::size_t numTrials() const { return accuracy_.size(); }

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kAlpha,     ///< grand accuracy intercept (logit)
        kBetaLoad,  ///< accuracy cost per unit memory load
        kSigmaU,    ///< accuracy random-effect scale, > 0
        kU,         ///< per-subject accuracy effects
        kMuRt,      ///< grand log-latency intercept
        kGammaLoad, ///< latency cost per unit memory load
        kDeltaAcc,  ///< latency shift on correct retrievals
        kSigmaV,    ///< latency random-effect scale, > 0
        kV,         ///< per-subject latency effects
        kSigmaRt,   ///< lognormal observation noise, > 0
    };

  private:
    std::size_t numSubjects_;
    std::vector<int> subject_;
    std::vector<double> load_;
    std::vector<int> accuracy_;
    std::vector<double> rt_;
    // The fused path's copies of the trials, built once.
    std::vector<double> negLoad_;       ///< the logit GLM's design column
    std::vector<double> latencyDesign_; ///< row-major [trial]{load, acc}
    std::vector<double> logRt_;
    double sumLogRt_ = 0.0;
};

} // namespace bayes::workloads
