/**
 * @file
 * `tickets` — do NYPD officers alter ticket writing to match
 * departmental targets?
 *
 * Generative model after Auerbach (2017): each officer has a latent
 * base productivity; an end-of-month quota push shifts the rate; squad
 * and shift covariates modulate it. Ticket counts per
 * officer/month/half are Poisson. This is the suite's largest modeled
 * dataset and the paper's most LLC-bound workload.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Officer ticket-writing quota workload. */
class TicketsQuota : public ppl::DensityOf<TicketsQuota, Workload>
{
  public:
    /**
     * @param dataScale  dataset shrink factor in (0, 1]
     * @param subsampleFraction  fraction of rows the likelihood visits
     *        per evaluation, each reweighted by its inverse — the
     *        paper's §VII-B mitigation ("subsample the data such that
     *        the working set fits the LLC"). 1.0 = full likelihood.
     */
    explicit TicketsQuota(double dataScale = 1.0,
                          double subsampleFraction = 1.0);

    /** Rows the likelihood actually visits per evaluation. */
    std::size_t activeRows() const { return activeRows_; }

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of officers. */
    std::size_t numOfficers() const { return numOfficers_; }

    /** Number of observation rows. */
    std::size_t numRows() const { return counts_.size(); }

    std::vector<double> dataSufficientStats() const override;

    /** End-of-month quota effect used to generate the data. */
    static constexpr double kTrueQuotaEffect = 0.35;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMuTheta,    ///< mean officer log-productivity
        kSigmaTheta, ///< officer heterogeneity, > 0
        kTheta,      ///< per-officer log-productivity
        kDelta,      ///< end-of-month quota effect
        kBeta,       ///< squad / shift covariate effects
    };

  private:
    std::size_t numOfficers_;
    std::size_t numCovariates_;
    std::size_t activeRows_;
    double likelihoodWeight_;
    std::vector<long> counts_;
    std::vector<int> officer_;
    std::vector<double> design_; ///< row-major [row]{eom, covariates}
};

} // namespace bayes::workloads
