/**
 * @file
 * `butterfly` — estimating butterfly species richness and
 * accumulation.
 *
 * Hierarchical occupancy/detection model after Dorazio et al. (2006):
 * each species has a latent occupancy probability and a detection
 * probability (both hierarchically pooled); observed detection counts
 * per species/site mix the occupied and unoccupied regimes, so the
 * likelihood marginalizes occupancy with log-sum-exp — a
 * transcendental-heavy mix that gives this workload the suite's lowest
 * IPC (paper Fig. 1a).
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Species richness occupancy/detection workload. */
class ButterflyRichness : public ppl::DensityOf<ButterflyRichness, Workload>
{
  public:
    explicit ButterflyRichness(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of species in the augmented pool. */
    std::size_t numSpecies() const { return numSpecies_; }

    /** Number of survey sites. */
    std::size_t numSites() const { return numSites_; }

    /** Replicated visits per site. */
    long visitsPerSite() const { return visits_; }

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMuOcc,     ///< community mean occupancy (logit)
        kSigmaOcc,  ///< occupancy heterogeneity, > 0
        kMuDet,     ///< community mean detection (logit)
        kSigmaDet,  ///< detection heterogeneity, > 0
        kOcc,       ///< per-species occupancy effects
        kDet,       ///< per-species detection effects
    };

  private:
    std::size_t numSpecies_;
    std::size_t numSites_;
    long visits_;
    std::vector<long> detections_; ///< [species * sites + site]
};

} // namespace bayes::workloads
