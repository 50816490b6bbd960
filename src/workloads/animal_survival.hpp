/**
 * @file
 * `survival` — estimating animal survival probabilities from
 * capture-recapture data.
 *
 * Cormack-Jolly-Seber model after Kery & Schaub (BPA, 2011): animals
 * are captured, tagged and released; per-occasion survival and
 * recapture probabilities are inferred from resighting histories. This
 * implementation adds site-group heterogeneity in recapture (a
 * logit-normal random effect), and evaluates the standard CJS
 * likelihood with the chi ("never seen again") recursion.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Cormack-Jolly-Seber capture-recapture workload. */
class AnimalSurvival : public ppl::DensityOf<AnimalSurvival, Workload>
{
  public:
    explicit AnimalSurvival(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of tagged individuals. */
    std::size_t numIndividuals() const { return firstCapture_.size(); }

    /** Number of capture occasions. */
    std::size_t numOccasions() const { return numOccasions_; }

    /** Number of site groups (recapture heterogeneity). */
    std::size_t numGroups() const { return numGroups_; }

    std::vector<double> dataSufficientStats() const override;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kMuPhi,     ///< mean survival (logit)
        kSigmaPhi,  ///< between-occasion survival spread, > 0
        kPhiRaw,    ///< per-interval survival effects (logit)
        kMuP,       ///< mean recapture (logit)
        kPRaw,      ///< per-occasion recapture effects (logit)
        kSigmaEps,  ///< group heterogeneity, > 0
        kEps,       ///< per-group recapture effects
    };

  private:
    std::size_t numOccasions_;
    std::size_t numGroups_;
    std::vector<int> firstCapture_;  ///< release occasion per individual
    std::vector<int> lastSighting_;  ///< last occasion seen
    std::vector<int> group_;         ///< site group per individual
    std::vector<std::uint8_t> history_; ///< [individual * T + occasion]

    // The CJS likelihood is linear in {logPhi, logP, log1mP, log chi}
    // with data-determined integer weights; the fused path dots these
    // precomputed counts against the per-(group, occasion) log terms.
    std::vector<double> phiCount_;  ///< [t] uses of logPhi[t]
    std::vector<double> pCount_;    ///< [g * (T-1) + t] resight counts
    std::vector<double> p1mCount_;  ///< [g * (T-1) + t] missed counts
    std::vector<double> chiCount_;  ///< [g * T + t] final sightings
};

} // namespace bayes::workloads
