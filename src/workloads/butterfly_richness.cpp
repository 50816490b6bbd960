#include "workloads/butterfly_richness.hpp"

#include <cmath>

#include "math/distributions.hpp"

namespace bayes::workloads {

ButterflyRichness::ButterflyRichness(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "butterfly", "Hierarchical Bayesian",
              "Estimating butterfly species richness and accumulation",
              "Dorazio et al. 2006 [26]",
              "detection counts, grassland fragments in Sweden",
              /*defaultIterations=*/1400},
          dataScale)
{
    Rng rng = dataRng();
    numSpecies_ = scaled(28);
    numSites_ = 8;
    visits_ = 3;

    const double muOccTrue = 0.2;
    const double sigmaOccTrue = 1.0;
    const double muDetTrue = -0.6;
    const double sigmaDetTrue = 0.7;

    for (std::size_t s = 0; s < numSpecies_; ++s) {
        const double occEff = rng.normal(muOccTrue, sigmaOccTrue);
        const double detEff = rng.normal(muDetTrue, sigmaDetTrue);
        for (std::size_t j = 0; j < numSites_; ++j) {
            long count = 0;
            if (rng.bernoulli(math::invLogit(occEff))) {
                count = rng.binomial(visits_, math::invLogit(detEff));
            }
            detections_.push_back(count);
        }
    }

    setModeledDataBytes(detections_.size() * sizeof(long));

    setLayout({
        {"mu_occ", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_occ", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"mu_det", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_det", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"occ", numSpecies_, ppl::TransformKind::Identity, 0, 0},
        {"det", numSpecies_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
ButterflyRichness::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& muOcc = p.scalar(kMuOcc);
    const T& sigmaOcc = p.scalar(kSigmaOcc);
    const T& muDet = p.scalar(kMuDet);
    const T& sigmaDet = p.scalar(kSigmaDet);

    T lp = normal_lpdf(muOcc, 0.0, 1.5) + normal_lpdf(sigmaOcc, 0.0, 1.0)
        + normal_lpdf(muDet, 0.0, 1.5) + normal_lpdf(sigmaDet, 0.0, 1.0);

    for (std::size_t s = 0; s < numSpecies_; ++s) {
        // bayes-lint: allow(R007): small species count; occupancy terms dominate
        lp += normal_lpdf(p.at(kOcc, s), muOcc, sigmaOcc);
        // bayes-lint: allow(R007): small species count; occupancy terms dominate
        lp += normal_lpdf(p.at(kDet, s), muDet, sigmaDet);
    }

    for (std::size_t s = 0; s < numSpecies_; ++s) {
        const T& occEff = p.at(kOcc, s);
        const T& detEff = p.at(kDet, s);
        // log P(occupied) = -log1pExp(-occ); log P(empty) = -log1pExp(occ)
        const T logPsi = -log1pExp(-occEff);
        const T logOneMinusPsi = -log1pExp(occEff);
        for (std::size_t j = 0; j < numSites_; ++j) {
            const long x = detections_[s * numSites_ + j];
            // bayes-lint: allow(R007): per-site logSumExp mixture cannot fuse
            const T detLp = binomial_logit_lpmf(x, visits_, detEff);
            if (x > 0) {
                // A detection implies occupancy.
                lp += logPsi + detLp;
            } else {
                // No detection: occupied-but-missed or truly absent.
                lp += logSumExp(logPsi + detLp, logOneMinusPsi);
            }
        }
    }
    return lp;
}

template double
ButterflyRichness::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
ButterflyRichness::logDensity(const ppl::ParamView<ad::Var>&) const;

} // namespace bayes::workloads
