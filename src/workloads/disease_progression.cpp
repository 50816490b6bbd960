#include "workloads/disease_progression.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

DiseaseProgression::DiseaseProgression(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "disease", "Logistic Regression",
              "Measuring the continually worsening progression of "
              "Alzheimer's disease",
              "Pourzanjani et al. 2018 [21]",
              "ADNI-style biomarker + diagnosis visits",
              /*defaultIterations=*/1500},
          dataScale)
{
    Rng rng = dataRng();
    numBasis_ = 5;
    const std::size_t patients = scaled(64);
    const std::size_t visits = 4;

    // Ground truth: monotone progression curve from positive weights.
    std::vector<double> wTrue(numBasis_);
    for (auto& w : wTrue)
        w = rng.gamma(2.0, 2.0);
    const double offsetTrue = 1.0;
    const double sigmaTrue = 0.25;
    const double diagScaleTrue = 2.2;
    const double diagShiftTrue = 2.0;

    for (std::size_t pIdx = 0; pIdx < patients; ++pIdx) {
        const double onset = rng.uniform(0.0, 0.5);
        for (std::size_t v = 0; v < visits; ++v) {
            const double t = std::min(
                1.0, onset + 0.5 * static_cast<double>(v) / visits
                    + rng.uniform(0.0, 0.05));
            double score = 0.0;
            for (std::size_t k = 0; k < numBasis_; ++k) {
                const double b = isplineBasis(k, numBasis_, t);
                basis_.push_back(b);
                score += wTrue[k] * b;
            }
            biomarker_.push_back(offsetTrue + score
                                 + rng.normal(0.0, sigmaTrue));
            const double etaDiag = diagScaleTrue * (score - diagShiftTrue);
            diagnosis_.push_back(rng.bernoulli(math::invLogit(etaDiag)));
        }
    }

    setModeledDataBytes((basis_.size() + biomarker_.size()) * sizeof(double)
                        + diagnosis_.size() * sizeof(int));

    setLayout({
        {"w", numBasis_, ppl::TransformKind::LowerBound, 0.0, 0},
        {"offset", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"diag_scale", 1, ppl::TransformKind::Identity, 0, 0},
        {"diag_shift", 1, ppl::TransformKind::Identity, 0, 0},
    });
}

double
DiseaseProgression::isplineBasis(std::size_t k, std::size_t nBasis,
                                 double t)
{
    // Smooth monotone ramp basis: each member saturates later in
    // standardized time, yielding an I-spline-like family on [0, 1].
    const double center =
        (static_cast<double>(k) + 0.5) / static_cast<double>(nBasis);
    const double width = 0.35 / static_cast<double>(nBasis);
    const double z = (t - center) / width;
    return math::invLogit(z);
}

template <typename T>
T
DiseaseProgression::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& offset = p.scalar(kOffset);
    const T& sigma = p.scalar(kSigma);
    const T& diagScale = p.scalar(kDiagScale);
    const T& diagShift = p.scalar(kDiagShift);

    T lp = normal_lpdf(offset, 0.0, 2.0) + normal_lpdf(sigma, 0.0, 1.0)
        + normal_lpdf(diagScale, 0.0, 2.0)
        + normal_lpdf(diagShift, 0.0, 2.0);
    lp += exponential_lpdf_vec(p.block(kWeights), 0.25);

    if (p.perObservation()) {
        // The reference tape: both likelihood terms read one score per
        // visit, which neither GLM kernel can share with the other.
        for (std::size_t i = 0; i < biomarker_.size(); ++i) {
            const double* row = &basis_[i * numBasis_];
            T score = 0.0;
            for (std::size_t k = 0; k < numBasis_; ++k)
                score += p.at(kWeights, k) * row[k];
            // bayes-lint: allow(R007): reference tape; two terms share one score
            lp += normal_lpdf(biomarker_[i], offset + score, sigma);
            // bayes-lint: allow(R007): reference tape; two terms share one score
            lp += bernoulli_logit_lpmf(diagnosis_[i],
                                       diagScale * (score - diagShift));
        }
        return lp;
    }

    const std::span<const double> basis(basis_);
    lp += normal_id_glm_lpdf(std::span<const double>(biomarker_), basis,
                             offset, p.block(kWeights), sigma);
    lp += bernoulli_logit_scaled_glm_lpmf(std::span<const int>(diagnosis_),
                                          basis, p.block(kWeights),
                                          diagScale, diagShift);
    return lp;
}

template double
DiseaseProgression::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
DiseaseProgression::logDensity(const ppl::ParamView<ad::Var>&) const;

std::vector<double>
DiseaseProgression::dataSufficientStats() const
{
    double sumBio = 0.0;
    double sumBioSq = 0.0;
    for (double b : biomarker_) {
        sumBio += b;
        sumBioSq += b * b;
    }
    double sumDiag = 0.0;
    for (int d : diagnosis_)
        sumDiag += d;
    double sumBasis = 0.0;
    double sumBasisSq = 0.0;
    for (double b : basis_) {
        sumBasis += b;
        sumBasisSq += b * b;
    }
    return {static_cast<double>(biomarker_.size()),
            static_cast<double>(numBasis_),
            sumBio,
            sumBioSq,
            sumDiag,
            sumBasis,
            sumBasisSq};
}

} // namespace bayes::workloads
