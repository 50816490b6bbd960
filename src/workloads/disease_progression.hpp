/**
 * @file
 * `disease` — measuring the continually worsening progression of
 * Alzheimer's disease.
 *
 * After Pourzanjani et al. (2018): biomarker trajectories are modeled
 * as monotonically increasing functions of disease time using an
 * I-spline basis with nonnegative weights; a logistic layer maps the
 * latent progression score to the clinical diagnosis.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Monotone I-spline disease-progression workload. */
class DiseaseProgression : public ppl::DensityOf<DiseaseProgression, Workload>
{
  public:
    explicit DiseaseProgression(double dataScale = 1.0);

    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;

    /** Number of biomarker observations. */
    std::size_t numObservations() const { return biomarker_.size(); }

    /** Number of I-spline basis functions. */
    std::size_t numBasis() const { return numBasis_; }

    std::vector<double> dataSufficientStats() const override;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kWeights,   ///< nonnegative I-spline weights (monotonicity)
        kOffset,    ///< biomarker baseline level
        kSigma,     ///< biomarker observation noise, > 0
        kDiagScale, ///< diagnosis logistic slope
        kDiagShift, ///< diagnosis logistic midpoint
    };

  private:
    /** I-spline basis value for basis k at standardized time t. */
    static double isplineBasis(std::size_t k, std::size_t nBasis, double t);

    std::size_t numBasis_;
    std::vector<double> basis_;    ///< row-major [obs][basis]
    std::vector<double> biomarker_;
    std::vector<int> diagnosis_;
};

} // namespace bayes::workloads
