/**
 * @file
 * `ad` — advertising attribution in the movie industry.
 *
 * Logistic regression after Lei, Sanders & Dawson (StanCon 2017):
 * survey respondents report demographics and which advertising
 * channels they saw; the outcome is whether they attended the movie.
 * The feature matrix is the modeled data, making this one of the
 * paper's three LLC-bound workloads.
 */
#pragma once

#include "workloads/workload.hpp"

namespace bayes::workloads {

/** Logistic-regression advertising attribution workload. */
class AdAttribution : public Workload
{
  public:
    explicit AdAttribution(double dataScale = 1.0);

    double logProb(const ppl::ParamView<double>& p) const override;
    ad::Var logProb(const ppl::ParamView<ad::Var>& p) const override;
    double logProbScalar(const ppl::ParamView<double>& p) const override;
    ad::Var logProbScalar(const ppl::ParamView<ad::Var>& p) const override;

    /** Number of survey respondents. */
    std::size_t numRespondents() const { return outcomes_.size(); }

    /** Number of predictors (channels + demographics). */
    std::size_t numFeatures() const { return numFeatures_; }

    std::vector<double> dataSufficientStats() const override;

    /** Parameter block indices. */
    enum Block : std::size_t
    {
        kIntercept,
        kBeta,
    };

  private:
    template <typename T>
    T logDensity(const ppl::ParamView<T>& p) const;
    template <typename T>
    T logDensityScalar(const ppl::ParamView<T>& p) const;

    std::size_t numFeatures_;
    std::vector<int> outcomes_;
    std::vector<double> features_; ///< row-major [respondent][feature]
};

} // namespace bayes::workloads
