#include "workloads/racial_threshold.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

RacialThreshold::RacialThreshold(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "racial", "Hierarchical Bayesian",
              "Testing for racial bias in vehicle searches by police",
              "Simoiu et al. 2017 [23]",
              "4.5M North Carolina police stops (aggregated)",
              /*defaultIterations=*/1400},
          dataScale)
{
    Rng rng = dataRng();
    numDepartments_ = scaled(25);
    numRaces_ = 4;

    std::vector<double> muSearchTrue = {-2.2, -1.7, -1.8, -2.0};
    std::vector<double> muHitTrue = {0.2, -0.4, -0.3, 0.0};
    const double sigmaDeptTrue = 0.4;

    for (std::size_t d = 0; d < numDepartments_; ++d) {
        const double deptSearch = rng.normal(0.0, sigmaDeptTrue);
        const double deptHit = rng.normal(0.0, sigmaDeptTrue);
        for (std::size_t r = 0; r < numRaces_; ++r) {
            const long stops = 150 + static_cast<long>(rng.uniformInt(1200));
            const double pSearch =
                math::invLogit(muSearchTrue[r] + deptSearch);
            const long searched = rng.binomial(stops, pSearch);
            const double pHit = math::invLogit(muHitTrue[r] + deptHit);
            const long hit = rng.binomial(searched, pHit);
            stops_.push_back(stops);
            searches_.push_back(searched);
            hits_.push_back(hit);
            // The fused path's rows: department group, race one-hot.
            dept_.push_back(static_cast<int>(d));
            for (std::size_t k = 0; k < numRaces_; ++k)
                raceOneHot_.push_back(k == r ? 1.0 : 0.0);
            if (searched > 0) {
                hitRows_.hits.push_back(hit);
                hitRows_.searches.push_back(searched);
                hitRows_.dept.push_back(static_cast<int>(d));
                hitRows_.raceOneHot.insert(hitRows_.raceOneHot.end(),
                                           raceOneHot_.end() - numRaces_,
                                           raceOneHot_.end());
            }
        }
    }

    setModeledDataBytes((stops_.size() + searches_.size() + hits_.size())
                        * sizeof(long));

    setLayout({
        {"mu_search", numRaces_, ppl::TransformKind::Identity, 0, 0},
        {"mu_hit", numRaces_, ppl::TransformKind::Identity, 0, 0},
        {"sigma_dept", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"dept_search", numDepartments_, ppl::TransformKind::Identity, 0, 0},
        {"dept_hit", numDepartments_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
RacialThreshold::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& sigmaDept = p.scalar(kSigmaDept);

    T lp = normal_lpdf(sigmaDept, 0.0, 1.0);
    for (std::size_t r = 0; r < numRaces_; ++r) {
        // bayes-lint: allow(R007): a handful of races; not a hot loop
        lp += normal_lpdf(p.at(kMuSearch, r), -2.0, 1.5);
        // bayes-lint: allow(R007): a handful of races; not a hot loop
        lp += normal_lpdf(p.at(kMuHit, r), 0.0, 1.5);
    }
    // Non-centered department effects (the Stan original's trick),
    // with a soft sum-to-zero constraint: the race-level means and the
    // department effects are otherwise only jointly identified, which
    // stalls mixing along the translation ridge.
    const double softScale =
        0.01 * std::sqrt(static_cast<double>(numDepartments_));
    if (p.perObservation()) {
        // The reference tape: the Stan original's loops, the search and
        // hit terms interleaved cell by cell.
        std::vector<T> deptSearch(numDepartments_), deptHit(numDepartments_);
        T searchSum = 0.0, hitSum = 0.0;
        for (std::size_t d = 0; d < numDepartments_; ++d) {
            // bayes-lint: allow(R007): reference tape; also builds the effects
            lp += std_normal_lpdf(p.at(kDeptSearch, d));
            // bayes-lint: allow(R007): reference tape; also builds the effects
            lp += std_normal_lpdf(p.at(kDeptHit, d));
            deptSearch[d] = sigmaDept * p.at(kDeptSearch, d);
            deptHit[d] = sigmaDept * p.at(kDeptHit, d);
            searchSum += p.at(kDeptSearch, d);
            hitSum += p.at(kDeptHit, d);
        }
        lp += normal_lpdf(searchSum, 0.0, softScale);
        lp += normal_lpdf(hitSum, 0.0, softScale);

        for (std::size_t d = 0; d < numDepartments_; ++d) {
            for (std::size_t r = 0; r < numRaces_; ++r) {
                const std::size_t cell = d * numRaces_ + r;
                const T etaSearch = p.at(kMuSearch, r) + deptSearch[d];
                // bayes-lint: allow(R007): reference tape; one term per cell
                lp += binomial_logit_lpmf(searches_[cell], stops_[cell],
                                          etaSearch);
                if (searches_[cell] > 0) {
                    const T etaHit = p.at(kMuHit, r) + deptHit[d];
                    // bayes-lint: allow(R007): reference tape; one term per cell
                    lp += binomial_logit_lpmf(hits_[cell], searches_[cell],
                                              etaHit);
                }
            }
        }
        return lp;
    }

    lp += std_normal_lpdf_vec(p.block(kDeptSearch));
    lp += std_normal_lpdf_vec(p.block(kDeptHit));
    std::vector<T> deptSearch(numDepartments_), deptHit(numDepartments_);
    T searchSum = 0.0, hitSum = 0.0;
    for (std::size_t d = 0; d < numDepartments_; ++d) {
        deptSearch[d] = sigmaDept * p.at(kDeptSearch, d);
        deptHit[d] = sigmaDept * p.at(kDeptHit, d);
        searchSum += p.at(kDeptSearch, d);
        hitSum += p.at(kDeptHit, d);
    }
    lp += normal_lpdf(searchSum, 0.0, softScale);
    lp += normal_lpdf(hitSum, 0.0, softScale);

    // Searches of stops in every cell, hits of searches in the cells
    // with a search; the department effect is each row's intercept.
    lp += binomial_logit_glm_lpmf(std::span<const long>(searches_),
                                  std::span<const long>(stops_),
                                  std::span<const double>(raceOneHot_),
                                  std::span<const int>(dept_),
                                  std::span<const T>(deptSearch),
                                  p.block(kMuSearch));
    lp += binomial_logit_glm_lpmf(std::span<const long>(hitRows_.hits),
                                  std::span<const long>(hitRows_.searches),
                                  std::span<const double>(hitRows_.raceOneHot),
                                  std::span<const int>(hitRows_.dept),
                                  std::span<const T>(deptHit),
                                  p.block(kMuHit));
    return lp;
}

template double
RacialThreshold::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
RacialThreshold::logDensity(const ppl::ParamView<ad::Var>&) const;

} // namespace bayes::workloads
