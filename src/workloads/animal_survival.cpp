#include "workloads/animal_survival.hpp"

#include <cmath>
#include <span>

#include "math/distributions.hpp"
#include "math/vec_kernels.hpp"

namespace bayes::workloads {

AnimalSurvival::AnimalSurvival(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "survival", "Cormack-Jolly-Seber",
              "Estimating animal survival probabilities",
              "Kery & Schaub, BPA 2011 [27]",
              "capture-recapture histories of tagged animals",
              /*defaultIterations=*/1200},
          dataScale)
{
    Rng rng = dataRng();
    numOccasions_ = 14;
    numGroups_ = 20;
    const std::size_t individuals = scaled(1700);

    const double muPhiTrue = 1.1;   // survival ~0.75
    const double sigmaPhiTrue = 0.3;
    const double muPTrue = -0.4;    // recapture ~0.40
    const double sigmaEpsTrue = 0.5;

    std::vector<double> phiTrue(numOccasions_ - 1);
    for (auto& f : phiTrue)
        f = math::invLogit(rng.normal(muPhiTrue, sigmaPhiTrue));
    std::vector<double> epsTrue(numGroups_);
    for (auto& e : epsTrue)
        e = rng.normal(0.0, sigmaEpsTrue);

    history_.assign(individuals * numOccasions_, 0);
    for (std::size_t i = 0; i < individuals; ++i) {
        const int g = static_cast<int>(rng.uniformInt(numGroups_));
        const int f =
            static_cast<int>(rng.uniformInt(numOccasions_ - 2));
        group_.push_back(g);
        firstCapture_.push_back(f);
        history_[i * numOccasions_ + static_cast<std::size_t>(f)] = 1;
        int last = f;
        bool alive = true;
        for (std::size_t t = static_cast<std::size_t>(f) + 1;
             t < numOccasions_ && alive; ++t) {
            alive = rng.bernoulli(phiTrue[t - 1]) != 0;
            if (!alive)
                break;
            const double pCap =
                math::invLogit(muPTrue + epsTrue[static_cast<std::size_t>(g)]);
            if (rng.bernoulli(pCap)) {
                history_[i * numOccasions_ + t] = 1;
                last = static_cast<int>(t);
            }
        }
        lastSighting_.push_back(last);
    }

    // Count how often each log-probability term enters the likelihood;
    // the fused path replaces the per-individual loop with dot products
    // against these data-only weights.
    phiCount_.assign(numOccasions_ - 1, 0.0);
    pCount_.assign(numGroups_ * (numOccasions_ - 1), 0.0);
    p1mCount_.assign(numGroups_ * (numOccasions_ - 1), 0.0);
    chiCount_.assign(numGroups_ * numOccasions_, 0.0);
    for (std::size_t i = 0; i < firstCapture_.size(); ++i) {
        const auto f = static_cast<std::size_t>(firstCapture_[i]);
        const auto l = static_cast<std::size_t>(lastSighting_[i]);
        const auto g = static_cast<std::size_t>(group_[i]);
        for (std::size_t t = f + 1; t <= l; ++t) {
            phiCount_[t - 1] += 1.0;
            if (history_[i * numOccasions_ + t])
                pCount_[g * (numOccasions_ - 1) + (t - 1)] += 1.0;
            else
                p1mCount_[g * (numOccasions_ - 1) + (t - 1)] += 1.0;
        }
        chiCount_[g * numOccasions_ + l] += 1.0;
    }

    setModeledDataBytes(history_.size() * sizeof(std::uint8_t)
                        + (firstCapture_.size() + lastSighting_.size()
                           + group_.size())
                            * sizeof(int));

    setLayout({
        {"mu_phi", 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_phi", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"phi_raw", numOccasions_ - 1, ppl::TransformKind::Identity, 0, 0},
        {"mu_p", 1, ppl::TransformKind::Identity, 0, 0},
        {"p_raw", numOccasions_ - 1, ppl::TransformKind::Identity, 0, 0},
        {"sigma_eps", 1, ppl::TransformKind::LowerBound, 0.0, 0},
        {"eps", numGroups_, ppl::TransformKind::Identity, 0, 0},
    });
}

template <typename T>
T
AnimalSurvival::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& muPhi = p.scalar(kMuPhi);
    const T& sigmaPhi = p.scalar(kSigmaPhi);
    const T& muP = p.scalar(kMuP);
    const T& sigmaEps = p.scalar(kSigmaEps);
    const std::size_t numT = numOccasions_;

    T lp = normal_lpdf(muPhi, 0.0, 1.5) + normal_lpdf(sigmaPhi, 0.0, 1.0)
        + normal_lpdf(muP, 0.0, 1.5) + normal_lpdf(sigmaEps, 0.0, 1.0);

    // Hierarchical logit-scale survival and recapture parameters.
    lp += normal_lpdf_vec(p.block(kPhiRaw), muPhi, sigmaPhi);
    lp += normal_lpdf_vec(p.block(kPRaw), 0.0, 1.5);
    lp += normal_lpdf_vec(p.block(kEps), 0.0, sigmaEps);

    // Interval survival probabilities (shared by all individuals).
    std::vector<T> logPhi(numT - 1), log1mPhi(numT - 1);
    for (std::size_t t = 0; t + 1 < numT; ++t) {
        const T& raw = p.at(kPhiRaw, t);
        logPhi[t] = -log1pExp(-raw);
        log1mPhi[t] = -log1pExp(raw);
    }

    // Per-group recapture and the chi ("never seen again") recursion,
    // flattened to [g * (T-1) + t] and [g * T + t] so the count weights
    // can dot them.
    std::vector<T> logP(numGroups_ * (numT - 1));
    std::vector<T> log1mP(numGroups_ * (numT - 1));
    std::vector<T> chi(numGroups_ * numT);
    using std::exp;
    using std::log;
    using ad::exp;
    using ad::log;
    for (std::size_t g = 0; g < numGroups_; ++g) {
        const std::size_t row = g * (numT - 1);
        const std::size_t at = g * numT;
        for (std::size_t t = 0; t + 1 < numT; ++t) {
            // Recapture probability at occasion t+1 for group g.
            const T eta = muP + p.at(kPRaw, t) + p.at(kEps, g);
            logP[row + t] = -log1pExp(-eta);
            log1mP[row + t] = -log1pExp(eta);
        }
        chi[at + numT - 1] = T(1.0);
        for (std::size_t t = numT - 1; t-- > 0;) {
            // chi_t = (1 - phi_t) + phi_t (1 - p_{t+1}) chi_{t+1}
            const T survivedMissed =
                exp(logPhi[t] + log1mP[row + t]) * chi[at + t + 1];
            chi[at + t] = exp(log1mPhi[t]) + survivedMissed;
        }
    }

    if (p.perObservation()) {
        // The reference tape walks each capture history and takes one
        // log(chi) per individual, not one per (group, last sighting).
        for (std::size_t i = 0; i < firstCapture_.size(); ++i) {
            const auto f = static_cast<std::size_t>(firstCapture_[i]);
            const auto l = static_cast<std::size_t>(lastSighting_[i]);
            const auto g = static_cast<std::size_t>(group_[i]);
            for (std::size_t t = f + 1; t <= l; ++t) {
                lp += logPhi[t - 1];
                lp += history_[i * numT + t] ? logP[g * (numT - 1) + t - 1]
                                             : log1mP[g * (numT - 1) + t - 1];
            }
            lp += log(chi[g * numT + l]);
        }
        return lp;
    }

    // Only take logs where some individual was last seen at t; unused
    // entries stay constant zero and drop out of the dot.
    std::vector<T> logChi(chi.size(), T(0.0));
    for (std::size_t i = 0; i < chi.size(); ++i)
        if (chiCount_[i] != 0.0)
            logChi[i] = log(chi[i]);

    // The whole per-individual loop collapses into four wide nodes.
    lp += dot_vec(std::span<const T>(logPhi),
                  std::span<const double>(phiCount_));
    lp += dot_vec(std::span<const T>(logP),
                  std::span<const double>(pCount_));
    lp += dot_vec(std::span<const T>(log1mP),
                  std::span<const double>(p1mCount_));
    lp += dot_vec(std::span<const T>(logChi),
                  std::span<const double>(chiCount_));
    return lp;
}

template double
AnimalSurvival::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
AnimalSurvival::logDensity(const ppl::ParamView<ad::Var>&) const;

std::vector<double>
AnimalSurvival::dataSufficientStats() const
{
    // The CJS likelihood depends on the histories only through the
    // precomputed per-(group, occasion) count tables, so their sums
    // (plus position-weighted checksums to distinguish permutations)
    // are exactly sufficient.
    auto tableStats = [](const std::vector<double>& table,
                         double& sum, double& checksum) {
        sum = 0.0;
        checksum = 0.0;
        for (std::size_t i = 0; i < table.size(); ++i) {
            sum += table[i];
            checksum += table[i] * static_cast<double>(i + 1);
        }
    };
    double phiSum = 0.0, phiChk = 0.0;
    double pSum = 0.0, pChk = 0.0;
    double p1mSum = 0.0, p1mChk = 0.0;
    double chiSum = 0.0, chiChk = 0.0;
    tableStats(phiCount_, phiSum, phiChk);
    tableStats(pCount_, pSum, pChk);
    tableStats(p1mCount_, p1mSum, p1mChk);
    tableStats(chiCount_, chiSum, chiChk);
    return {static_cast<double>(firstCapture_.size()),
            static_cast<double>(numOccasions_),
            static_cast<double>(numGroups_),
            phiSum, phiChk,
            pSum, pChk,
            p1mSum, p1mChk,
            chiSum, chiChk};
}

} // namespace bayes::workloads
