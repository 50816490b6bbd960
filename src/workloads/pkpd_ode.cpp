#include "workloads/pkpd_ode.hpp"

#include <cmath>

#include "math/distributions.hpp"
#include "math/ode.hpp"

namespace bayes::workloads {
namespace {

/** Friberg-Karlsson ground-truth parameters for data generation. */
constexpr double kMttTrue = 5.0;
constexpr double kCirc0True = 5.0;
constexpr double kGammaTrue = 0.17;
constexpr double kSlopeTrue = 0.012;
constexpr double kSigmaTrue = 0.08;

} // namespace

PkpdOde::PkpdOde(double dataScale)
    : DensityOf(
          WorkloadInfo{
              "ode", "Friberg-Karlsson Semi-Mechanistic",
              "Solving ordinary differential equations of non-linear "
              "systems",
              "Margossian & Gillespie 2016 [16]",
              "neutrophil counts after a chemotherapy dose",
              /*defaultIterations=*/2000},
          dataScale)
{
    Rng rng = dataRng();
    const std::size_t nObs = scaled(14);
    times_.resize(nObs);
    for (std::size_t i = 0; i < nObs; ++i)
        times_[i] = 1.5 * static_cast<double>(i + 1);

    // Physically sensible bounded supports keep the fixed-step RK4
    // integration stable (h * ktr < 1.4) everywhere the sampler can go.
    setLayout({
        {"mtt", 1, ppl::TransformKind::Bounded, 2.0, 12.0},
        {"circ0", 1, ppl::TransformKind::Bounded, 1.0, 20.0},
        {"gamma", 1, ppl::TransformKind::Bounded, 0.05, 0.6},
        {"slope", 1, ppl::TransformKind::Bounded, 0.0005, 0.08},
        {"sigma", 1, ppl::TransformKind::Bounded, 0.01, 1.0},
    });

    // Generate observations from the true trajectory + lognormal noise.
    const std::vector<double> circ =
        solveCirc<double>(kMttTrue, kCirc0True, kGammaTrue, kSlopeTrue);
    observed_.resize(nObs);
    for (std::size_t i = 0; i < nObs; ++i)
        observed_[i] = circ[i] * std::exp(rng.normal(0.0, kSigmaTrue));

    setModeledDataBytes((times_.size() + observed_.size()) * sizeof(double));
}

template <typename T>
std::vector<T>
PkpdOde::solveCirc(const T& mtt, const T& circ0, const T& gamma,
                   const T& slope) const
{
    using std::exp;
    using std::fmax;
    using std::pow;
    using ad::exp;
    using ad::fmax;
    using ad::pow;

    const T ktr = 4.0 / mtt;
    auto rhs = [&](double t, const std::vector<T>& y, std::vector<T>& dy) {
        const double conc = dose_ * std::exp(-ke_ * t);
        const T edrug = slope * conc;
        // Guard the feedback term against non-positive circ values that
        // a coarse trial step could produce.
        const T circ = fmax(y[3], T(1e-6));
        const T feedback = pow(circ0 / circ, gamma);
        dy[0] = ktr * y[0] * ((1.0 - edrug) * feedback - 1.0);
        dy[1] = ktr * (y[0] - y[1]);
        dy[2] = ktr * (y[1] - y[2]);
        dy[3] = ktr * (y[2] - y[3]);
    };

    std::vector<T> y0 = {circ0, circ0, circ0, circ0};
    const auto states = math::integrateRk4<T>(rhs, std::move(y0), 0.0,
                                              times_, /*stepsPerUnit=*/2.0);
    std::vector<T> circ;
    circ.reserve(states.size());
    for (const auto& s : states)
        circ.push_back(s[3]);
    return circ;
}

template <typename T>
T
PkpdOde::logDensity(const ppl::ParamView<T>& p) const
{
    using namespace bayes::math;
    const T& mtt = p.scalar(kMtt);
    const T& circ0 = p.scalar(kCirc0);
    const T& gamma = p.scalar(kGamma);
    const T& slope = p.scalar(kSlope);
    const T& sigma = p.scalar(kSigma);

    T lp = lognormal_lpdf(mtt, std::log(5.0), 0.4)
        + lognormal_lpdf(circ0, std::log(5.0), 0.4)
        + lognormal_lpdf(gamma, std::log(0.17), 0.4)
        + lognormal_lpdf(slope, std::log(0.01), 0.6)
        + lognormal_lpdf(sigma, std::log(0.1), 0.6);

    const std::vector<T> circ = solveCirc(mtt, circ0, gamma, slope);
    using std::fmax;
    using std::log;
    using ad::fmax;
    using ad::log;
    for (std::size_t i = 0; i < observed_.size(); ++i) {
        const T mu = fmax(circ[i], T(1e-8));
        // bayes-lint: allow(R007): ODE solve dominates; mu is per-row latent
        lp += lognormal_lpdf(observed_[i], log(mu), sigma);
    }
    return lp;
}

template double
PkpdOde::logDensity(const ppl::ParamView<double>&) const;
template ad::Var
PkpdOde::logDensity(const ppl::ParamView<ad::Var>&) const;

} // namespace bayes::workloads
