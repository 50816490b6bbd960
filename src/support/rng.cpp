#include "support/rng.hpp"

#include <cmath>

#include "support/error.hpp"

namespace bayes {
namespace {

/** SplitMix64 step used to expand a single seed into generator state. */
std::uint64_t
splitmix64(std::uint64_t& x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto& s : s_)
        s = splitmix64(x);
    // All-zero state is invalid for xoshiro; splitmix cannot produce it
    // for all four words simultaneously, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::nextU64()
{
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    BAYES_CHECK(n > 0, "uniformInt requires n > 0");
    // Rejection to avoid modulo bias.
    const std::uint64_t limit = ~0ULL - (~0ULL % n);
    std::uint64_t r;
    do {
        r = nextU64();
    } while (r >= limit);
    return r % n;
}

double
Rng::normal()
{
    if (hasSpare_) {
        hasSpare_ = false;
        return spareNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spareNormal_ = mag * std::sin(2.0 * M_PI * u2);
    hasSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::normal(double mean, double sd)
{
    return mean + sd * normal();
}

double
Rng::exponential(double rate)
{
    BAYES_CHECK(rate > 0, "exponential rate must be positive");
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

double
Rng::gamma(double shape, double rate)
{
    BAYES_CHECK(shape > 0 && rate > 0, "gamma shape/rate must be positive");
    // Marsaglia & Tsang (2000); boost for shape < 1 via the power trick.
    if (shape < 1.0) {
        const double u = std::max(uniform(), 1e-300);
        return gamma(shape + 1.0, rate) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    while (true) {
        double x, v;
        do {
            x = normal();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v / rate;
        if (u > 0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
            return d * v / rate;
    }
}

double
Rng::beta(double a, double b)
{
    BAYES_CHECK(a > 0 && b > 0, "beta parameters must be positive");
    const double x = gamma(a, 1.0);
    const double y = gamma(b, 1.0);
    return x / (x + y);
}

long
Rng::poisson(double mean)
{
    BAYES_CHECK(mean >= 0, "poisson mean must be nonnegative");
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth inversion.
        const double l = std::exp(-mean);
        long k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > l);
        return k - 1;
    }
    // Normal approximation with continuity correction, clipped at zero;
    // adequate for synthetic data generation at large means.
    const double draw = normal(mean, std::sqrt(mean));
    return std::max(0L, std::lround(draw));
}

long
Rng::binomial(long n, double p)
{
    BAYES_CHECK(n >= 0 && p >= 0.0 && p <= 1.0, "binomial domain violated");
    if (n == 0 || p == 0.0)
        return 0;
    if (p == 1.0)
        return n;
    if (n < 64) {
        long k = 0;
        for (long i = 0; i < n; ++i)
            k += (uniform() < p) ? 1 : 0;
        return k;
    }
    const double mean = static_cast<double>(n) * p;
    const double sd = std::sqrt(mean * (1.0 - p));
    const long draw = std::lround(normal(mean, sd));
    return std::min(n, std::max(0L, draw));
}

int
Rng::bernoulli(double p)
{
    return uniform() < p ? 1 : 0;
}

double
Rng::studentT(double nu)
{
    BAYES_CHECK(nu > 0, "student-t dof must be positive");
    const double z = normal();
    const double g = gamma(nu / 2.0, nu / 2.0);
    return z / std::sqrt(g);
}

double
Rng::cauchy(double loc, double scale)
{
    BAYES_CHECK(scale > 0, "cauchy scale must be positive");
    return loc + scale * std::tan(M_PI * (uniform() - 0.5));
}

std::size_t
Rng::categorical(const std::vector<double>& weights)
{
    BAYES_CHECK(!weights.empty(), "categorical requires nonempty weights");
    double total = 0.0;
    for (double w : weights) {
        BAYES_CHECK(w >= 0.0, "categorical weights must be nonnegative");
        total += w;
    }
    BAYES_CHECK(total > 0.0, "categorical weights must not all be zero");
    double u = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        u -= weights[i];
        if (u <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

Rng
Rng::fork()
{
    Rng child = *this;
    jump();
    // Children should not share the Box-Muller cache with the parent.
    child.hasSpare_ = false;
    return child;
}

void
Rng::jump()
{
    static const std::uint64_t kJump[] = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::uint64_t jump : kJump) {
        for (int b = 0; b < 64; ++b) {
            if (jump & (1ULL << b)) {
                s0 ^= s_[0];
                s1 ^= s_[1];
                s2 ^= s_[2];
                s3 ^= s_[3];
            }
            nextU64();
        }
    }
    s_[0] = s0;
    s_[1] = s1;
    s_[2] = s2;
    s_[3] = s3;
    hasSpare_ = false;
}

} // namespace bayes
