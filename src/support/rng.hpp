/**
 * @file
 * Deterministic pseudo-random number generation for samplers and
 * synthetic data generators.
 *
 * We ship our own generator (xoshiro256++) instead of std::mt19937 so
 * that every stream is reproducible across standard libraries, cheap to
 * fork (one stream per Markov chain), and fast enough to sit inside the
 * sampling inner loop.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace bayes {

/**
 * xoshiro256++ PRNG with SplitMix64 seeding and a jump() routine used
 * to derive statistically independent per-chain streams.
 */
class Rng
{
  public:
    /** Seed deterministically; identical seeds produce identical streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Raw 64 random bits. */
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Standard normal via Box-Muller (cached spare deviate). */
    double normal();

    /** Normal with given mean and standard deviation. */
    double normal(double mean, double sd);

    /** Exponential with given rate. @pre rate > 0 */
    double exponential(double rate);

    /** Gamma(shape, rate) via Marsaglia-Tsang. @pre shape, rate > 0 */
    double gamma(double shape, double rate);

    /** Beta(a, b) via two gamma draws. @pre a, b > 0 */
    double beta(double a, double b);

    /** Poisson(mean) via inversion / PTRS for large means. @pre mean >= 0 */
    long poisson(double mean);

    /** Binomial(n, p) by summed Bernoulli / normal approx for large n. */
    long binomial(long n, double p);

    /** Bernoulli(p) in {0, 1}. */
    int bernoulli(double p);

    /** Student-t with nu degrees of freedom. @pre nu > 0 */
    double studentT(double nu);

    /** Cauchy(loc, scale). @pre scale > 0 */
    double cauchy(double loc, double scale);

    /** Sample an index from unnormalized weights. @pre weights nonempty */
    std::size_t categorical(const std::vector<double>& weights);

    // -- Fork point ---------------------------------------------------
    // The ONLY sanctioned way to duplicate generator state. An ad-hoc
    // copy silently clones a random stream — two consumers replay the
    // same draws, which breaks the one-stream-per-chain determinism
    // contract — so bayes-lint rule R013 flags any other Rng copy
    // under src/.

    /**
     * Return a generator 2^128 steps ahead; calling fork() repeatedly
     * yields independent streams (one per Markov chain).
     */
    Rng fork();

  private:
    void jump();

    std::uint64_t s_[4];
    double spareNormal_ = 0.0;
    bool hasSpare_ = false;
};

} // namespace bayes
