/**
 * @file
 * The repo's single wall-clock seam. Lint rule R012 confines direct
 * `std::chrono::*_clock::now()` calls to this header: every consumer —
 * the sampler runner's deadline checks, the pool's idle/latency
 * histograms, the tracer's span timestamps, the serving runtime's
 * measured service times — reads time through `support::Clock` (usually
 * via `bayes::Timer`), so there is exactly one auditable time source.
 *
 * That seam is swappable: `Clock::exchangeSource` installs an alternate
 * source (a virtual clock for deterministic admission replay, a
 * fault-injection clock that jumps or stalls), and every layer above
 * follows it without code changes. Simulated latencies still come from
 * archsim, never from this clock.
 *
 * This header is *freestanding* (see the layer manifest in
 * docs/architecture.md): it includes nothing from src/, so any layer —
 * including obs, which sits below support — may include it.
 */
#pragma once

#include <atomic>
#include <chrono>

namespace bayes::support {

/**
 * Process-wide monotonic time source, in seconds. The default source
 * reads `std::chrono::steady_clock`; tests and replay harnesses may
 * install their own with `exchangeSource` (see `ScopedClockSource`).
 */
class Clock
{
  public:
    /** A time source: monotonic seconds since an arbitrary epoch. */
    using Source = double (*)() noexcept;

    /** Seconds on the currently installed source. */
    static double now() noexcept
    {
        return source_.load(std::memory_order_relaxed)();
    }

    /** The default source: `std::chrono::steady_clock`. */
    static double steadySeconds() noexcept
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /**
     * Install @p source (nullptr restores the default) and return the
     * previously installed one. Swaps are atomic, but in-flight
     * intervals (a running Timer, an active trace collection) straddle
     * the switch — quiesce first, or expect mixed-epoch readings.
     */
    static Source exchangeSource(Source source) noexcept
    {
        return source_.exchange(source ? source : &steadySeconds,
                                std::memory_order_relaxed);
    }

  private:
    inline static std::atomic<Source> source_{&steadySeconds};
};

/**
 * RAII source installation for tests and replay drivers: installs in
 * the constructor, restores the previous source in the destructor.
 */
class ScopedClockSource
{
  public:
    explicit ScopedClockSource(Clock::Source source) noexcept
        : previous_(Clock::exchangeSource(source))
    {
    }
    ~ScopedClockSource() { Clock::exchangeSource(previous_); }

    ScopedClockSource(const ScopedClockSource&) = delete;
    ScopedClockSource& operator=(const ScopedClockSource&) = delete;

  private:
    Clock::Source previous_;
};

} // namespace bayes::support

namespace bayes {

/** Monotonic stopwatch over `support::Clock` (the swappable seam). */
class Timer
{
  public:
    Timer() : start_(support::Clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = support::Clock::now(); }

    /** Seconds elapsed since construction or the last reset(). */
    double seconds() const { return support::Clock::now() - start_; }

  private:
    double start_;
};

} // namespace bayes
