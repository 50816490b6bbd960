/**
 * @file
 * Open-loop load generation for the serving runtime. A LoadGenerator
 * turns a tenant mix (who submits what, how often, under which SLO)
 * into a deterministic arrival schedule: inter-arrival gaps are
 * exponential (Poisson process) at a configured aggregate rate, tenants
 * are picked by weight, and everything derives from one seed — the same
 * seed always produces the same trace, which is what makes serve
 * experiments repeatable.
 *
 * The schedule is *open loop*: arrival times never depend on how fast
 * the server drains, so overload actually builds queues instead of the
 * generator politely backing off (the classic closed-loop measurement
 * mistake).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace bayes::serve {

/** One tenant in the mix: what it asks for and how often. */
struct TenantSpec
{
    std::string tenant;
    /** Suite workload name (see workloads::suiteNames()). */
    std::string workload;
    /** Dataset shrink factor in (0, 1]. */
    double dataScale = 1.0;
    /** Relative arrival weight within the mix (need not normalize). */
    double weight = 1.0;
    SloClass slo = SloClass::Standard;
    /** Deadline override; negative = the class default. */
    double deadlineSeconds = -1.0;
    /** Sampler configuration this tenant always submits. */
    samplers::Config config;
    QueryKind query = QueryKind::Summary;
};

/** Aggregate load shape. */
struct LoadConfig
{
    /** Poisson arrival rate across all tenants (requests/second). */
    double arrivalRatePerSecond = 20.0;
    /** Total requests to generate. */
    std::size_t requests = 1000;
    /** Trace seed: same seed, same mix -> identical schedule. */
    std::uint64_t seed = 20190331;
};

/** Deterministic open-loop Poisson arrival generator over a tenant mix. */
class LoadGenerator
{
  public:
    /**
     * @param config  aggregate rate / count / seed
     * @param mix     nonempty tenant mix; weights must be positive
     */
    LoadGenerator(LoadConfig config, std::vector<TenantSpec> mix);

    /**
     * Generate the full arrival trace, sorted by arrivalSeconds, ready
     * for Server::runSchedule(). Each call regenerates the identical
     * trace (the generator holds no consumed state).
     */
    std::vector<Request> schedule() const;

    const LoadConfig& config() const { return config_; }
    const std::vector<TenantSpec>& mix() const { return mix_; }

  private:
    LoadConfig config_;
    std::vector<TenantSpec> mix_;
};

/**
 * The stock six-tenant mix over the fused-kernel workloads (ad,
 * tickets, 12cities, disease, votes, survival) used by perfbench's
 * serve_mix workload, tests/test_serve_load.cpp and the docs: two
 * interactive tenants on the small logistic models,
 * three standard, one batch tenant pushing the heavier hierarchical
 * model. Sampler configs are deliberately small (MH/HMC, few hundred
 * iterations) so thousands of requests finish in bench time.
 */
std::vector<TenantSpec> defaultTenantMix();

} // namespace bayes::serve
