/**
 * @file
 * The serving runtime under open-loop load (`serve` ctest label): the
 * stock six-tenant mix replayed through Server::runSchedule at
 * 40 req/s for 1000 requests. Every request ends in a terminal state,
 * and the interactive class, which is always served first, misses no
 * deadline and gets answers. The replay takes seconds of real
 * sampling, so this test carries no sanitizer label.
 */
#include <gtest/gtest.h>

#include "serve/load_generator.hpp"
#include "serve/server.hpp"

namespace {

using namespace bayes::serve;

TEST(ServeLoad, InteractiveClassMissesNoDeadlineUnderTheStockMix)
{
    LoadConfig load;
    load.arrivalRatePerSecond = 40.0;
    load.requests = 1000;
    load.seed = 20190331;
    Server server;
    server.runSchedule(LoadGenerator(load, defaultTenantMix()).schedule());

    ASSERT_EQ(server.responses().size(), load.requests);
    std::size_t interactiveOk = 0;
    std::size_t interactiveMissed = 0;
    for (const Response& r : server.responses()) {
        EXPECT_NE(r.status, RequestStatus::Queued) << "request " << r.id;
        if (r.slo != SloClass::Interactive)
            continue;
        interactiveOk += r.status == RequestStatus::Ok ? 1u : 0u;
        interactiveMissed += r.status == RequestStatus::DeadlineMiss ? 1u : 0u;
    }
    EXPECT_EQ(interactiveMissed, 0u);
    EXPECT_GT(interactiveOk, 0u);
}

} // namespace
