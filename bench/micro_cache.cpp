/**
 * @file
 * Micro-bench — cache-model throughput: accesses/second for hit-heavy,
 * streaming, and random patterns, plus the stream detector. The figure
 * benches replay millions of trace events, so the simulator itself must
 * sustain tens of millions of accesses per second. Each pattern runs in
 * 256-access batches for at least half a second of wall time; the
 * "hits" column (hits, or detected streams) keeps the loops live.
 */
#include <cstdint>

#include "archsim/cache.hpp"
#include "archsim/stream.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace bayes;
using namespace bayes::archsim;

namespace {

constexpr int kBatch = 256;

/** Call @p batch (kBatch accesses, returns its hits) for 0.5 s; add a row. */
template <typename Batch>
void
timePattern(Table& table, const char* name, Batch batch)
{
    std::uint64_t accesses = 0, hits = 0;
    double seconds = 0.0;
    Timer timer;
    while ((seconds = timer.seconds()) < 0.5) {
        hits += batch();
        accesses += kBatch;
    }
    table.row()
        .cell(name)
        .cell(static_cast<long>(accesses))
        .cell(static_cast<long>(hits))
        .cell(seconds, 3)
        .cell(static_cast<double>(accesses) / seconds / 1e6, 1);
}

} // namespace

int
main()
{
    const CacheConfig llc{1024 * 1024, 64, 16};
    Table table({"pattern", "accesses", "hits", "seconds", "Maccesses/s"});

    CacheModel hitCache(llc);
    timePattern(table, "cache hits (16 KiB loop)", [&] {
        std::uint64_t n = 0;
        for (std::uint64_t addr = 0; addr < kBatch * 64; addr += 64)
            n += hitCache.access(addr, false);
        return n;
    });

    CacheModel streamCache(llc);
    std::uint64_t streamAddr = 0;
    timePattern(table, "cache streaming", [&] {
        std::uint64_t n = 0;
        for (int i = 0; i < kBatch; ++i, streamAddr += 64)
            n += streamCache.access(streamAddr, i & 1);
        return n;
    });

    CacheModel randomCache(llc);
    Rng rng(3);
    timePattern(table, "cache random", [&] {
        std::uint64_t n = 0;
        for (int i = 0; i < kBatch; ++i)
            n += randomCache.access(rng.nextU64() & 0xffffffc0ull, false);
        return n;
    });

    StreamDetector detector;
    std::uint64_t detectorAddr = 0;
    timePattern(table, "stream detector", [&] {
        std::uint64_t n = 0;
        for (int i = 0; i < kBatch; ++i, detectorAddr += 64)
            n += detector.isStream(detectorAddr);
        return n;
    });

    printSection("archsim cache-model throughput (1 MiB, 64 B lines, "
                 "16 ways)",
                 table);
    return 0;
}
