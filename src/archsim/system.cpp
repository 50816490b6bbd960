#include "archsim/system.hpp"

#include <algorithm>

#include "archsim/cache.hpp"
#include "archsim/stream.hpp"
#include "support/error.hpp"

namespace bayes::archsim {
namespace {

/** Replay interleave grain (accesses per chain per turn). */
constexpr std::size_t kChunk = 128;
/** Trace replay rounds; the first kWarmRounds only warm the caches. */
constexpr int kRounds = 7;
constexpr int kWarmRounds = 2;

/** Private per-core cache state used during replay. */
struct CorePipes
{
    CacheModel l1d;
    CacheModel l2;
    StreamDetector streams;

    explicit CorePipes(const Platform& p) : l1d(p.l1d), l2(p.l2) {}
};

/** Raw per-chain counters accumulated over the measured rounds. */
struct ChainCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t streamAccesses = 0;
    std::uint64_t demandL2Hits = 0;
    std::uint64_t demandLlcHits = 0;
    std::uint64_t demandLlcMisses = 0;
    std::uint64_t streamLlcMisses = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Replay the first `degree` chains' traces concurrently (one core
 * each, shared LLC) and return mean per-evaluation memory stats.
 */
EvalMemStats
replayGroup(const WorkloadProfile& profile, const Platform& platform,
            int degree, bool prefetchEnabled)
{
    const int chains = static_cast<int>(profile.chains.size());
    degree = std::min(degree, chains);

    CacheModel llc(platform.llc);
    std::vector<CorePipes> cores;
    cores.reserve(degree);
    for (int c = 0; c < degree; ++c)
        cores.emplace_back(platform);

    std::vector<ChainCounters> counters(degree);
    std::vector<std::size_t> cursor(degree, 0);

    for (int round = 0; round < kRounds; ++round) {
        const bool measured = round >= kWarmRounds;
        // Round-robin chunks until every chain finishes this round.
        std::fill(cursor.begin(), cursor.end(), 0);
        bool anyLeft = true;
        while (anyLeft) {
            anyLeft = false;
            for (int c = 0; c < degree; ++c) {
                const auto& trace = profile.chains[c].trace;
                std::size_t& pos = cursor[c];
                if (pos >= trace.size())
                    continue;
                const std::size_t end = std::min(pos + kChunk, trace.size());
                CorePipes& pipe = cores[c];
                ChainCounters& cnt = counters[c];
                for (; pos < end; ++pos) {
                    const Access& a = trace[pos];
                    const std::uint64_t line = a.addr & ~63ull;
                    const bool stream =
                        pipe.streams.isStream(a.addr) && prefetchEnabled;
                    if (measured) {
                        ++cnt.accesses;
                        if (stream)
                            ++cnt.streamAccesses;
                    }
                    if (pipe.l1d.access(line, a.write)) {
                        continue;
                    }
                    if (pipe.l2.access(line, a.write)) {
                        if (measured && !stream)
                            ++cnt.demandL2Hits;
                        continue;
                    }
                    const std::uint64_t wbBefore = llc.stats().writebacks;
                    if (llc.access(line, a.write)) {
                        if (measured && !stream)
                            ++cnt.demandLlcHits;
                    } else if (measured) {
                        if (stream)
                            ++cnt.streamLlcMisses;
                        else
                            ++cnt.demandLlcMisses;
                    }
                    if (measured)
                        cnt.writebacks += llc.stats().writebacks - wbBefore;
                }
                anyLeft = anyLeft || pos < trace.size();
            }
        }
    }

    // Average over chains and measured rounds.
    EvalMemStats mem;
    const double denom =
        static_cast<double>(degree) * (kRounds - kWarmRounds);
    for (const auto& cnt : counters) {
        mem.accesses += static_cast<double>(cnt.accesses);
        mem.streamAccesses += static_cast<double>(cnt.streamAccesses);
        mem.demandL2Hits += static_cast<double>(cnt.demandL2Hits);
        mem.demandLlcHits += static_cast<double>(cnt.demandLlcHits);
        mem.demandLlcMisses += static_cast<double>(cnt.demandLlcMisses);
        mem.streamLlcMisses += static_cast<double>(cnt.streamLlcMisses);
        mem.writebacks += static_cast<double>(cnt.writebacks);
    }
    mem.accesses /= denom;
    mem.streamAccesses /= denom;
    mem.demandL2Hits /= denom;
    mem.demandLlcHits /= denom;
    mem.demandLlcMisses /= denom;
    mem.streamLlcMisses /= denom;
    mem.writebacks /= denom;
    return mem;
}

} // namespace

RunWork
extractRunWork(const samplers::RunResult& run)
{
    RunWork work;
    for (const auto& chain : run.chains) {
        std::uint64_t evals = 0;
        for (const auto& it : chain.iterStats)
            evals += it.gradEvals;
        // MH chains have no gradient evaluations; count density
        // evaluations (one per iteration) as the equivalent work unit.
        if (evals == 0)
            evals = chain.iterStats.size();
        work.chainGradEvals.push_back(evals);
        work.chainIterations.push_back(chain.iterStats.size());
    }
    return work;
}

SystemResult
simulateSystem(const WorkloadProfile& profile, const RunWork& work,
               const Platform& platform, int cores,
               const CoreParams& params)
{
    const int chains = static_cast<int>(profile.chains.size());
    BAYES_CHECK(chains >= 1, "profile has no chains");
    BAYES_CHECK(static_cast<int>(work.chainGradEvals.size()) == chains
                    && static_cast<int>(work.chainIterations.size()) == chains,
                "work/profile chain count mismatch");
    BAYES_CHECK(cores >= 1 && cores <= platform.cores,
                "core count outside platform range");

    // Memory behavior at this concurrency level.
    const int degree = std::min(cores, chains);
    const EvalMemStats mem =
        replayGroup(profile, platform, degree, params.prefetchEnabled);

    // Per-chain timing.
    SystemResult out;
    out.chainSeconds.resize(chains);
    double instrTotal = 0;
    double cycleTotal = 0;
    double trafficTotal = 0;
    double mpkiAccum = 0, icAccum = 0, brAccum = 0;
    for (int c = 0; c < chains; ++c) {
        const EvalCost cost =
            evalCost(profile.chains[c], mem, platform, params);
        const double evals =
            static_cast<double>(work.chainGradEvals[c]);
        const double iters = static_cast<double>(work.chainIterations[c]);
        const double iterOverheadCycles = iters
            * static_cast<double>(profile.chains[c].dim)
            * params.instrPerDimPerIter * params.baseCpi;
        const double cycles = cost.cycles * evals + iterOverheadCycles;
        out.chainSeconds[c] = cycles / (platform.turboGhz * 1e9);
        instrTotal += cost.instructions * evals;
        cycleTotal += cycles;
        trafficTotal += cost.llcTrafficBytes * evals;
        mpkiAccum += cost.llcMpki;
        icAccum += cost.icacheMpki;
        brAccum += cost.branchMpki;
    }

    // Chains round-robin across cores; a core's time is the sum of its
    // chains, the job finishes with the slowest core.
    std::vector<double> coreTime(std::min(cores, chains), 0.0);
    for (int c = 0; c < chains; ++c)
        coreTime[c % coreTime.size()] += out.chainSeconds[c];
    out.seconds = *std::max_element(coreTime.begin(), coreTime.end());

    // Bandwidth demand; saturate against the platform ceiling.
    double bandwidth = trafficTotal / out.seconds / 1e6; // MB/s
    const double maxMBps = platform.memBandwidthGBps * 1000.0;
    if (bandwidth > maxMBps) {
        out.seconds *= bandwidth / maxMBps;
        bandwidth = maxMBps;
    }
    out.bandwidthMBps = bandwidth;

    out.ipc = instrTotal / cycleTotal;
    out.llcMpki = mpkiAccum / chains;
    out.icacheMpki = icAccum / chains;
    out.branchMpki = brAccum / chains;

    const int activeCores = std::min(cores, chains);
    out.powerW = platform.idlePowerW + platform.corePowerW * activeCores;
    out.energyJ = out.powerW * out.seconds;
    return out;
}

} // namespace bayes::archsim
