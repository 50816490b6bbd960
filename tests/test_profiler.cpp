/**
 * @file
 * Workload profiler and gradient-trace tests: the trace derived from a
 * tape, access for access and in shape on every workload; per-chain
 * traces exist, are a function of the tape, and occupy disjoint
 * arenas; op counts and tape sizes are consistent.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "archsim/profiler.hpp"
#include "samplers/runner.hpp"
#include "workloads/suite.hpp"

namespace bayes::archsim {
namespace {

TEST(Profiler, ProducesOneProfilePerChain)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    const auto profile = profileWorkload(*wl, 3, TapeKind::Fused, 10);
    ASSERT_EQ(profile.chains.size(), 3u);
    for (const auto& chain : profile.chains) {
        EXPECT_FALSE(chain.trace.empty());
        // Fused kernels keep the tape small but never trivial: priors,
        // link transforms and the wide likelihood nodes remain.
        EXPECT_GT(chain.tapeNodes, 30u);
        EXPECT_EQ(chain.dim, wl->layout().dim());
        EXPECT_EQ(chain.dataBytes, wl->modeledDataBytes());
    }
}

TEST(Profiler, ScalarPathProfilesLargerThanFused)
{
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    const auto fused = profileWorkload(*wl, 1, TapeKind::Fused, 10);
    const auto scalar = profileWorkload(*wl, 1, TapeKind::Reference, 10);
    // The scalar reference path builds per-observation nodes; the fused
    // path must be at least 4x smaller (the PR's acceptance bar).
    EXPECT_GT(scalar.chains[0].tapeNodes, 4 * fused.chains[0].tapeNodes);
    EXPECT_GT(scalar.chains[0].trace.size(), fused.chains[0].trace.size());
}

TEST(Profiler, OpCountsSumToTapeNodes)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    const auto profile = profileWorkload(*wl, 1, TapeKind::Fused, 10);
    const auto& chain = profile.chains[0];
    std::uint64_t total = 0;
    for (auto c : chain.opCounts)
        total += c;
    EXPECT_EQ(total, chain.tapeNodes);
}

TEST(Profiler, ChainsOccupyDisjointAddressRanges)
{
    const auto wl = workloads::makeWorkload("ode", 0.5);
    const auto profile = profileWorkload(*wl, 2, TapeKind::Fused, 10);
    const auto lines = [](const EvalProfile& p) {
        std::vector<std::uint64_t> out;
        for (const auto& a : p.trace)
            out.push_back(a.addr >> 6);
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    };
    const auto lines0 = lines(profile.chains[0]);
    std::size_t shared = 0;
    for (auto l : lines(profile.chains[1]))
        shared += std::binary_search(lines0.begin(), lines0.end(), l);
    EXPECT_EQ(shared, 0u);
}

TEST(Profiler, TraceContainsReadsAndWrites)
{
    const auto wl = workloads::makeWorkload("votes", 0.5);
    const auto profile = profileWorkload(*wl, 1, TapeKind::Fused, 10);
    std::size_t reads = 0, writes = 0;
    for (const auto& a : profile.chains[0].trace)
        (a.write ? writes : reads) += 1;
    EXPECT_GT(reads, 0u);
    EXPECT_GT(writes, 0u);
}

TEST(Profiler, TraceSizeTracksTapeSize)
{
    // On the scalar reference path, the larger modeled dataset builds
    // the larger tape and therefore the larger trace.
    const auto big = workloads::makeWorkload("tickets", 0.5);
    const auto small = workloads::makeWorkload("butterfly", 0.5);
    const auto bp = profileWorkload(*big, 1, TapeKind::Reference, 8);
    const auto sp = profileWorkload(*small, 1, TapeKind::Reference, 8);
    EXPECT_GT(bp.chains[0].trace.size(), sp.chains[0].trace.size());
}

TEST(Profiler, TraceIsAFunctionOfTheTape)
{
    // Odd-sized heap blocks held live across the second call move
    // wherever the allocator would put the tape arenas; the traces must
    // not move with them.
    const auto wl = workloads::makeWorkload("12cities", 0.5);
    const auto a = profileWorkload(*wl, 2, TapeKind::Reference, 10);
    std::vector<std::unique_ptr<char[]>> blocks;
    for (std::size_t bytes : {24u, 1000u, 4099u, 70001u})
        blocks.push_back(std::make_unique<char[]>(bytes));
    const auto b = profileWorkload(*wl, 2, TapeKind::Reference, 10);
    ASSERT_EQ(a.chains.size(), b.chains.size());
    for (std::size_t c = 0; c < a.chains.size(); ++c) {
        EXPECT_FALSE(a.chains[c].trace.empty());
        EXPECT_TRUE(a.chains[c].trace == b.chains[c].trace) << "chain " << c;
    }
}

TEST(Profiler, RejectsZeroChains)
{
    const auto wl = workloads::makeWorkload("ad", 0.25);
    EXPECT_THROW(profileWorkload(*wl, 0, TapeKind::Fused), Error);
}

/** Access to byte @p offset of chain 0's @p arena. */
Access
at(Arena arena, std::uint64_t offset, bool write)
{
    return Access{arenaBase(0, arena) + offset, write};
}

TEST(GradientTrace, WalksAHandBuiltTapeAccessForAccess)
{
    // Leaves x0 and x1; n2, whose adjoint is zero (nothing reads it);
    // the binary n3; and the output, a wide node over {n3, x1}. The
    // density begins at n3 and reads 100 bytes of data: two lines.
    ad::Tape tape;
    const ad::NodeId x0 = tape.newLeaf();
    const ad::NodeId x1 = tape.newLeaf();
    tape.pushUnary(x0, 5.0);
    const ad::NodeId n3 = tape.pushBinary(x0, 2.0, x1, 3.0);
    const ad::NodeId parents[] = {n3, x1};
    const double weights[] = {4.0, 5.0};
    tape.pushWide(parents, weights);

    constexpr std::uint64_t N = sizeof(ad::Node);
    constexpr std::uint64_t E = sizeof(ad::Edge);
    constexpr std::uint64_t D = sizeof(double);
    const std::vector<Access> expected = {
        // Forward: node writes, the data pass, the wide node's edges.
        at(Arena::Nodes, 0, true), at(Arena::Nodes, N, true),
        at(Arena::Nodes, 2 * N, true),
        at(Arena::Data, 0, false), at(Arena::Data, 64, false),
        at(Arena::Nodes, 3 * N, true),
        at(Arena::Edges, 0, true), at(Arena::Edges, E, true),
        at(Arena::Nodes, 4 * N, true),
        // Reverse, the wide output: span, then edge and parent adjoint.
        at(Arena::Adjoints, 4 * D, false), at(Arena::Nodes, 4 * N, false),
        at(Arena::Spans, 0, false),
        at(Arena::Edges, 0, false), at(Arena::Adjoints, 3 * D, true),
        at(Arena::Edges, E, false), at(Arena::Adjoints, D, true),
        // The binary n3 writes both parents' adjoints.
        at(Arena::Adjoints, 3 * D, false), at(Arena::Nodes, 3 * N, false),
        at(Arena::Adjoints, 0, true), at(Arena::Adjoints, D, true),
        // n2's adjoint is zero: read and skipped.
        at(Arena::Adjoints, 2 * D, false),
        // The leaves have no parents.
        at(Arena::Adjoints, D, false), at(Arena::Nodes, N, false),
        at(Arena::Adjoints, 0, false), at(Arena::Nodes, 0, false),
    };
    EXPECT_EQ(gradientTrace(tape, 3, 100, 0), expected);
    EXPECT_THROW(gradientTrace(tape, 6, 100, 0), Error);
}

TEST(GradientTrace, ShapeIsPinned)
{
    // length:writes of one gradient at the verify skill's tape-probe
    // point (scale 1, a fresh evaluator, findInitialPoint with Rng(7)),
    // equal to the counts of the real-address probe this replaced.
    struct Shape
    {
        const char* name;
        std::size_t fusedLength, fusedWrites;
        std::size_t referenceLength, referenceWrites;
    };
    const Shape shapes[] = {
        {"12cities", 442, 174, 9220, 4958},
        {"ad", 817, 85, 52352, 28577},
        {"ode", 22022, 12531, 22022, 12531},
        {"memory", 1413, 700, 34677, 18912},
        {"votes", 12882, 6898, 13493, 7215},
        {"tickets", 3120, 496, 174214, 95188},
        {"disease", 524, 166, 28605, 15609},
        {"racial", 1604, 860, 9894, 5278},
        {"butterfly", 13335, 7220, 13335, 7220},
        {"survival", 18774, 10075, 58071, 32826},
    };
    for (const Shape& shape : shapes) {
        SCOPED_TRACE(shape.name);
        const auto wl = workloads::makeWorkload(shape.name, 1.0);
        for (bool reference : {false, true}) {
            ppl::Evaluator eval(*wl);
            eval.tape().setPerObservation(reference);
            Rng rng(7);
            const auto q = samplers::findInitialPoint(eval, rng);
            std::vector<double> grad;
            eval.logProbGrad(q, grad);
            const auto trace = gradientTrace(
                eval.tape(), eval.densityBegin(), wl->modeledDataBytes(), 0);
            std::size_t writes = 0;
            for (const Access& a : trace)
                writes += a.write;
            EXPECT_EQ(trace.size(), reference ? shape.referenceLength
                                              : shape.fusedLength);
            EXPECT_EQ(writes, reference ? shape.referenceWrites
                                        : shape.fusedWrites);
        }
    }
}

} // namespace
} // namespace bayes::archsim
