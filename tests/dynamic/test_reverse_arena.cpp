/**
 * @file
 * Reverse (in-neighbor) arena suite: the In-side arena-addressed
 * virtualizer must canonicalize byte-identically to a from-scratch
 * VirtualGraph over the reversed dense CSR after every batch, repair
 * strictly O(touched in-families), survive graph compaction through
 * rebase(), and keep toReversedCsr() bit-identical to
 * toCsr().reversed() at every epoch — the invariant the whole
 * pull-after-mutate path rests on.
 */
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::dynamic {
namespace {

graph::Csr
skewedGraph(std::uint64_t seed)
{
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 500, .edges = 5000, .seed = seed}));
}

graph::Csr
weightedGraph(std::uint64_t seed)
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 40;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 384, .edges = 5000, .seed = seed}));
}

const GeneratorSpec kSweeps[] = {
    {.seed = 0, .inserts = 48, .deletes = 6, .reweights = 6},
    {.seed = 0, .inserts = 6, .deletes = 48, .reweights = 6},
    {.seed = 0, .inserts = 0, .deletes = 0, .reweights = 40},
    {.seed = 0, .inserts = 20, .deletes = 20, .reweights = 20},
};

IncrementalVirtualizer
inSideVirtualizer(const DynamicGraph &dg, NodeId k,
                  transform::EdgeLayout layout,
                  par::ThreadPool *pool = nullptr)
{
    return IncrementalVirtualizer(dg, k, layout, pool, GraphSide::In);
}

class ReverseArenaDifferential
    : public ::testing::TestWithParam<
          std::tuple<NodeId, transform::EdgeLayout>>
{
};

TEST_P(ReverseArenaDifferential, MatchesRebuildAfterEveryBatch)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(17));
    IncrementalVirtualizer virt = inSideVirtualizer(dg, k, layout);
    ASSERT_EQ(virt.side(), GraphSide::In);
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);

    std::uint64_t round = 0;
    for (const GeneratorSpec &sweep : kSweeps) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            GeneratorSpec spec = sweep;
            spec.seed = 100 + round++;
            const EpochDelta delta =
                dg.apply(generateBatch(dg.toCsr(), spec));
            const RepairStats stats = virt.applyDelta(delta);
            EXPECT_EQ(stats.epoch, delta.epoch);
            // The maintained reverse arena is the mirror of the dense
            // reversal at every epoch, weights and slot order
            // included.
            ASSERT_EQ(dg.toReversedCsr(), dg.toCsr().reversed())
                << "epoch " << delta.epoch;
            ASSERT_EQ(differentialCheck(dg, virt), std::nullopt)
                << "epoch " << delta.epoch;
            if (virt.shouldCompactEntries()) {
                virt.rebase();
                ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
            }
        }
    }
}

TEST_P(ReverseArenaDifferential, SurvivesGraphCompactionThroughRebase)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(23));
    IncrementalVirtualizer virt = inSideVirtualizer(dg, k, layout);

    // Delete-heavy batches until the slack threshold fires.
    GeneratorSpec spec{.seed = 5, .inserts = 2, .deletes = 120,
                       .reweights = 0};
    bool compacted = false;
    for (std::uint64_t round = 0; round < 30 && !compacted; ++round) {
        spec.seed = 500 + round;
        virt.applyDelta(dg.apply(generateBatch(dg.toCsr(), spec)));
        if (dg.shouldCompact()) {
            dg.compact();
            compacted = true;
        }
    }
    ASSERT_TRUE(compacted) << "slack threshold never fired";

    // Compaction renumbered every reverse-arena slot too: stale-slot
    // reads and repairs must be refused until rebase().
    EXPECT_THROW((void)virt.canonicalNodes(), std::logic_error);
    EXPECT_THROW(
        virt.applyDelta(dg.apply(generateBatch(dg.toCsr(), spec))),
        std::logic_error);

    const RepairStats stats = virt.rebase();
    EXPECT_EQ(stats.repairedVertices, dg.numNodes());
    ASSERT_EQ(dg.toReversedCsr(), dg.toCsr().reversed());
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);

    // And the repair loop continues cleanly afterwards.
    spec.seed = 997;
    virt.applyDelta(dg.apply(generateBatch(dg.toCsr(), spec)));
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(
    ReverseArena, ReverseArenaDifferential,
    ::testing::Combine(
        ::testing::Values(NodeId{2}, NodeId{8}, NodeId{32}),
        ::testing::Values(transform::EdgeLayout::Consecutive,
                          transform::EdgeLayout::Coalesced)),
    [](const auto &info) {
        return "K" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ==
                        transform::EdgeLayout::Coalesced
                    ? "_coalesced"
                    : "_consecutive");
    });

TEST(ReverseArena, UntouchedInFamiliesKeepTheirBytes)
{
    // Grow only vertex 3's in-degree (every insert targets 3 from a
    // distinct source); every other in-family's raw arena entries —
    // position and bytes — must be exactly what they were. The
    // O(touched) property of the reverse repair, stated as memory.
    DynamicGraph dg(skewedGraph(41));
    IncrementalVirtualizer virt = inSideVirtualizer(
        dg, 8, transform::EdgeLayout::Coalesced);

    struct Saved
    {
        NodeId v;
        std::vector<transform::VirtualNode> entries;
    };
    std::vector<Saved> before;
    for (NodeId v = 0; v < dg.numNodes(); ++v) {
        if (v == 3)
            continue;
        const auto fam = virt.familyOf(v);
        before.push_back({v, {fam.begin(), fam.end()}});
    }

    MutationBatch batch;
    for (std::size_t i = 0; i < 24; ++i)
        batch.push_back({MutationKind::InsertEdge,
                         static_cast<NodeId>(7 + i), 3, 5});
    const RepairStats stats = virt.applyDelta(dg.apply(batch));
    EXPECT_EQ(stats.repairedVertices, 1u);

    for (const Saved &saved : before) {
        const auto fam = virt.familyOf(saved.v);
        ASSERT_EQ(fam.size(), saved.entries.size())
            << "node " << saved.v;
        for (std::size_t i = 0; i < fam.size(); ++i)
            ASSERT_EQ(fam[i], saved.entries[i])
                << "node " << saved.v << " entry " << i;
    }
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(ReverseArena, ReweightOnlyBatchesShortCircuit)
{
    // Reweights change no in-degree and relocate no in-segment: the
    // whole touchedIn set short-circuits through the staleness test,
    // but the reversed weights themselves must still round-trip.
    DynamicGraph dg(weightedGraph(31));
    IncrementalVirtualizer virt = inSideVirtualizer(
        dg, 8, transform::EdgeLayout::Coalesced);
    GeneratorSpec spec{.seed = 11, .inserts = 0, .deletes = 0,
                       .reweights = 30};
    const EpochDelta delta = dg.apply(generateBatch(dg.toCsr(), spec));
    ASSERT_FALSE(delta.touched.empty());
    const RepairStats stats = virt.applyDelta(delta);
    EXPECT_EQ(stats.repairedVertices, 0u);
    EXPECT_EQ(stats.resplitFamilies, 0u);
    EXPECT_EQ(stats.relocatedFamilies, 0u);
    ASSERT_EQ(dg.toReversedCsr(), dg.toCsr().reversed());
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(ReverseArena, ParallelBuildRebaseAndCanonicalizeBitIdentical)
{
    // The pool parallelizes the In-side build and canonicalization;
    // every product must be bit-identical at 1, 2, and 8 workers to
    // the serial run.
    DynamicGraph dg(skewedGraph(47));
    GeneratorSpec spec{.seed = 3, .inserts = 40, .deletes = 25,
                       .reweights = 10};
    for (std::uint64_t round = 0; round < 4; ++round) {
        spec.seed = 300 + round;
        dg.apply(generateBatch(dg.toCsr(), spec));
    }

    IncrementalVirtualizer serial = inSideVirtualizer(
        dg, 8, transform::EdgeLayout::Coalesced);
    const std::vector<transform::VirtualNode> serial_raw(
        serial.virtualNodes().begin(), serial.virtualNodes().end());
    const std::vector<transform::VirtualNode> serial_canon =
        serial.nodesCopy();

    for (const unsigned workers : {1u, 2u, 8u}) {
        par::ThreadPool pool(workers);
        IncrementalVirtualizer virt = inSideVirtualizer(
            dg, 8, transform::EdgeLayout::Coalesced, &pool);
        const auto raw = virt.virtualNodes();
        ASSERT_EQ(raw.size(), serial_raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i)
            ASSERT_EQ(raw[i], serial_raw[i])
                << workers << " workers, entry " << i;
        const std::vector<transform::VirtualNode> canon =
            virt.canonicalNodes(&pool);
        ASSERT_EQ(canon.size(), serial_canon.size());
        for (std::size_t i = 0; i < canon.size(); ++i)
            ASSERT_EQ(canon[i], serial_canon[i])
                << workers << " workers, entry " << i;
    }
}

} // namespace
} // namespace tigr::dynamic
