/**
 * @file
 * IncrementalVirtualizer differential suite: after every mutation
 * batch, the incrementally repaired virtual node array must be
 * element-for-element identical to a from-scratch VirtualGraph rebuild
 * — across K in {2, 8, 32}, both edge layouts, and insert-heavy /
 * delete-heavy / reweight-only / mixed mutation sweeps, with graph
 * compaction and rebase() in between. Also pins that repair really is
 * incremental (touched vertices only), that every family has
 * ceil(d/K) entries, and that out-of-order deltas are rejected.
 */
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::dynamic {
namespace {

graph::Csr
skewedGraph(std::uint64_t seed)
{
    // RMAT is heavy-tailed: plenty of families larger than K, so
    // degree changes regularly cross family-size boundaries.
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 500, .edges = 5000, .seed = seed}));
}

/** The named mutation sweeps of the acceptance criteria. */
const GeneratorSpec kSweeps[] = {
    {.seed = 0, .inserts = 48, .deletes = 6, .reweights = 6},  // insert
    {.seed = 0, .inserts = 6, .deletes = 48, .reweights = 6},  // delete
    {.seed = 0, .inserts = 0, .deletes = 0, .reweights = 40},  // reweight
    {.seed = 0, .inserts = 20, .deletes = 20, .reweights = 20}, // mixed
};

class IncrementalDifferential
    : public ::testing::TestWithParam<
          std::tuple<NodeId, transform::EdgeLayout>>
{
};

TEST_P(IncrementalDifferential, MatchesRebuildAfterEveryBatch)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(17));
    IncrementalVirtualizer virt(dg, k, layout);
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);

    std::uint64_t round = 0;
    for (const GeneratorSpec &sweep : kSweeps) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            ++round;
            GeneratorSpec spec = sweep;
            spec.seed = round * 97 + 13;
            const MutationBatch batch = generateBatch(dg.toCsr(), spec);
            const EpochDelta delta = dg.apply(batch);
            const RepairStats stats = virt.applyDelta(delta);
            EXPECT_EQ(stats.epoch, delta.epoch);
            EXPECT_LE(stats.repairedVertices, delta.touched.size());
            const std::optional<std::string> divergence =
                differentialCheck(dg, virt);
            EXPECT_EQ(divergence, std::nullopt)
                << "round " << round << ": " << divergence.value_or("");
            // The repaired array must hold exactly the entries a
            // VirtualGraph over the materialized CSR holds.
            const graph::Csr dense = dg.toCsr();
            const transform::VirtualGraph rebuilt(dense, k, layout);
            ASSERT_EQ(virt.numEntries(), rebuilt.virtualNodes().size());
        }
        // Compaction renumbers every arena slot; rebase() re-anchors
        // the entries and the canonical array is unchanged.
        if (dg.shouldCompact()) {
            dg.compact();
            virt.rebase();
            EXPECT_EQ(differentialCheck(dg, virt), std::nullopt);
        }
    }
    EXPECT_EQ(dg.epoch(), 12u);
    EXPECT_EQ(virt.epoch(), 12u);
}

std::string
sweepName(const ::testing::TestParamInfo<
          std::tuple<NodeId, transform::EdgeLayout>> &info)
{
    return "K" + std::to_string(std::get<0>(info.param)) +
           (std::get<1>(info.param) == transform::EdgeLayout::Coalesced
                ? "Coalesced"
                : "Consecutive");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalDifferential,
    ::testing::Combine(
        ::testing::Values(NodeId{2}, NodeId{8}, NodeId{32}),
        ::testing::Values(transform::EdgeLayout::Consecutive,
                          transform::EdgeLayout::Coalesced)),
    sweepName);

TEST(IncrementalVirtualizer, RepairTouchesOnlyChangedFamilies)
{
    DynamicGraph dg(skewedGraph(29));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced);
    // One insert touches one vertex: exactly one family repairs.
    const EpochDelta delta =
        dg.apply({{MutationKind::InsertEdge, 7, 3, 2}});
    const RepairStats stats = virt.applyDelta(delta);
    EXPECT_EQ(stats.repairedVertices, 1u);
    EXPECT_EQ(differentialCheck(dg, virt), std::nullopt);

    // A reweight-only batch changes no degree: zero repairs.
    const EpochDelta delta2 =
        dg.apply({{MutationKind::UpdateWeight, 7, 3, 9}});
    const RepairStats stats2 = virt.applyDelta(delta2);
    EXPECT_EQ(stats2.repairedVertices, 0u);
    EXPECT_EQ(stats2.resplitFamilies, 0u);
    EXPECT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(IncrementalVirtualizer, ResplitOnlyWhenDegreeCrossesAMultipleOfK)
{
    // Vertex 0 has degree 8 with K=4 (2 entries); one insert makes it
    // 9 (3 entries) — a resplit. A second insert to 10 keeps 3 entries
    // — repaired but not resplit.
    graph::CooEdges coo(16);
    for (NodeId i = 0; i < 8; ++i)
        coo.add(0, i + 1, 1);
    coo.add(15, 0, 1);
    DynamicGraph dg(graph::Csr::fromCoo(coo));
    IncrementalVirtualizer virt(dg, 4,
                                transform::EdgeLayout::Consecutive);

    const RepairStats grow = virt.applyDelta(
        dg.apply({{MutationKind::InsertEdge, 0, 9, 1}}));
    EXPECT_EQ(grow.repairedVertices, 1u);
    EXPECT_EQ(grow.resplitFamilies, 1u);
    EXPECT_EQ(grow.entriesAfter, grow.entriesBefore + 1);

    const RepairStats same = virt.applyDelta(
        dg.apply({{MutationKind::InsertEdge, 0, 10, 1}}));
    EXPECT_EQ(same.repairedVertices, 1u);
    EXPECT_EQ(same.resplitFamilies, 0u);
    EXPECT_EQ(same.entriesAfter, same.entriesBefore);
    EXPECT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(IncrementalVirtualizer, RejectsOutOfOrderDeltas)
{
    DynamicGraph dg(skewedGraph(31));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced);
    const EpochDelta delta =
        dg.apply({{MutationKind::InsertEdge, 1, 2, 3}});
    virt.applyDelta(delta);
    EXPECT_THROW(virt.applyDelta(delta), std::invalid_argument);

    EpochDelta future = delta;
    future.epoch = 5; // skips epochs 2..4
    EXPECT_THROW(virt.applyDelta(future), std::invalid_argument);
}

TEST(IncrementalVirtualizer, EntryOffsetsBracketEveryFamily)
{
    DynamicGraph dg(skewedGraph(37));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced);
    virt.applyDelta(dg.apply(generateBatch(
        dg.toCsr(), {.seed = 3, .inserts = 30, .deletes = 10})));

    std::size_t total = 0;
    for (NodeId v = 0; v < dg.numNodes(); ++v) {
        SCOPED_TRACE(v);
        const auto family = virt.familyOf(v);
        const EdgeIndex d = dg.degree(v);
        const std::size_t expected = d == 0 ? 1 : (d + 8 - 1) / 8;
        EXPECT_EQ(family.size(), expected);
        EXPECT_EQ(virt.familyCountOf(v), expected);
        for (const transform::VirtualNode &node : family)
            EXPECT_EQ(node.physicalId, v);
        total += family.size();
    }
    EXPECT_EQ(total, virt.numEntries());
}

} // namespace
} // namespace tigr::dynamic
