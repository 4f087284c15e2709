/**
 * @file
 * Arena-addressed virtualizer suite: entries that point straight into
 * the DynamicGraph slack arena must canonicalize byte-identically to a
 * from-scratch dense rebuild after every batch, repair strictly
 * O(touched families) (untouched families never move), survive graph
 * and entry-arena compaction through rebase(), and drive the push
 * engine (a FamilyProvider over the forward arena) to values
 * bit-identical to a Schedule over the dense CSR at every pool size
 * and frontier mode.
 */
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algorithms/semirings.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/family_provider.hpp"
#include "engine/push_engine.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "ref/oracles.hpp"
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

class ArenaDifferential
    : public ::testing::TestWithParam<
          std::tuple<NodeId, transform::EdgeLayout>>
{
};

TEST_P(ArenaDifferential, MatchesRebuildAfterEveryBatch)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(17));
    IncrementalVirtualizer virt(dg, k, layout,
                                StartAddressing::Arena);
    ASSERT_EQ(virt.addressing(), StartAddressing::Arena);
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
            // Arena addressing never shifts untouched entries.
            EXPECT_EQ(stats.shiftedEntries, 0u);
            ASSERT_EQ(differentialCheck(dg, virt), std::nullopt)
                << "epoch " << delta.epoch;
            if (virt.shouldCompactEntries()) {
                virt.rebase();
                ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
            }
        }
    }
}

TEST_P(ArenaDifferential, SurvivesGraphCompactionThroughRebase)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(23));
    IncrementalVirtualizer virt(dg, k, layout,
                                StartAddressing::Arena);

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

    // Compaction renumbered every arena slot: stale-slot reads and
    // repairs must be refused until rebase().
    EXPECT_THROW((void)virt.canonicalNodes(), std::logic_error);
    EXPECT_THROW(
        virt.applyDelta(dg.apply(generateBatch(dg.toCsr(), spec))),
        std::logic_error);

    const RepairStats stats = virt.rebase();
    EXPECT_EQ(stats.repairedVertices, dg.numNodes());
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);

    // And the repair loop continues cleanly afterwards.
    spec.seed = 997;
    virt.applyDelta(dg.apply(generateBatch(dg.toCsr(), spec)));
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST_P(ArenaDifferential, CanonicalizationMatchesDenseVirtualizer)
{
    const auto [k, layout] = GetParam();
    DynamicGraph dg(skewedGraph(29));
    IncrementalVirtualizer arena(dg, k, layout,
                                 StartAddressing::Arena);
    IncrementalVirtualizer dense(dg, k, layout);

    GeneratorSpec spec{.seed = 0, .inserts = 30, .deletes = 20,
                       .reweights = 10};
    for (std::uint64_t round = 0; round < 6; ++round) {
        spec.seed = 700 + round;
        const EpochDelta delta =
            dg.apply(generateBatch(dg.toCsr(), spec));
        arena.applyDelta(delta);
        dense.applyDelta(delta);

        const std::vector<transform::VirtualNode> canon =
            arena.nodesCopy();
        const auto want = dense.virtualNodes();
        ASSERT_EQ(canon.size(), want.size());
        for (std::size_t i = 0; i < canon.size(); ++i)
            ASSERT_EQ(canon[i], want[i]) << "entry " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Arena, ArenaDifferential,
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

TEST(ArenaVirtualizer, UntouchedFamiliesKeepTheirBytes)
{
    // Grow only vertex 3; every other family's raw arena entries —
    // position and bytes — must be exactly what they were. This is the
    // O(touched) property stated as memory, not time.
    DynamicGraph dg(skewedGraph(41));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced,
                                StartAddressing::Arena);

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
        batch.push_back({MutationKind::InsertEdge, 3,
                         static_cast<NodeId>(7 + i), 5});
    const RepairStats stats = virt.applyDelta(dg.apply(batch));
    EXPECT_EQ(stats.repairedVertices, 1u);
    EXPECT_EQ(stats.shiftedEntries, 0u);

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

TEST(ArenaVirtualizer, RelocationWithUnchangedDegreeStillRepairs)
{
    // One batch that inserts into a full segment (relocating it to the
    // arena tail) and deletes another edge of the same vertex: the
    // degree round-trips, but the segment moved, so skipping the
    // repair would leave entries pointing at dead slots. The anchor
    // test (entry 0's start == segment begin) must catch it.
    graph::CooEdges coo(8);
    for (NodeId v = 0; v < 8; ++v)
        for (NodeId j = 1; j <= 4; ++j)
            coo.add(v, (v + j) % 8, 1 + j);
    DynamicGraph dg(graph::Csr::fromCoo(coo));
    IncrementalVirtualizer virt(dg, 2,
                                transform::EdgeLayout::Consecutive,
                                StartAddressing::Arena);
    const EdgeIndex begin_before = dg.edgeBegin(2);

    MutationBatch batch;
    batch.push_back({MutationKind::InsertEdge, 2, 7, 9});
    batch.push_back({MutationKind::DeleteEdge, 2, 3, 0});
    const EpochDelta delta = dg.apply(batch);
    ASSERT_EQ(delta.touched.size(), 1u);
    EXPECT_EQ(delta.touched[0].oldDegree, delta.touched[0].newDegree);
    ASSERT_NE(dg.edgeBegin(2), begin_before)
        << "segment was expected to relocate";

    const RepairStats stats = virt.applyDelta(delta);
    EXPECT_EQ(stats.repairedVertices, 1u);
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(ArenaVirtualizer, SkipsUntouchedDegreePreservingFamilies)
{
    // A reweight-only batch relocates nothing and changes no degree:
    // the whole touched set short-circuits through the staleness test.
    DynamicGraph dg(skewedGraph(43));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced,
                                StartAddressing::Arena);
    GeneratorSpec spec{.seed = 11, .inserts = 0, .deletes = 0,
                       .reweights = 30};
    const EpochDelta delta =
        dg.apply(generateBatch(dg.toCsr(), spec));
    ASSERT_FALSE(delta.touched.empty());
    const RepairStats stats = virt.applyDelta(delta);
    EXPECT_EQ(stats.repairedVertices, 0u);
    EXPECT_EQ(stats.resplitFamilies, 0u);
    EXPECT_EQ(stats.relocatedFamilies, 0u);
    ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
}

TEST(ArenaVirtualizer, ParallelBuildRebaseAndCanonicalizeBitIdentical)
{
    // The pool parallelizes the build, the rebase sweep, and
    // canonicalization; every product must be bit-identical at 1, 2,
    // and 8 workers to the serial run.
    DynamicGraph dg(skewedGraph(47));
    GeneratorSpec spec{.seed = 3, .inserts = 40, .deletes = 25,
                       .reweights = 10};
    for (std::uint64_t round = 0; round < 4; ++round) {
        spec.seed = 300 + round;
        dg.apply(generateBatch(dg.toCsr(), spec));
    }

    IncrementalVirtualizer serial(dg, 8,
                                  transform::EdgeLayout::Coalesced,
                                  StartAddressing::Arena);
    const std::vector<transform::VirtualNode> serial_raw(
        serial.virtualNodes().begin(), serial.virtualNodes().end());
    const std::vector<transform::VirtualNode> serial_canon =
        serial.nodesCopy();

    for (const unsigned workers : {1u, 2u, 8u}) {
        par::ThreadPool pool(workers);
        IncrementalVirtualizer virt(
            dg, 8, transform::EdgeLayout::Coalesced,
            StartAddressing::Arena, &pool);
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
                << workers << " workers, canonical entry " << i;

        const RepairStats stats = virt.rebase(&pool);
        EXPECT_EQ(stats.repairedVertices, dg.numNodes());
        ASSERT_EQ(differentialCheck(dg, virt), std::nullopt);
    }
}

TEST(ArenaVirtualizer, RejectsOutOfOrderDeltas)
{
    DynamicGraph dg(skewedGraph(53));
    IncrementalVirtualizer virt(dg, 8,
                                transform::EdgeLayout::Coalesced,
                                StartAddressing::Arena);
    GeneratorSpec spec{.seed = 1, .inserts = 5, .deletes = 0,
                       .reweights = 0};
    const EpochDelta delta =
        dg.apply(generateBatch(dg.toCsr(), spec));
    virt.applyDelta(delta);
    EXPECT_THROW(virt.applyDelta(delta), std::invalid_argument);
}

TEST(ArenaVirtualizer, DenseAddressingRefusesArenaOperations)
{
    DynamicGraph dg(skewedGraph(59));
    IncrementalVirtualizer dense(dg, 8,
                                 transform::EdgeLayout::Coalesced);
    EXPECT_THROW(dense.rebase(), std::logic_error);
}

// ---------------------------------------------------------------------
// Engine over the arena: queries with no dense materialization.

class ArenaEngine
    : public ::testing::TestWithParam<engine::FrontierMode>
{
  protected:
    /** Mutated graph + arena virtualizer + dense schedule reference
     *  over the same state. */
    struct Fixture
    {
        DynamicGraph dg;
        IncrementalVirtualizer virt;
        graph::Csr dense;

        explicit Fixture(transform::EdgeLayout layout)
            : dg(weightedGraph(61)),
              virt(dg, 8, layout, StartAddressing::Arena)
        {
            GeneratorSpec spec{.seed = 0, .inserts = 60,
                               .deletes = 30, .reweights = 20};
            for (std::uint64_t round = 0; round < 3; ++round) {
                spec.seed = 900 + round;
                virt.applyDelta(
                    dg.apply(generateBatch(dg.toCsr(), spec)));
            }
            dense = dg.toCsr();
        }
    };

    engine::PushOptions
    pushOptions(par::ThreadPool *pool) const
    {
        engine::PushOptions options;
        options.pool = pool;
        options.frontier = GetParam();
        return options;
    }
};

TEST_P(ArenaEngine, SsspMatchesDenseScheduleAndOracle)
{
    for (const transform::EdgeLayout layout :
         {transform::EdgeLayout::Consecutive,
          transform::EdgeLayout::Coalesced}) {
        Fixture fx(layout);
        const engine::Strategy strategy =
            layout == transform::EdgeLayout::Coalesced
                ? engine::Strategy::TigrVPlus
                : engine::Strategy::TigrV;
        engine::Schedule schedule =
            engine::Schedule::build(fx.dense, strategy, 8, 4);
        engine::FamilyProvider arena(engine::ArenaOutSide{&fx.dg}, 8,
                                     layout, &fx.virt);
        sim::WarpSimulator sim;
        const std::pair<NodeId, Dist> seeds[] = {{0, 0}};

        // Serial arena run: the bit-identity baseline for the pools.
        const auto base = engine::runPush<algorithms::SsspSemiring>(
            arena, sim, pushOptions(nullptr), seeds);
        ASSERT_TRUE(base.converged);

        // Same fixed point as the dense schedule and the oracle.
        const auto dense = engine::runPush<algorithms::SsspSemiring>(
            schedule, sim, pushOptions(nullptr), seeds);
        ASSERT_TRUE(dense.converged);
        const auto oracle = ref::dijkstra(fx.dense, 0);
        for (NodeId v = 0; v < fx.dense.numNodes(); ++v) {
            ASSERT_EQ(base.values[v], dense.values[v]) << "node " << v;
            ASSERT_EQ(base.values[v], oracle[v]) << "node " << v;
        }

        for (const unsigned workers : {1u, 2u, 8u}) {
            par::ThreadPool pool(workers);
            const auto got =
                engine::runPush<algorithms::SsspSemiring>(
                    arena, sim, pushOptions(&pool), seeds);
            ASSERT_TRUE(got.converged);
            EXPECT_EQ(got.iterations, base.iterations)
                << workers << " workers";
            ASSERT_EQ(got.values.size(), base.values.size());
            for (NodeId v = 0; v < fx.dense.numNodes(); ++v)
                ASSERT_EQ(got.values[v], base.values[v])
                    << workers << " workers, node " << v;
        }
    }
}

TEST_P(ArenaEngine, SswpMatchesDenseScheduleAndOracle)
{
    Fixture fx(transform::EdgeLayout::Coalesced);
    engine::Schedule schedule = engine::Schedule::build(
        fx.dense, engine::Strategy::TigrVPlus, 8, 4);
    engine::FamilyProvider arena(engine::ArenaOutSide{&fx.dg}, 8,
                                 transform::EdgeLayout::Coalesced,
                                 &fx.virt);
    sim::WarpSimulator sim;
    const std::pair<NodeId, Weight> seeds[] = {{0, kInfWeight}};

    const auto base = engine::runPush<algorithms::SswpSemiring>(
        arena, sim, pushOptions(nullptr), seeds);
    ASSERT_TRUE(base.converged);
    const auto dense = engine::runPush<algorithms::SswpSemiring>(
        schedule, sim, pushOptions(nullptr), seeds);
    ASSERT_TRUE(dense.converged);
    const auto oracle = ref::widestPath(fx.dense, 0);
    for (NodeId v = 0; v < fx.dense.numNodes(); ++v) {
        ASSERT_EQ(base.values[v], dense.values[v]) << "node " << v;
        ASSERT_EQ(base.values[v], oracle[v]) << "node " << v;
    }

    for (const unsigned workers : {1u, 2u, 8u}) {
        par::ThreadPool pool(workers);
        const auto got = engine::runPush<algorithms::SswpSemiring>(
            arena, sim, pushOptions(&pool), seeds);
        ASSERT_TRUE(got.converged);
        EXPECT_EQ(got.iterations, base.iterations)
            << workers << " workers";
        for (NodeId v = 0; v < fx.dense.numNodes(); ++v)
            ASSERT_EQ(got.values[v], base.values[v])
                << workers << " workers, node " << v;
    }
}

TEST_P(ArenaEngine, CcMatchesDenseScheduleAcrossPools)
{
    // Label propagation over whatever directed state the mutations
    // left: min-label fixed points are unique per edge set, so both
    // providers must land on the same labels.
    Fixture fx(transform::EdgeLayout::Coalesced);
    engine::Schedule schedule = engine::Schedule::build(
        fx.dense, engine::Strategy::TigrVPlus, 8, 4);
    engine::FamilyProvider arena(engine::ArenaOutSide{&fx.dg}, 8,
                                 transform::EdgeLayout::Coalesced,
                                 &fx.virt);
    sim::WarpSimulator sim;
    std::vector<std::pair<NodeId, NodeId>> seeds;
    for (NodeId v = 0; v < fx.dense.numNodes(); ++v)
        seeds.emplace_back(v, v);

    const auto base = engine::runPush<algorithms::CcSemiring>(
        arena, sim, pushOptions(nullptr), seeds,
        /*all_active=*/true);
    ASSERT_TRUE(base.converged);
    const auto dense = engine::runPush<algorithms::CcSemiring>(
        schedule, sim, pushOptions(nullptr), seeds,
        /*all_active=*/true);
    ASSERT_TRUE(dense.converged);
    for (NodeId v = 0; v < fx.dense.numNodes(); ++v)
        ASSERT_EQ(base.values[v], dense.values[v]) << "node " << v;

    for (const unsigned workers : {1u, 2u, 8u}) {
        par::ThreadPool pool(workers);
        const auto got = engine::runPush<algorithms::CcSemiring>(
            arena, sim, pushOptions(&pool), seeds,
            /*all_active=*/true);
        ASSERT_TRUE(got.converged);
        EXPECT_EQ(got.iterations, base.iterations)
            << workers << " workers";
        for (NodeId v = 0; v < fx.dense.numNodes(); ++v)
            ASSERT_EQ(got.values[v], base.values[v])
                << workers << " workers, node " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFrontiers, ArenaEngine,
    ::testing::Values(engine::FrontierMode::Dense,
                      engine::FrontierMode::Sparse,
                      engine::FrontierMode::Adaptive),
    [](const auto &info) {
        switch (info.param) {
          case engine::FrontierMode::Dense: return "dense";
          case engine::FrontierMode::Sparse: return "sparse";
          default: return "adaptive";
        }
    });

} // namespace
} // namespace tigr::dynamic
