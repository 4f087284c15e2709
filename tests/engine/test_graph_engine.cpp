/**
 * @file
 * Tests of the GraphEngine facade: all six analyses against their
 * oracles under every strategy, the physical-vs-virtual iteration
 * behavior the paper reports (Table 8), transform caching, and the
 * unsupported-combination guards.
 */
#include <gtest/gtest.h>

#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "ref/oracles.hpp"

namespace tigr::engine {
namespace {

graph::Csr
weightedGraph(std::uint64_t seed)
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 24;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 320, .edges = 4200, .seed = seed}));
}

graph::Csr
symmetricGraph(std::uint64_t seed)
{
    graph::CooEdges coo =
        graph::rmat({.nodes = 256, .edges = 2200, .seed = seed});
    coo.symmetrize();
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 24;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(std::move(coo));
}

EngineOptions
optionsFor(Strategy strategy)
{
    EngineOptions options;
    options.strategy = strategy;
    options.degreeBound = 8;
    options.udtBound = 16;
    options.mwVirtualWarp = 4;
    return options;
}

class EngineMatrix : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(EngineMatrix, BfsMatchesOracle)
{
    graph::Csr g = weightedGraph(41);
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.bfs(3);
    auto oracle = ref::bfsHops(g, 3);
    ASSERT_EQ(result.values.size(), g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(EngineMatrix, SsspMatchesOracle)
{
    graph::Csr g = weightedGraph(42);
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.sssp(5);
    auto oracle = ref::dijkstra(g, 5);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(EngineMatrix, SswpMatchesOracle)
{
    graph::Csr g = weightedGraph(43);
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.sswp(7);
    auto oracle = ref::widestPath(g, 7);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(EngineMatrix, CcMatchesOracle)
{
    graph::Csr g = symmetricGraph(44);
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.cc();
    auto oracle = ref::connectedComponents(g);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(EngineMatrix, PagerankMatchesOracle)
{
    if (GetParam() == Strategy::TigrUdt)
        GTEST_SKIP() << "PR unsupported under physical UDT";
    graph::Csr g = weightedGraph(45);
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.pagerank({.damping = 0.85, .iterations = 15});
    auto oracle =
        ref::pageRank(g, {.damping = 0.85, .iterations = 15});
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(result.values[v], oracle[v], 1e-9) << "node " << v;
}

TEST_P(EngineMatrix, BcMatchesOracle)
{
    if (GetParam() == Strategy::TigrUdt)
        GTEST_SKIP() << "BC unsupported under physical UDT";
    graph::Csr g = weightedGraph(46);
    const NodeId sources[] = {0, 11, 37};
    GraphEngine engine(g, optionsFor(GetParam()));
    auto result = engine.bc(sources);
    auto oracle = ref::betweennessCentrality(g, sources);
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        ASSERT_NEAR(result.values[v], oracle[v],
                    1e-6 * (1.0 + std::abs(oracle[v])))
            << "node " << v;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EngineMatrix, ::testing::ValuesIn(kAllStrategies),
    [](const auto &info) {
        std::string name(strategyName(info.param));
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

TEST(GraphEngine, UdtRefusesPagerankAndBc)
{
    graph::Csr g = weightedGraph(47);
    GraphEngine engine(g, optionsFor(Strategy::TigrUdt));
    EXPECT_THROW(engine.pagerank(), std::invalid_argument);
    const NodeId sources[] = {0};
    EXPECT_THROW(engine.bc(sources), std::invalid_argument);
}

TEST(GraphEngine, PhysicalTransformationNeedsMoreIterations)
{
    // Table 8: physical splitting lengthens propagation paths, so BSP
    // SSSP needs more iterations; the virtual transformation needs
    // exactly as many as the original.
    graph::Csr g = weightedGraph(48);
    EngineOptions base = optionsFor(Strategy::Baseline);
    base.syncRelaxation = false;
    EngineOptions udt = optionsFor(Strategy::TigrUdt);
    udt.syncRelaxation = false;
    udt.udtBound = 8;
    EngineOptions virt = optionsFor(Strategy::TigrVPlus);
    virt.syncRelaxation = false;

    auto base_run = GraphEngine(g, base).sssp(0);
    auto udt_run = GraphEngine(g, udt).sssp(0);
    auto virt_run = GraphEngine(g, virt).sssp(0);

    EXPECT_EQ(base_run.values, udt_run.values);
    EXPECT_EQ(base_run.values, virt_run.values);
    EXPECT_GT(udt_run.info.iterations, base_run.info.iterations);
    EXPECT_EQ(virt_run.info.iterations, base_run.info.iterations);
}

TEST(GraphEngine, TransformCostCachedAcrossCalls)
{
    graph::Csr g = weightedGraph(49);
    GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
    auto first = engine.sssp(0);
    auto second = engine.sssp(1);
    EXPECT_GT(first.info.transformMs, 0.0);
    EXPECT_DOUBLE_EQ(first.info.transformMs, second.info.transformMs);
    // The first call built the context, the second reused it; only the
    // reuse is flagged, so callers can avoid double-charging the build.
    EXPECT_FALSE(first.info.transformCached);
    EXPECT_TRUE(second.info.transformCached);
}

TEST(GraphEngine, TransformCachedPerContextNotPerEngine)
{
    graph::Csr g = weightedGraph(49);
    GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
    auto sssp = engine.sssp(0);   // builds WeightedZero
    auto sswp = engine.sswp(0);   // builds WeightedInf — a fresh context
    auto again = engine.sswp(1);  // reuses WeightedInf
    // BFS reads the weighted context through unit weights: no context
    // of its own, so it reuses SSSP's.
    auto bfs = engine.bfs(0);
    EXPECT_FALSE(sssp.info.transformCached);
    EXPECT_FALSE(sswp.info.transformCached);
    EXPECT_TRUE(again.info.transformCached);
    EXPECT_TRUE(bfs.info.transformCached);
}

TEST(GraphEngine, HostTimeReported)
{
    graph::Csr g = weightedGraph(49);
    GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
    auto result = engine.sssp(0);
    EXPECT_GT(result.info.hostMs, 0.0);
}

TEST(GraphEngine, FootprintLargestForCusha)
{
    graph::Csr g = weightedGraph(50);
    GraphEngine base(g, optionsFor(Strategy::Baseline));
    GraphEngine cusha(g, optionsFor(Strategy::Cusha));
    GraphEngine tigr(g, optionsFor(Strategy::TigrVPlus));
    EXPECT_GT(cusha.footprintBytes(Algorithm::Sssp),
              2 * base.footprintBytes(Algorithm::Sssp));
    EXPECT_LT(tigr.footprintBytes(Algorithm::Sssp),
              cusha.footprintBytes(Algorithm::Sssp) / 2);
}

TEST(GraphEngine, SimulatedCyclesAccumulateAcrossRuns)
{
    graph::Csr g = weightedGraph(51);
    GraphEngine engine(g, optionsFor(Strategy::Baseline));
    auto run = engine.sssp(0);
    EXPECT_GT(run.info.stats.cycles, 0u);
    EXPECT_GT(run.info.simulatedMs(), 0.0);
    // One main launch per iteration plus one compaction launch per
    // sparse iteration (the default adaptive frontier runs sparse on
    // this small graph's narrow BFS-like frontiers).
    EXPECT_EQ(run.info.stats.launches,
              run.info.iterations + run.info.sparseIterations);
}

TEST(GraphEngine, DeterministicAcrossEngines)
{
    graph::Csr g = weightedGraph(52);
    auto a = GraphEngine(g, optionsFor(Strategy::TigrVPlus)).sssp(0);
    auto b = GraphEngine(g, optionsFor(Strategy::TigrVPlus)).sssp(0);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.info.stats.cycles, b.info.stats.cycles);
    EXPECT_EQ(a.info.iterations, b.info.iterations);
}

TEST(GraphEngine, BfsOnWeightedGraphIgnoresWeights)
{
    graph::Csr g = weightedGraph(53);
    GraphEngine engine(g, optionsFor(Strategy::Baseline));
    auto hops = engine.bfs(0);
    auto dist = engine.sssp(0);
    // Weighted distances generally exceed hop counts (weights up to 24).
    bool any_larger = false;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        if (hops.values[v] != kInfDist)
            any_larger |= dist.values[v] > hops.values[v];
    }
    EXPECT_TRUE(any_larger);
}

TEST(GraphEngine, PagerankEpsilonStopsEarly)
{
    graph::Csr g = weightedGraph(55);
    GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
    PageRankOptions precise{.damping = 0.85, .iterations = 200};
    PageRankOptions early{.damping = 0.85, .iterations = 200,
                          .pull = false, .epsilon = 1e-7};
    auto exact = engine.pagerank(precise);
    auto stopped = engine.pagerank(early);
    EXPECT_LT(stopped.info.iterations, exact.info.iterations);
    EXPECT_GT(stopped.info.iterations, 1u);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(stopped.values[v], exact.values[v], 1e-6);
}

TEST(GraphEngine, PagerankEpsilonWorksInPullMode)
{
    graph::Csr g = weightedGraph(56);
    GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
    PageRankOptions early{.damping = 0.85, .iterations = 200,
                          .pull = true, .epsilon = 1e-7};
    auto stopped = engine.pagerank(early);
    EXPECT_LT(stopped.info.iterations, 200u);
}

TEST(GraphEngine, BaselineSmImbalanceExceedsVirtual)
{
    // Section 2.3's inter-warp effect: with one node per thread, the
    // SMs holding hub warps finish long after the rest; the virtual
    // transformation evens the SMs out too.
    graph::Csr g = weightedGraph(57);
    auto base = GraphEngine(g, optionsFor(Strategy::Baseline)).sssp(0);
    auto tigr = GraphEngine(g, optionsFor(Strategy::TigrVPlus)).sssp(0);
    EXPECT_GT(base.info.stats.smImbalance(),
              tigr.info.stats.smImbalance());
}

TEST(GraphEngine, EmptySourceListBcIsZero)
{
    graph::Csr g = weightedGraph(54);
    GraphEngine engine(g, optionsFor(Strategy::Baseline));
    auto result = engine.bc({});
    for (double value : result.values)
        EXPECT_EQ(value, 0.0);
}

} // namespace
} // namespace tigr::engine
