/**
 * @file
 * Tests of the engine's execution modes beyond the default push +
 * stored-schedule path: pull propagation (Section 2.1 / Theorem 3) and
 * on-the-fly mapping reasoning (Section 4.1's second virtualization
 * design), plus the guards on invalid combinations.
 */
#include <gtest/gtest.h>

#include "engine/family_provider.hpp"
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
    options.maxWeight = 30;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 300, .edges = 3600, .seed = seed}));
}

graph::Csr
symmetricGraph(std::uint64_t seed)
{
    graph::CooEdges coo =
        graph::rmat({.nodes = 220, .edges = 1800, .seed = seed});
    coo.symmetrize();
    return graph::GraphBuilder().build(std::move(coo));
}

EngineOptions
optionsFor(Strategy strategy, Direction direction, bool dynamic)
{
    EngineOptions options;
    options.strategy = strategy;
    options.direction = direction;
    options.dynamicMapping = dynamic;
    options.degreeBound = 8;
    options.mwVirtualWarp = 4;
    return options;
}

// ---------------------------------------------------------------
// Pull propagation: every pull-capable strategy matches the oracles.
// ---------------------------------------------------------------

class PullMatrix : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(PullMatrix, SsspPullMatchesDijkstra)
{
    graph::Csr g = weightedGraph(61);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Pull,
                                     false));
    auto result = engine.sssp(0);
    auto oracle = ref::dijkstra(g, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(PullMatrix, BfsPullMatchesOracle)
{
    graph::Csr g = weightedGraph(62);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Pull,
                                     false));
    auto result = engine.bfs(2);
    auto oracle = ref::bfsHops(g, 2);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(PullMatrix, SswpPullMatchesOracle)
{
    graph::Csr g = weightedGraph(63);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Pull,
                                     false));
    auto result = engine.sswp(1);
    auto oracle = ref::widestPath(g, 1);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

TEST_P(PullMatrix, CcPullMatchesOracle)
{
    graph::Csr g = symmetricGraph(64);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Pull,
                                     false));
    auto result = engine.cc();
    auto oracle = ref::connectedComponents(g);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(result.values[v], oracle[v]) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(
    PullCapableStrategies, PullMatrix,
    ::testing::Values(Strategy::Baseline, Strategy::TigrV,
                      Strategy::TigrVPlus, Strategy::MaximumWarp,
                      Strategy::Cusha, Strategy::Gunrock),
    [](const auto &info) {
        std::string name(strategyName(info.param));
        for (char &c : name)
            if (c == '-' || c == '+')
                c = '_';
        return name;
    });

TEST(PullMode, PushAndPullReachTheSameFixpoint)
{
    graph::Csr g = weightedGraph(65);
    auto push = GraphEngine(g, optionsFor(Strategy::TigrVPlus,
                                          Direction::Push, false))
                    .sssp(0);
    auto pull = GraphEngine(g, optionsFor(Strategy::TigrVPlus,
                                          Direction::Pull, false))
                    .sssp(0);
    EXPECT_EQ(push.values, pull.values);
}

TEST(PullMode, PagerankPullEqualsPush)
{
    // Theorem 3: the PR vertex function is associative, so the pull
    // formulation over virtual families gives the same ranks.
    graph::Csr g = weightedGraph(66);
    PageRankOptions pull_pr;
    pull_pr.pull = true;
    auto pull = GraphEngine(g, optionsFor(Strategy::TigrVPlus,
                                          Direction::Push, false))
                    .pagerank(pull_pr);
    auto push = GraphEngine(g, optionsFor(Strategy::TigrVPlus,
                                          Direction::Push, false))
                    .pagerank({});
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(pull.values[v], push.values[v], 1e-9);
}

TEST(PullMode, RefusedUnderUdt)
{
    graph::Csr g = weightedGraph(67);
    EXPECT_THROW(GraphEngine(g, optionsFor(Strategy::TigrUdt,
                                           Direction::Pull, false)),
                 std::invalid_argument);
}

// ---------------------------------------------------------------
// Dynamic mapping reasoning: identical results *and* identical
// simulated behavior to the stored virtual node array, with a
// smaller device footprint.
// ---------------------------------------------------------------

class DynamicMapping : public ::testing::TestWithParam<Strategy>
{
};

TEST_P(DynamicMapping, SameResultsAndCyclesAsStoredArray)
{
    graph::Csr g = weightedGraph(68);
    auto stored = GraphEngine(g, optionsFor(GetParam(),
                                            Direction::Push, false))
                      .sssp(0);
    auto dynamic = GraphEngine(g, optionsFor(GetParam(),
                                             Direction::Push, true))
                       .sssp(0);
    EXPECT_EQ(stored.values, dynamic.values);
    // The provider enumerates the same units in the same order, so
    // the simulator sees bit-identical launches.
    EXPECT_EQ(stored.info.stats.cycles, dynamic.info.stats.cycles);
    EXPECT_EQ(stored.info.iterations, dynamic.info.iterations);
    EXPECT_EQ(stored.info.stats.instructions,
              dynamic.info.stats.instructions);
}

TEST_P(DynamicMapping, WorksForAllSemiringAnalyses)
{
    graph::Csr g = symmetricGraph(69);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Push,
                                     true));
    auto cc = engine.cc();
    auto oracle = ref::connectedComponents(g);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(cc.values[v], oracle[v]);
    auto sswp = engine.sswp(0);
    auto sswp_oracle = ref::widestPath(g, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_EQ(sswp.values[v], sswp_oracle[v]);
}

TEST_P(DynamicMapping, PagerankAndBcSupportDynamicMode)
{
    graph::Csr g = weightedGraph(70);
    GraphEngine engine(g, optionsFor(GetParam(), Direction::Push,
                                     true));
    auto ranks = engine.pagerank({.damping = 0.85, .iterations = 10});
    auto oracle =
        ref::pageRank(g, {.damping = 0.85, .iterations = 10});
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(ranks.values[v], oracle[v], 1e-9);

    const NodeId sources[] = {0, 5};
    auto centrality = engine.bc(sources);
    auto bc_oracle = ref::betweennessCentrality(g, sources);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        ASSERT_NEAR(centrality.values[v], bc_oracle[v], 1e-6);
}

TEST_P(DynamicMapping, SavesDeviceMemory)
{
    graph::Csr g = weightedGraph(71);
    GraphEngine stored(g, optionsFor(GetParam(), Direction::Push,
                                     false));
    GraphEngine dynamic(g, optionsFor(GetParam(), Direction::Push,
                                      true));
    EXPECT_LT(dynamic.footprintBytes(Algorithm::Sssp),
              stored.footprintBytes(Algorithm::Sssp));
}

INSTANTIATE_TEST_SUITE_P(
    VirtualStrategies, DynamicMapping,
    ::testing::Values(Strategy::TigrV, Strategy::TigrVPlus),
    [](const auto &info) {
        return info.param == Strategy::TigrV ? "tigr_v" : "tigr_v_plus";
    });

TEST(DynamicMapping, RefusedForNonVirtualStrategies)
{
    graph::Csr g = weightedGraph(72);
    for (Strategy s : {Strategy::Baseline, Strategy::TigrUdt,
                       Strategy::MaximumWarp, Strategy::Cusha,
                       Strategy::Gunrock}) {
        EXPECT_THROW(
            GraphEngine(g, optionsFor(s, Direction::Push, true)),
            std::invalid_argument)
            << strategyName(s);
    }
}

TEST(DynamicProvider, EnumeratesExactlyTheStoredUnits)
{
    graph::Csr g = weightedGraph(73);
    for (auto layout : {transform::EdgeLayout::Consecutive,
                        transform::EdgeLayout::Coalesced}) {
        Schedule schedule = Schedule::build(
            g,
            layout == transform::EdgeLayout::Coalesced
                ? Strategy::TigrVPlus
                : Strategy::TigrV,
            8);
        FamilyProvider provider(CsrSide{&g}, 8, layout);
        std::vector<WorkUnit> streamed;
        provider.forEachUnit(
            [&](const WorkUnit &u) { streamed.push_back(u); });
        ASSERT_EQ(streamed.size(), schedule.numUnits());
        for (std::size_t i = 0; i < streamed.size(); ++i) {
            const WorkUnit &a = streamed[i];
            const WorkUnit &b = schedule.allUnits()[i];
            EXPECT_EQ(a.valueNode, b.valueNode);
            EXPECT_EQ(a.start, b.start);
            EXPECT_EQ(a.stride, b.stride);
            EXPECT_EQ(a.count, b.count);
        }
    }
}

TEST(PullMode, PullIterationsIndependentOfWorklistFlag)
{
    // Pull has no worklist; the flag must not change anything.
    graph::Csr g = weightedGraph(74);
    EngineOptions with = optionsFor(Strategy::TigrVPlus,
                                    Direction::Pull, false);
    EngineOptions without = with;
    without.worklist = false;
    auto a = GraphEngine(g, with).sssp(0);
    auto b = GraphEngine(g, without).sssp(0);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.info.stats.cycles, b.info.stats.cycles);
}

} // namespace
} // namespace tigr::engine
