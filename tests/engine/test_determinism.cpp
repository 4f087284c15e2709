/**
 * @file
 * The determinism contract, executed: every strategy × frontier mode ×
 * analysis triple must produce bit-identical values, iteration counts,
 * convergence flags, and simulator counters at 1, 2, and 8 host
 * threads — on a skewed RMAT graph and on a star-heavy graph whose hub
 * makes chunk boundaries cut through one node's units. See
 * docs/parallelism.md for why this holds by construction.
 */
#include <cstdint>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace tigr::engine {
namespace {

graph::Csr
rmatGraph(std::uint64_t seed)
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 24;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 600, .edges = 6000, .seed = seed}));
}

/** A few hubs of outdegree ~1000 over a sparse ring: the hub families
 *  span many work units, so fixed-grain chunks split single nodes. */
graph::Csr
starHeavyGraph()
{
    const NodeId n = 1500;
    graph::CooEdges coo(n);
    for (NodeId v = 0; v < n; ++v)
        coo.add(v, (v + 1) % n, 1 + v % 7);
    for (NodeId hub : {NodeId{0}, NodeId{7}, NodeId{800}})
        for (NodeId v = 0; v < 1000; ++v)
            if (v != hub)
                coo.add(hub, (v * 13 + 5) % n, 1 + v % 11);
    return graph::GraphBuilder(graph::BuildOptions{}).build(std::move(coo));
}

EngineOptions
optionsFor(Strategy strategy,
           FrontierMode frontier = FrontierMode::Adaptive)
{
    EngineOptions options;
    options.strategy = strategy;
    options.degreeBound = 8;
    options.udtBound = 16;
    options.mwVirtualWarp = 4;
    options.frontier = frontier;
    return options;
}

/** Run @p run at 1 thread, then insist 2 and 8 threads replay it. */
template <typename Run>
void
expectThreadCountInvariant(const graph::Csr &g, EngineOptions base,
                           Run &&run)
{
    base.threads = 1;
    GraphEngine sequential(g, base);
    const auto expected = run(sequential);
    ASSERT_EQ(sequential.hostThreads(), 1u);

    for (unsigned threads : {2u, 8u}) {
        EngineOptions options = base;
        options.threads = threads;
        GraphEngine parallel(g, options);
        EXPECT_EQ(parallel.hostThreads(), threads);
        const auto got = run(parallel);
        EXPECT_EQ(got.values, expected.values)
            << threads << " threads";
        EXPECT_EQ(got.info.iterations, expected.info.iterations)
            << threads << " threads";
        EXPECT_EQ(got.info.converged, expected.info.converged)
            << threads << " threads";
        EXPECT_TRUE(got.info.stats == expected.info.stats)
            << threads << " threads: simulator counters diverged";
    }
}

class DeterminismMatrix
    : public ::testing::TestWithParam<std::tuple<Strategy, FrontierMode>>
{
  protected:
    void
    runAll(const graph::Csr &g)
    {
        const auto [strategy, frontier] = GetParam();
        expectThreadCountInvariant(
            g, optionsFor(strategy, frontier),
            [](GraphEngine &e) { return e.bfs(0); });
        expectThreadCountInvariant(
            g, optionsFor(strategy, frontier),
            [](GraphEngine &e) { return e.sssp(0); });
        expectThreadCountInvariant(
            g, optionsFor(strategy, frontier),
            [](GraphEngine &e) { return e.sswp(0); });
        expectThreadCountInvariant(
            g, optionsFor(strategy, frontier),
            [](GraphEngine &e) { return e.cc(); });
        if (strategy != Strategy::TigrUdt) {
            expectThreadCountInvariant(
                g, optionsFor(strategy, frontier), [](GraphEngine &e) {
                    return e.pagerank({.iterations = 10});
                });
        }
    }
};

TEST_P(DeterminismMatrix, RmatGraph) { runAll(rmatGraph(77)); }

TEST_P(DeterminismMatrix, StarHeavyGraph) { runAll(starHeavyGraph()); }

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, DeterminismMatrix,
    ::testing::Combine(::testing::ValuesIn(kAllStrategies),
                       ::testing::ValuesIn(kAllFrontierModes)),
    [](const ::testing::TestParamInfo<
        std::tuple<Strategy, FrontierMode>> &info) {
        std::string name{strategyName(std::get<0>(info.param))};
        for (char &c : name)
            if (c == '-' || c == '+')
                c = c == '-' ? '_' : 'p';
        name += '_';
        name += frontierModeName(std::get<1>(info.param));
        return name;
    });

TEST(Determinism, ValuesIdenticalAcrossFrontierModes)
{
    // The modes must agree not only at every thread count but with
    // each other: identical values, iteration counts, and peak
    // frontier (the sparse/dense enumeration launches the same units).
    graph::Csr g = rmatGraph(83);
    for (Strategy strategy :
         {Strategy::Baseline, Strategy::TigrVPlus, Strategy::Gunrock}) {
        EngineOptions dense = optionsFor(strategy, FrontierMode::Dense);
        GraphEngine dense_engine(g, dense);
        const auto expected_sssp = dense_engine.sssp(0);
        const auto expected_cc = dense_engine.cc();
        for (FrontierMode mode :
             {FrontierMode::Sparse, FrontierMode::Adaptive}) {
            GraphEngine engine(g, optionsFor(strategy, mode));
            const auto sssp = engine.sssp(0);
            EXPECT_EQ(sssp.values, expected_sssp.values)
                << strategyName(strategy) << " "
                << frontierModeName(mode);
            EXPECT_EQ(sssp.info.iterations,
                      expected_sssp.info.iterations);
            EXPECT_EQ(sssp.info.peakFrontier,
                      expected_sssp.info.peakFrontier);
            const auto cc = engine.cc();
            EXPECT_EQ(cc.values, expected_cc.values);
            EXPECT_EQ(cc.info.iterations, expected_cc.info.iterations);
        }
    }
}

TEST(Determinism, StrictBspMode)
{
    graph::Csr g = rmatGraph(78);
    EngineOptions options = optionsFor(Strategy::TigrVPlus);
    options.syncRelaxation = false;
    expectThreadCountInvariant(
        g, options, [](GraphEngine &e) { return e.sssp(0); });
}

TEST(Determinism, NoWorklistMode)
{
    graph::Csr g = rmatGraph(79);
    EngineOptions options = optionsFor(Strategy::TigrV);
    options.worklist = false;
    expectThreadCountInvariant(
        g, options, [](GraphEngine &e) { return e.sssp(0); });
}

TEST(Determinism, PullDirection)
{
    graph::Csr g = rmatGraph(80);
    EngineOptions options = optionsFor(Strategy::TigrVPlus);
    options.direction = Direction::Pull;
    expectThreadCountInvariant(
        g, options, [](GraphEngine &e) { return e.bfs(0); });
    expectThreadCountInvariant(
        g, options, [](GraphEngine &e) { return e.sssp(0); });
}

TEST(Determinism, DynamicMapping)
{
    graph::Csr g = starHeavyGraph();
    EngineOptions options = optionsFor(Strategy::TigrVPlus);
    options.dynamicMapping = true;
    expectThreadCountInvariant(
        g, options, [](GraphEngine &e) { return e.sssp(0); });
    expectThreadCountInvariant(g, options, [](GraphEngine &e) {
        return e.pagerank({.iterations = 6});
    });
}

TEST(Determinism, TrianglesAndBc)
{
    // Neither is in the five-algorithm matrix, but both got parallel
    // passes — pin them the same way on the symmetric-ish ring.
    graph::CooEdges coo = graph::rmat(
        {.nodes = 300, .edges = 2400, .seed = 81});
    coo.symmetrize();
    graph::Csr g = graph::GraphBuilder(graph::BuildOptions{}).build(std::move(coo));

    EngineOptions base = optionsFor(Strategy::TigrVPlus);
    base.threads = 1;
    GraphEngine sequential(g, base);
    const auto tri = sequential.triangles();
    const NodeId sources[] = {0, 3, 9};
    const auto bc = sequential.bc(sources);

    for (unsigned threads : {2u, 8u}) {
        EngineOptions options = base;
        options.threads = threads;
        GraphEngine parallel(g, options);
        const auto tri_par = parallel.triangles();
        EXPECT_EQ(tri_par.total, tri.total) << threads << " threads";
        EXPECT_EQ(tri_par.perNode, tri.perNode)
            << threads << " threads";
        EXPECT_TRUE(tri_par.info.stats == tri.info.stats);
        const auto bc_par = parallel.bc(sources);
        EXPECT_EQ(bc_par.values, bc.values) << threads << " threads";
        EXPECT_TRUE(bc_par.info.stats == bc.info.stats);
    }
}

/** FNV-1a over the bytes of @p values and every simulator counter. */
template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values, const sim::KernelStats &stats)
{
    std::uint64_t hash = 1469598103934665603ULL;
    auto mix = [&](const void *data, std::size_t size) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= bytes[i];
            hash *= 1099511628211ULL;
        }
    };
    mix(values.data(), values.size() * sizeof(T));
    for (std::uint64_t counter :
         {stats.launches, stats.threads, stats.warps, stats.cycles,
          stats.instructions, stats.laneSlots, stats.memTransactions,
          stats.memAccesses, stats.valueTransactions,
          stats.busiestSmCycles, stats.totalSmCycles})
        mix(&counter, sizeof counter);
    return hash;
}

TEST(Determinism, UdtSplitsAndSortedRowsKeepTheirCooBuiltResults)
{
    // The digests were recorded when the UDT split, TigrUdt's
    // unit-weight copy and the row-sorted triangle copy were built
    // through COO lists and Csr::fromCoo. The direct CSR builds must
    // leave every value and simulator counter where it was, on a graph
    // big enough for their row passes to cut several chunks.
    graph::BuildOptions build;
    build.randomizeWeights = true;
    build.maxWeight = 24;
    build.weightSeed = 83;
    graph::CooEdges coo =
        graph::rmat({.nodes = 4096, .edges = 30000, .seed = 83});
    const graph::Csr g = graph::GraphBuilder(build).build(coo);
    coo.symmetrize();
    const graph::Csr sym = graph::GraphBuilder(build).build(coo);

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << threads << " threads");
        EngineOptions options = optionsFor(Strategy::TigrUdt);
        options.threads = threads;
        GraphEngine udt(g, options);
        const auto bfs = udt.bfs(0);
        EXPECT_EQ(digestOf(bfs.values, bfs.info.stats),
                  15105204225631999646ULL);
        const auto sssp = udt.sssp(0);
        EXPECT_EQ(digestOf(sssp.values, sssp.info.stats),
                  15882806282067021064ULL);

        options = optionsFor(Strategy::TigrVPlus);
        options.threads = threads;
        GraphEngine virt(sym, options);
        const auto tri = virt.triangles();
        EXPECT_EQ(tri.total, 432680u);
        EXPECT_EQ(digestOf(tri.perNode, tri.info.stats),
                  7847126295847559860ULL);
    }
}

TEST(Determinism, ZeroThreadsResolvesThroughEnv)
{
    graph::Csr g = rmatGraph(82);
    ASSERT_EQ(setenv("TIGR_THREADS", "3", 1), 0);
    {
        GraphEngine engine(g, optionsFor(Strategy::TigrVPlus));
        EXPECT_EQ(engine.hostThreads(), 3u);
    }
    ASSERT_EQ(unsetenv("TIGR_THREADS"), 0);
    EngineOptions two = optionsFor(Strategy::TigrVPlus);
    two.threads = 2;
    GraphEngine engine(g, two);
    EXPECT_EQ(engine.hostThreads(), 2u);
    // And the env-resolved engine computed the same answer.
    EngineOptions one = optionsFor(Strategy::TigrVPlus);
    one.threads = 1;
    GraphEngine seq(g, one);
    EXPECT_EQ(engine.sssp(4).values, seq.sssp(4).values);
}

} // namespace
} // namespace tigr::engine
