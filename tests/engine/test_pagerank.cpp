/**
 * @file
 * PageRank through the shared loop (engine/pagerank.hpp), on both
 * edge sources — GraphEngine over a dense CSR and over a
 * DynamicGraph's slack arenas — in push and pull direction:
 *
 *  - ranks, simulator counters and per-iteration trace events are
 *    bit-identical at 1, 2 and 8 host threads, and equal to charging a
 *    freshly simulated launch every iteration;
 *  - a cancel hook firing at iteration k leaves exactly k launches
 *    charged, and sees the cycles of the completed iterations;
 *  - the epsilon early exit stops at the same round, with the same
 *    ranks, as a run capped at that many rounds.
 */
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"
#include "ref/oracles.hpp"

namespace tigr::engine {
namespace {

graph::Csr
testGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 9;
    options.weightSeed = 5;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 700, .edges = 9000, .seed = 31}));
}

enum class Kind
{
    Dense,
    Arena,
};

/** One PR run's observable output. */
struct Observed
{
    RanksResult result;
    std::vector<obs::TraceEvent> events;
    std::string trace;
};

/** Runs PR on either edge source of one graph; the arena side keeps
 *  its DynamicGraph and maintained virtualizers alive. */
class Runner
{
  public:
    Runner(const graph::Csr &graph, Kind kind, Strategy strategy,
           Direction direction)
        : graph_(graph), kind_(kind), dynamic_(graph)
    {
        options_.strategy = strategy;
        options_.direction = direction;
        options_.degreeBound = 4;
        if (kind == Kind::Arena) {
            const auto layout = strategy == Strategy::TigrVPlus
                                    ? transform::EdgeLayout::Coalesced
                                    : transform::EdgeLayout::Consecutive;
            forward_.emplace(dynamic_, 4, layout,
                             dynamic::StartAddressing::Arena, nullptr,
                             dynamic::GraphSide::Out);
            reverse_.emplace(dynamic_, 4, layout,
                             dynamic::StartAddressing::Arena, nullptr,
                             dynamic::GraphSide::In);
        }
    }

    Observed
    run(unsigned threads, const PageRankOptions &pr,
        CancelCheck cancel = nullptr)
    {
        EngineOptions options = options_;
        options.threads = threads;
        options.cancel = std::move(cancel);
        obs::TraceSink sink;
        options.trace = &sink;
        Observed out;
        if (kind_ == Kind::Dense) {
            GraphEngine engine(graph_, options);
            out.result = engine.pagerank(pr);
        } else {
            GraphEngine engine(dynamic_, &*forward_, &*reverse_, options);
            out.result = engine.pagerank(pr);
        }
        out.events = sink.events();
        out.trace = obs::formatTrace(sink);
        return out;
    }

  private:
    const graph::Csr &graph_;
    Kind kind_;
    EngineOptions options_;
    dynamic::DynamicGraph dynamic_;
    std::optional<dynamic::IncrementalVirtualizer> forward_;
    std::optional<dynamic::IncrementalVirtualizer> reverse_;
};

using Case = std::tuple<Kind, Strategy, Direction>;

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << (std::get<0>(c) == Kind::Dense ? "dense " : "arena ")
        << strategyName(std::get<1>(c))
        << (std::get<2>(c) == Direction::Push ? " push" : " pull");
}

class PageRankLoop : public ::testing::TestWithParam<Case>
{
  protected:
    Runner
    runner(const graph::Csr &graph) const
    {
        const auto [kind, strategy, direction] = GetParam();
        return Runner(graph, kind, strategy, direction);
    }
};

TEST_P(PageRankLoop, BitIdenticalAcrossThreadCounts)
{
    const graph::Csr graph = testGraph();
    Runner r = runner(graph);
    const PageRankOptions pr{.damping = 0.85, .iterations = 12};
    const Observed serial = r.run(1, pr);
    ASSERT_EQ(serial.result.info.iterations, 12u);
    EXPECT_FALSE(serial.result.info.cancelled);

    const std::vector<Rank> oracle = ref::pageRank(
        graph, {.damping = 0.85, .iterations = 12});
    ASSERT_EQ(serial.result.values.size(), oracle.size());
    for (std::size_t v = 0; v < oracle.size(); ++v)
        EXPECT_NEAR(serial.result.values[v], oracle[v], 1e-9) << v;

    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const Observed pooled = r.run(threads, pr);
        EXPECT_EQ(pooled.result.values, serial.result.values);
        EXPECT_EQ(pooled.result.info.stats, serial.result.info.stats);
        EXPECT_EQ(pooled.result.info.iterations,
                  serial.result.info.iterations);
        EXPECT_EQ(pooled.trace, serial.trace);
    }
}

TEST_P(PageRankLoop, EveryIterationChargesTheSameLaunch)
{
    // One round charges one launch L; n rounds must charge exactly
    // n * L — what re-simulating the unchanged launch every round
    // would — and every Iteration event must carry L's deltas.
    const graph::Csr graph = testGraph();
    Runner r = runner(graph);
    const Observed one = r.run(1, {.damping = 0.85, .iterations = 1});
    const Observed many = r.run(1, {.damping = 0.85, .iterations = 7});
    sim::KernelStats expected;
    for (int i = 0; i < 7; ++i)
        expected += one.result.info.stats;
    EXPECT_EQ(many.result.info.stats, expected);
    EXPECT_EQ(many.result.info.stats.launches, 7u);

    const sim::KernelStats &launch = one.result.info.stats;
    unsigned iterations = 0;
    for (const obs::TraceEvent &event : many.events) {
        if (event.kind != obs::EventKind::Iteration)
            continue;
        ++iterations;
        EXPECT_EQ(event.arg[0], iterations);
        EXPECT_EQ(event.tick, iterations * launch.cycles);
        EXPECT_EQ(event.arg[4], launch.cycles);
        EXPECT_EQ(event.arg[5], launch.instructions);
        EXPECT_EQ(event.arg[6], launch.laneSlots);
        EXPECT_EQ(event.arg[7], launch.memTransactions);
    }
    EXPECT_EQ(iterations, 7u);
}

TEST_P(PageRankLoop, CancelAtIterationKChargesKLaunches)
{
    const graph::Csr graph = testGraph();
    Runner r = runner(graph);
    const PageRankOptions pr{.damping = 0.85, .iterations = 10};
    const Observed one = r.run(1, {.damping = 0.85, .iterations = 1});
    const std::uint64_t launch_cycles = one.result.info.stats.cycles;
    for (unsigned k : {0u, 1u, 4u}) {
        SCOPED_TRACE("k = " + std::to_string(k));
        std::vector<std::uint64_t> seen;
        const Observed cancelled =
            r.run(1, pr, [&](unsigned iterations, std::uint64_t cycles) {
                EXPECT_EQ(cycles, iterations * launch_cycles);
                seen.push_back(cycles);
                return iterations >= k;
            });
        const RunInfo &info = cancelled.result.info;
        EXPECT_TRUE(info.cancelled);
        EXPECT_FALSE(info.converged);
        EXPECT_EQ(info.iterations, k);
        EXPECT_EQ(info.stats.launches, k);
        EXPECT_EQ(info.stats.cycles, k * launch_cycles);
        EXPECT_EQ(seen.size(), k + 1);
        // The ranks are the state after k rounds.
        const Observed capped =
            r.run(1, {.damping = 0.85, .iterations = k});
        EXPECT_EQ(cancelled.result.values, capped.result.values);
    }
}

TEST_P(PageRankLoop, EpsilonStopsEarlyAtTheSameRound)
{
    const graph::Csr graph = testGraph();
    Runner r = runner(graph);
    const Observed early = r.run(
        1, {.damping = 0.85, .iterations = 200, .epsilon = 1e-6});
    const unsigned rounds = early.result.info.iterations;
    EXPECT_GT(rounds, 1u);
    EXPECT_LT(rounds, 200u);
    EXPECT_FALSE(early.result.info.cancelled);
    const Observed capped =
        r.run(1, {.damping = 0.85, .iterations = rounds});
    EXPECT_EQ(early.result.values, capped.result.values);
    EXPECT_EQ(early.result.info.stats, capped.result.info.stats);
    const Observed pooled = r.run(
        8, {.damping = 0.85, .iterations = 200, .epsilon = 1e-6});
    EXPECT_EQ(pooled.result.info.iterations, rounds);
    EXPECT_EQ(pooled.result.values, early.result.values);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PageRankLoop,
    ::testing::Combine(::testing::Values(Kind::Dense, Kind::Arena),
                       ::testing::Values(Strategy::TigrV,
                                         Strategy::TigrVPlus),
                       ::testing::Values(Direction::Push,
                                         Direction::Pull)),
    [](const ::testing::TestParamInfo<Case> &info) {
        return std::string(std::get<0>(info.param) == Kind::Dense
                               ? "dense"
                               : "arena") +
               (std::get<1>(info.param) == Strategy::TigrV
                    ? "_tigrv"
                    : "_tigrvplus") +
               (std::get<2>(info.param) == Direction::Push ? "_push"
                                                           : "_pull");
    });

TEST(PageRankLoop, ArenaRanksMatchDenseRanks)
{
    const graph::Csr graph = testGraph();
    for (Direction direction : {Direction::Push, Direction::Pull}) {
        Runner dense(graph, Kind::Dense, Strategy::TigrVPlus, direction);
        Runner arena(graph, Kind::Arena, Strategy::TigrVPlus, direction);
        const PageRankOptions pr{.damping = 0.85, .iterations = 9};
        EXPECT_EQ(dense.run(1, pr).result.values,
                  arena.run(2, pr).result.values);
    }
}

TEST(PageRankLoop, CushaPullsWithoutScatterAtAnyThreadCount)
{
    // CuSha PR is pull by construction and charges no scattered value
    // traffic; the shared loop must keep both properties.
    const graph::Csr graph = testGraph();
    Runner r(graph, Kind::Dense, Strategy::Cusha, Direction::Push);
    const PageRankOptions pr{.damping = 0.85, .iterations = 6};
    const Observed serial = r.run(1, pr);
    const Observed pooled = r.run(8, pr);
    EXPECT_EQ(serial.result.values, pooled.result.values);
    EXPECT_EQ(serial.result.info.stats, pooled.result.info.stats);
    EXPECT_EQ(serial.trace, pooled.trace);
    EXPECT_LT(serial.result.info.stats.valueTransactions,
              serial.result.info.stats.memAccesses);
}

} // namespace
} // namespace tigr::engine
