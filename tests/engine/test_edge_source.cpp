/**
 * @file
 * GraphEngine over its two edge sources: a mutated DynamicGraph's slack
 * arenas against the dense rebuild (toCsr()), for all six analyses,
 * push and pull, TigrV and TigrV+, at 1, 2 and 8 host threads.
 *
 *  - Values, iterations, convergence, peak frontier and sparse
 *    iterations equal the dense engine's.
 *  - The maintained arena virtualizers and on-the-fly families (null
 *    virtualizers) give equal simulator counters and equal trace
 *    events; only the Transform event's reuse flag and transformCached
 *    tell them apart.
 *  - What an arena engine cannot serve throws: triangles() and every
 *    non-virtual strategy.
 */
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace tigr::engine {
namespace {

constexpr NodeId kDegreeBound = 4;
constexpr NodeId kSource = 3;

/** A directed weighted graph after three mixed mutation batches, with
 *  both maintained arena virtualizers repaired through every batch. */
class MutatedGraph
{
  public:
    explicit MutatedGraph(Strategy strategy)
        : graph_(initial()),
          forward_(graph_, kDegreeBound, layoutOf(strategy),
                   dynamic::StartAddressing::Arena, nullptr,
                   dynamic::GraphSide::Out),
          reverse_(graph_, kDegreeBound, layoutOf(strategy),
                   dynamic::StartAddressing::Arena, nullptr,
                   dynamic::GraphSide::In)
    {
        dynamic::GeneratorSpec spec{.seed = 0, .inserts = 80,
                                    .deletes = 40, .reweights = 30};
        for (std::uint64_t round = 0; round < 3; ++round) {
            spec.seed = 500 + round;
            const dynamic::EpochDelta delta =
                graph_.apply(dynamic::generateBatch(graph_, spec));
            forward_.applyDelta(delta);
            reverse_.applyDelta(delta);
        }
        dense_ = graph_.toCsr();
    }

    const dynamic::DynamicGraph &graph() const { return graph_; }
    const dynamic::IncrementalVirtualizer *forward() const
    {
        return &forward_;
    }
    const dynamic::IncrementalVirtualizer *reverse() const
    {
        return &reverse_;
    }
    const graph::Csr &dense() const { return dense_; }

  private:
    static transform::EdgeLayout
    layoutOf(Strategy strategy)
    {
        return strategy == Strategy::TigrVPlus
                   ? transform::EdgeLayout::Coalesced
                   : transform::EdgeLayout::Consecutive;
    }

    static graph::Csr
    initial()
    {
        graph::BuildOptions options;
        options.randomizeWeights = true;
        options.maxWeight = 30;
        options.weightSeed = 19;
        return graph::GraphBuilder(options).build(
            graph::rmat({.nodes = 360, .edges = 4000, .seed = 19}));
    }

    dynamic::DynamicGraph graph_;
    dynamic::IncrementalVirtualizer forward_;
    dynamic::IncrementalVirtualizer reverse_;
    graph::Csr dense_;
};

/** One analysis's observable output. */
struct Observed
{
    /** The values, bit for bit. */
    std::vector<std::uint64_t> bits;
    RunInfo info;
    std::vector<obs::TraceEvent> events;
};

template <typename T>
std::vector<std::uint64_t>
bitsOf(const std::vector<T> &values)
{
    std::vector<std::uint64_t> bits;
    bits.reserve(values.size());
    for (const T &value : values) {
        std::uint64_t b = 0;
        std::memcpy(&b, &value, sizeof value);
        bits.push_back(b);
    }
    return bits;
}

Observed
observe(GraphEngine &engine, Algorithm algorithm,
        const obs::TraceSink &sink)
{
    Observed out;
    auto take = [&out](const auto &result) {
        out.bits = bitsOf(result.values);
        out.info = result.info;
    };
    switch (algorithm) {
      case Algorithm::Bfs: take(engine.bfs(kSource)); break;
      case Algorithm::Sssp: take(engine.sssp(kSource)); break;
      case Algorithm::Sswp: take(engine.sswp(kSource)); break;
      case Algorithm::Cc: take(engine.cc()); break;
      case Algorithm::Pr: take(engine.pagerank()); break;
      case Algorithm::Bc: {
        const NodeId sources[] = {kSource, 11};
        take(engine.bc(sources));
        break;
      }
    }
    out.events = sink.events();
    return out;
}

/** Formatted trace with the Transform event's reuse flag cleared: the
 *  one field where maintained and on-the-fly families may differ. */
std::string
traceWithoutReuse(std::vector<obs::TraceEvent> events)
{
    std::string out;
    for (obs::TraceEvent &event : events) {
        if (event.kind == obs::EventKind::Transform)
            event.arg[0] = 0;
        out += obs::formatEvent(event) + '\n';
    }
    return out;
}

constexpr Algorithm kAnalyses[] = {Algorithm::Bfs, Algorithm::Sssp,
                                   Algorithm::Sswp, Algorithm::Cc,
                                   Algorithm::Pr, Algorithm::Bc};

class ArenaSource
    : public ::testing::TestWithParam<std::tuple<Strategy, Direction>>
{
  protected:
    EngineOptions
    options(unsigned threads, obs::TraceSink &sink) const
    {
        EngineOptions options;
        options.strategy = std::get<0>(GetParam());
        options.direction = std::get<1>(GetParam());
        options.degreeBound = kDegreeBound;
        options.threads = threads;
        options.trace = &sink;
        return options;
    }
};

TEST_P(ArenaSource, MatchesDenseRebuild)
{
    const MutatedGraph mutated(std::get<0>(GetParam()));
    for (const Algorithm algorithm : kAnalyses) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE(std::string(algorithmName(algorithm)) + " at " +
                         std::to_string(threads) + " threads");
            obs::TraceSink dense_sink;
            GraphEngine dense(mutated.dense(),
                              options(threads, dense_sink));
            const Observed want = observe(dense, algorithm, dense_sink);

            obs::TraceSink arena_sink;
            GraphEngine arena(mutated.graph(), mutated.forward(),
                              mutated.reverse(),
                              options(threads, arena_sink));
            const Observed got = observe(arena, algorithm, arena_sink);

            EXPECT_EQ(got.bits, want.bits);
            EXPECT_EQ(got.info.iterations, want.info.iterations);
            EXPECT_EQ(got.info.converged, want.info.converged);
            EXPECT_EQ(got.info.peakFrontier, want.info.peakFrontier);
            EXPECT_EQ(got.info.sparseIterations,
                      want.info.sparseIterations);
            EXPECT_EQ(got.info.transformMs, 0.0);
        }
    }
}

TEST_P(ArenaSource, MaintainedAndOnTheFlyFamiliesAgree)
{
    const MutatedGraph mutated(std::get<0>(GetParam()));
    for (const Algorithm algorithm : kAnalyses) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            SCOPED_TRACE(std::string(algorithmName(algorithm)) + " at " +
                         std::to_string(threads) + " threads");
            obs::TraceSink maintained_sink;
            GraphEngine maintained_engine(
                mutated.graph(), mutated.forward(), mutated.reverse(),
                options(threads, maintained_sink));
            const Observed maintained =
                observe(maintained_engine, algorithm, maintained_sink);

            obs::TraceSink fly_sink;
            GraphEngine fly_engine(mutated.graph(), nullptr, nullptr,
                                   options(threads, fly_sink));
            const Observed fly = observe(fly_engine, algorithm, fly_sink);

            EXPECT_EQ(fly.bits, maintained.bits);
            EXPECT_EQ(fly.info.stats, maintained.info.stats);
            EXPECT_EQ(fly.info.footprintBytes,
                      maintained.info.footprintBytes);
            EXPECT_TRUE(maintained.info.transformCached);
            EXPECT_FALSE(fly.info.transformCached);
            EXPECT_EQ(traceWithoutReuse(fly.events),
                      traceWithoutReuse(maintained.events));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    VirtualStrategies, ArenaSource,
    ::testing::Combine(::testing::Values(Strategy::TigrV,
                                         Strategy::TigrVPlus),
                       ::testing::Values(Direction::Push,
                                         Direction::Pull)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == Strategy::TigrV
                               ? "TigrV"
                               : "TigrVPlus") +
               (std::get<1>(info.param) == Direction::Push ? "_push"
                                                           : "_pull");
    });

TEST(ArenaSourceGuards, RefusesWhatNeedsDenseRows)
{
    const MutatedGraph mutated(Strategy::TigrVPlus);
    GraphEngine engine(mutated.graph(), mutated.forward(),
                       mutated.reverse());
    EXPECT_THROW(engine.triangles(), std::invalid_argument);
    for (const Strategy strategy :
         {Strategy::Baseline, Strategy::TigrUdt, Strategy::MaximumWarp,
          Strategy::Cusha, Strategy::Gunrock}) {
        EngineOptions options;
        options.strategy = strategy;
        EXPECT_THROW(GraphEngine(mutated.graph(), mutated.forward(),
                                 mutated.reverse(), options),
                     std::invalid_argument)
            << strategyName(strategy);
    }
}

} // namespace
} // namespace tigr::engine
