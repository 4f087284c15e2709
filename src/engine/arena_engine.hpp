/**
 * @file
 * ArenaEngine: GraphEngine's analyses served straight off a mutated
 * DynamicGraph — push over the forward slack arena, pull over the
 * mirrored reverse arena — with no dense toCsr()/reversed()
 * materialization anywhere on the mutate→query path.
 *
 * Value bit-identity with GraphEngine over the dense rebuild holds by
 * construction: both enumerate the same work units in the same order
 * (a family is a pure function of (segment begin, degree, K, layout)
 * and arena units visit the same (source, target, weight) triples),
 * both chunk by par::kDefaultGrain over the same unit counts, and both
 * merge per-chunk logs serially in chunk order. Only arena slot
 * numbers differ, which the warp simulator's coalescing counters may
 * observe (stats.cycles) but values, digests, iteration counts and
 * convergence never do.
 */
#pragma once

#include <memory>
#include <span>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/graph_engine.hpp"

namespace tigr::engine {

/**
 * Vertex-centric analytics over a DynamicGraph's slack arenas.
 *
 * Only the virtual strategies (TigrV / TigrV+) are supported — they
 * are the ones whose decomposition is recomputable from arena geometry
 * alone. The graph and the optional maintained virtualizers are kept
 * by reference and must outlive the engine; a maintained virtualizer
 * is used when its (K, layout, side) matches the options (the
 * incremental O(touched) repair the arena exists for), and the engine
 * falls back to on-the-fly family enumeration otherwise — the two are
 * unobservable-identical, simulator counters included.
 */
class ArenaEngine
{
  public:
    /**
     * @param graph Mutated dynamic graph (kept by reference).
     * @param forward_virt Maintained Out-side arena virtualizer, or
     *        nullptr to enumerate forward families on the fly.
     * @param reverse_virt Maintained In-side arena virtualizer, or
     *        nullptr to enumerate reverse families on the fly.
     * @param options Strategy and tuning; must be TigrV or TigrV+.
     */
    ArenaEngine(const dynamic::DynamicGraph &graph,
                const dynamic::IncrementalVirtualizer *forward_virt,
                const dynamic::IncrementalVirtualizer *reverse_virt,
                EngineOptions options = {});

    ~ArenaEngine();
    ArenaEngine(const ArenaEngine &) = delete;
    ArenaEngine &operator=(const ArenaEngine &) = delete;

    const dynamic::DynamicGraph &graph() const { return graph_; }

    const EngineOptions &options() const { return options_; }

    /** Host threads the engine actually runs with. */
    unsigned hostThreads() const;

    DistancesResult sssp(NodeId source);

    DistancesResult bfs(NodeId source);

    WidthsResult sswp(NodeId source);

    LabelsResult cc();

    RanksResult pagerank(const PageRankOptions &pr_options = {});

    CentralityResult bc(std::span<const NodeId> sources);

  private:
    /** True when the maintained virtualizer of @p side matches the
     *  options and can serve enumeration. */
    bool maintainedUsable(dynamic::GraphSide side) const;

    /** Live unit count of @p side at the engine's (K, layout). */
    std::uint64_t unitCount(dynamic::GraphSide side) const;

    /** Side an algorithm's unit enumeration runs over. */
    dynamic::GraphSide
    runSide() const
    {
        return options_.direction == Direction::Pull
                   ? dynamic::GraphSide::In
                   : dynamic::GraphSide::Out;
    }

    PushOptions pushOptions() const;

    template <typename Semiring>
    PushOutcome<Semiring>
    runSemiring(std::span<const std::pair<
                    NodeId, typename Semiring::Value>> seeds,
                bool all_active, bool unit_weights);

    void fillRunInfo(RunInfo &info, dynamic::GraphSide side,
                     Algorithm algorithm) const;

    void traceRunBegin(Algorithm algorithm, dynamic::GraphSide side);
    void traceRunEnd(const RunInfo &info);

    /** Invoke @p fn with the best provider of @p side: maintained when
     *  usable, on-the-fly otherwise. */
    template <typename Fn>
    decltype(auto) withProvider(dynamic::GraphSide side, Fn &&fn);

    const dynamic::DynamicGraph &graph_;
    const dynamic::IncrementalVirtualizer *forwardVirt_;
    const dynamic::IncrementalVirtualizer *reverseVirt_;
    EngineOptions options_;
    transform::EdgeLayout layout_;
    sim::WarpSimulator sim_;
    std::unique_ptr<par::ThreadPool> pool_;
    std::uint64_t tracedCycles_ = 0;
};

} // namespace tigr::engine
