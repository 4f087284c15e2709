/**
 * @file
 * GraphEngine: the public entry point of the Tigr library.
 *
 * Construct one over an edge source with an EngineOptions (which picks
 * the scheduling strategy — baseline, Tigr physical/virtual, or one of
 * the modeled competing frameworks) and call the analysis you need.
 * The source is a CSR graph, or a mutated DynamicGraph whose slack
 * arenas the virtual strategies read in place (push over the forward
 * arena, pull over the reverse one), with no dense materialization.
 * Over a CSR the engine lazily builds and caches whatever the strategy
 * requires (UDT transformed graphs per weight policy, virtual node
 * arrays, reversed graphs for pull); every analysis body is the same
 * for both sources. Per-run simulator counters come back alongside
 * the results.
 */
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "engine/push_engine.hpp"
#include "engine/schedule.hpp"
#include "engine/strategy.hpp"
#include "graph/csr.hpp"
#include "par/thread_pool.hpp"

namespace tigr::dynamic {
class DynamicGraph;
class IncrementalVirtualizer;
} // namespace tigr::dynamic

namespace tigr::engine {

/** Execution metadata attached to every analysis result. */
struct RunInfo
{
    /** BSP iterations (or rounds/levels for PR/BC) executed. */
    unsigned iterations = 0;
    /** True when the analysis converged before the iteration cap. */
    bool converged = true;
    /** True when EngineOptions::cancel stopped the analysis early (the
     *  service layer's deadline-exceeded signal); the values are the
     *  well-defined state after the completed iterations. */
    bool cancelled = false;
    /** Aggregated simulator counters. */
    sim::KernelStats stats;
    /** Host milliseconds spent building the strategy's structures
     *  (UDT graph or virtual node array); 0 for the baseline. Cached
     *  structures report their original build time — check
     *  transformCached before charging it to a run. */
    double transformMs = 0.0;
    /** True when this run reused structures built by an earlier run
     *  (transformMs then repeats the original build cost and must not
     *  be double-counted). */
    bool transformCached = false;
    /** Host wall-clock milliseconds of this analysis call: semantic
     *  passes + simulation, plus the transform build when this call
     *  was the one that triggered it (transformCached == false). */
    double hostMs = 0.0;
    /** Modeled device-memory footprint (see modeledFootprintBytes). */
    std::size_t footprintBytes = 0;
    /** Largest per-iteration active-node count the run observed (= n
     *  every iteration when the worklist is off); 0 for analyses that
     *  do not track a frontier (PR, BC, triangles). */
    std::uint64_t peakFrontier = 0;
    /** True when this run executed on a degradation fallback (copied
     *  from EngineOptions::degraded by the service layer's resilience
     *  ladder — e.g. a run on on-the-fly families after a
     *  transform-cache failure). Degraded runs compute values
     *  bit-identical to their non-degraded counterparts; only the
     *  enumeration cost differs. */
    bool degraded = false;
    /** Iterations that ran with the sparse (compacted) frontier — or,
     *  in pull direction, with the active-destination filter. Each
     *  charged one extra compaction launch, so stats.launches =
     *  iterations + sparseIterations (+ extra per-iteration kernels)
     *  for the worklist analyses. */
    unsigned sparseIterations = 0;

    /** Simulated kernel time in milliseconds. */
    double simulatedMs() const { return cyclesToMs(stats.cycles); }
};

/** Result of a distance analysis (BFS hop counts or SSSP distances),
 *  one value per node of the *original* graph; kInfDist = unreached. */
struct DistancesResult
{
    std::vector<Dist> values;
    RunInfo info;
};

/** Result of SSWP: widest-path width per node; 0 = unreached,
 *  kInfWeight = the source itself. */
struct WidthsResult
{
    std::vector<Weight> values;
    RunInfo info;
};

/** Result of CC: smallest reachable node id per node. */
struct LabelsResult
{
    std::vector<NodeId> values;
    RunInfo info;
};

/** Result of PageRank. */
struct RanksResult
{
    std::vector<Rank> values;
    RunInfo info;
};

/** Result of betweenness centrality. */
struct CentralityResult
{
    std::vector<double> values;
    RunInfo info;
};

/** Result of triangle counting. */
struct TrianglesResult
{
    /** Total number of distinct triangles {u, v, w}. */
    std::uint64_t total = 0;
    /** Number of triangles each node participates in. */
    std::vector<std::uint64_t> perNode;
    RunInfo info;
};

/** PageRank iteration parameters. */
struct PageRankOptions
{
    double damping = 0.85;     ///< Damping factor.
    unsigned iterations = 20;  ///< Synchronous rounds.
    /** Force the pull-based (gather over incoming edges) formulation;
     *  by default only CuSha pulls (its shard engine is pull by
     *  construction) and every other strategy pushes, matching the
     *  implementations the paper compares. Both formulations compute
     *  identical ranks (Theorems 2 and 3). */
    bool pull = false;
    /** When positive, stop as soon as the L1 rank change of a round
     *  drops below this threshold (still capped by `iterations`);
     *  0 runs exactly `iterations` rounds. */
    double epsilon = 0.0;
};

/**
 * A work-unit schedule shared across engines, with the host cost of
 * its original build. The service layer's TransformCache hands these
 * to every engine it creates over the same (graph, strategy, K, side)
 * key, so repeated queries reuse the virtual-node decomposition
 * instead of rebuilding it (the amortization Table 7 of the paper is
 * about). The schedule must have been built over the exact Csr object
 * the engine is constructed with (or, for a reversed entry, over that
 * object's reverse); the engine verifies this plus the strategy/K/warp
 * parameters and silently builds its own context on any mismatch — a
 * stale injection can cost time, never correctness.
 */
struct SharedSchedule
{
    SharedSchedule() = default;
    /** A reversed entry's schedule points into its own reversed
     *  graph, so entries never copy. */
    SharedSchedule(const SharedSchedule &) = delete;
    SharedSchedule &operator=(const SharedSchedule &) = delete;

    Schedule schedule;
    /** Host milliseconds of the original build (the reversal
     *  included, for a reversed entry). */
    double buildMs = 0.0;
    /** Reversed entries only (pull analyses, CuSha PageRank): the
     *  reversed graph the schedule indexes. Empty for a forward entry,
     *  whose schedule indexes the input graph itself. */
    std::optional<graph::Csr> reversed;
    /** Reversed entries only: the input graph that was reversed. */
    const graph::Csr *reversedFrom = nullptr;
    /** Reversed entries only: the input graph's outdegrees (PageRank's
     *  rank shares, Corollary 4). */
    std::vector<EdgeIndex> outdegrees;

    ScheduleSide
    side() const
    {
        return reversed ? ScheduleSide::Reversed : ScheduleSide::Forward;
    }

    /** Heap bytes the entry holds — the schedule, plus a reversed
     *  entry's graph and outdegrees: what the TransformCache budgets
     *  against. */
    std::size_t sizeInBytes() const;

    /**
     * Build the @p side entry of @p graph (kept by reference) and time
     * it. @p with_schedule = false leaves the schedule empty: dynamic
     * mapping needs only a reversed entry's graph and outdegrees.
     */
    static std::shared_ptr<SharedSchedule>
    build(const graph::Csr &graph, ScheduleSide side, Strategy strategy,
          NodeId degree_bound, unsigned mw_virtual_warp,
          par::ThreadPool *pool = nullptr, bool with_schedule = true);
};

/** The pool an engine runs its parallel passes on: a borrowing handle
 *  on EngineOptions::pool when set, else an owned pool of
 *  EngineOptions::threads, or null when that resolves to one thread. */
std::unique_ptr<par::ThreadPool> enginePool(const EngineOptions &options);

/**
 * Vertex-centric graph analytics engine over the simulated GPU.
 *
 * The referenced graph (and maintained virtualizers) must outlive the
 * engine. All analyses are deterministic: the same graph and options
 * produce bit-identical results and identical simulator counters.
 */
class GraphEngine
{
  public:
    /**
     * @param graph Input graph (kept by reference).
     * @param options Strategy and tuning; see EngineOptions.
     * @param shared Optional externally cached schedule (see
     *        SharedSchedule): a forward entry serves the analyses
     *        scheduled directly over @p graph, a reversed one the pull
     *        analyses, whenever it matches the options.
     */
    explicit GraphEngine(const graph::Csr &graph,
                         EngineOptions options = {},
                         std::shared_ptr<const SharedSchedule> shared =
                             nullptr);

    /**
     * Serve the analyses straight off a mutated DynamicGraph's slack
     * arenas. Values equal those of an engine over graph.toCsr(); only
     * arena slot numbers differ, which the simulator's coalescing
     * counters may observe. Only the virtual strategies (TigrV /
     * TigrV+) qualify, since their families are recomputable from
     * arena geometry alone; triangles() throws.
     *
     * @param graph Mutated dynamic graph (kept by reference).
     * @param forward Maintained Out-side arena virtualizer, or null.
     * @param reverse Maintained In-side arena virtualizer, or null.
     *        A virtualizer serves its side when its (K, layout, side)
     *        matches the options and dynamic mapping is off; otherwise
     *        families are enumerated on the fly, with identical
     *        results, simulator counters included.
     * @param options Strategy and tuning; must be TigrV or TigrV+.
     * @throws std::invalid_argument for any other strategy.
     */
    GraphEngine(const dynamic::DynamicGraph &graph,
                const dynamic::IncrementalVirtualizer *forward,
                const dynamic::IncrementalVirtualizer *reverse,
                EngineOptions options = {});

    ~GraphEngine();
    GraphEngine(const GraphEngine &) = delete;
    GraphEngine &operator=(const GraphEngine &) = delete;

    /** The options the engine was built with. */
    const EngineOptions &options() const { return options_; }

    /** Host threads the engine actually runs with (after resolving
     *  EngineOptions::threads through TIGR_THREADS / hardware, or the
     *  borrowed pool's size). */
    unsigned hostThreads() const
    {
        return pool_ ? pool_->threads() : 1;
    }

    /**
     * Single-source shortest paths over the graph's edge weights.
     * Under TigrUdt the graph is physically transformed with zero dumb
     * weights (Corollary 2), so results match the original graph.
     */
    DistancesResult sssp(NodeId source);

    /** Breadth-first search hop counts (SSSP over unit weights). */
    DistancesResult bfs(NodeId source);

    /** Single-source widest paths; under TigrUdt the transformation
     *  uses infinite dumb weights (Corollary 3). */
    WidthsResult sswp(NodeId source);

    /**
     * Connected components by min-label propagation. Labels propagate
     * along directed edges, so pass a symmetrized graph to compute the
     * usual weak connectivity (the evaluation datasets are loaded
     * undirected, as in the paper).
     */
    LabelsResult cc();

    /**
     * PageRank, pull-based over the reversed graph with the original
     * outdegrees (Corollary 4); the vertex function is associative as
     * Theorem 3 requires. Unsupported under TigrUdt (the physical
     * transformation changes outdegrees) — throws std::invalid_argument.
     */
    RanksResult pagerank(const PageRankOptions &pr_options = {});

    /**
     * Betweenness centrality accumulated from @p sources (Brandes
     * forward/backward over hop-count shortest paths). Unsupported
     * under TigrUdt — throws std::invalid_argument.
     */
    CentralityResult bc(std::span<const NodeId> sources);

    /**
     * Count triangles (pass a symmetric, deduplicated graph). This is
     * a *neighborhood* analysis: physical split transformations
     * destroy it (the paper's applicability discussion), so TigrUdt
     * throws std::invalid_argument; every other strategy — including
     * the virtual ones, whose physical graph is untouched — computes
     * the exact count. An engine over a DynamicGraph throws too.
     */
    TrianglesResult triangles();

    /** Modeled device footprint for running @p algorithm under the
     *  engine's strategy and direction: the footprintBytes the
     *  analysis itself reports. */
    std::size_t footprintBytes(Algorithm algorithm);

  private:
    struct Context;

    /** Which cached schedule context an analysis needs. */
    enum class ContextKind
    {
        WeightedZero, ///< Graph weights, zero dumb weights (SSSP, CC,
                      ///< BC, push PR, and BFS through
                      ///< UnitWeightProvider).
        UnitZero,     ///< Unit weights, zero dumb weights: TigrUdt BFS,
                      ///< whose split needs zero-weight dumb edges.
        WeightedInf,  ///< Graph weights, infinite dumb weights (SSWP).
        PullReversed, ///< Reversed graph (pull analyses, pull PR).
        SortedRows,   ///< Row-sorted copy (triangle counting).
    };

    Context &context(ContextKind kind);
    /** The context @p algorithm runs over: the side scheduleSide()
     *  picks, with the weights the algorithm needs. */
    Context &context(Algorithm algorithm);
    PushOptions pushOptions() const;
    /** Node count of the input graph. */
    NodeId numNodes() const;

    /** True when the injected shared schedule can serve @p ctx: same
     *  side, built over the engine's graph (or its reverse) with the
     *  engine's parameters. */
    bool sharedApplies(const Context &ctx, ScheduleSide side) const;

    /** Invoke @p fn with @p ctx's unit provider: the stored schedule,
     *  or a FamilyProvider over the context's edge side (on-the-fly
     *  under dynamic mapping, maintained on an arena when usable). */
    template <typename Fn>
    decltype(auto) withProvider(const Context &ctx, Fn &&fn) const;

    /** Run a semiring analysis end to end through the configured
     *  direction and mapping mode: context, trace and RunInfo included.
     *  @p unit_weights reads every edge weight as 1. */
    template <typename Result, typename Semiring>
    Result runSemiring(Algorithm algorithm,
                       std::span<const std::pair<
                           NodeId, typename Semiring::Value>> seeds,
                       bool all_active, bool unit_weights = false);

    /** Fill the strategy/transform metadata of @p info from @p ctx. */
    void fillRunInfo(RunInfo &info, const Context &ctx,
                     Algorithm algorithm) const;
    /** Modeled footprint of @p algorithm over @p ctx. */
    std::size_t footprint(const Context &ctx, Algorithm algorithm) const;

    /** Record RunBegin + Transform trace events for an analysis over
     *  @p ctx (no-op when tracing is off). */
    void traceRunBegin(Algorithm algorithm, const Context &ctx);
    /** Record a RunEnd trace event and advance the engine's tick base
     *  by the run's simulated cycles, keeping traces of consecutive
     *  analyses on one sink monotonic. */
    void traceRunEnd(const RunInfo &info);

    /** The edge source: exactly one of the two is set. */
    const graph::Csr *csr_ = nullptr;
    const dynamic::DynamicGraph *arena_ = nullptr;
    /** Arena sources: the maintained virtualizers usable under the
     *  options, per side (null = on-the-fly families). */
    const dynamic::IncrementalVirtualizer *forwardVirt_ = nullptr;
    const dynamic::IncrementalVirtualizer *reverseVirt_ = nullptr;
    EngineOptions options_;
    /** Externally cached schedule (may be null). */
    std::shared_ptr<const SharedSchedule> shared_;
    sim::WarpSimulator sim_;
    /** Host worker pool shared by every analysis (see enginePool);
     *  null when the engine resolved to a single thread. */
    std::unique_ptr<par::ThreadPool> pool_;
    std::map<ContextKind, std::unique_ptr<Context>> contexts_;
    /** Simulated cycles of all completed traced runs: the tick base of
     *  the next analysis recorded on the sink. */
    std::uint64_t tracedCycles_ = 0;
};

} // namespace tigr::engine
