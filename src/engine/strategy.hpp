/**
 * @file
 * Scheduling strategies and engine options.
 *
 * A strategy decides how graph work is mapped onto simulated GPU
 * threads. The seven strategies reproduce the systems of Table 2 of the
 * paper: the no-transformation baseline, Tigr's physical (UDT) and
 * virtual (V / V+) transformations, and faithful models of the three
 * competing frameworks' scheduling approaches (maximum warp, CuSha
 * G-Shards, Gunrock frontiers).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "engine/frontier.hpp"
#include "graph/csr.hpp"
#include "graph/types.hpp"
#include "sim/gpu_config.hpp"

namespace tigr::obs {
class TraceSink;
}

namespace tigr::engine {

/**
 * Cooperative cancellation hook, polled between BSP iterations with
 * the iterations executed and simulated cycles charged so far.
 * Returning true stops the run before the next iteration starts; the
 * result then reports cancelled = true and converged = false, and the
 * values are the (well-defined) state after the completed iterations.
 * A check keyed on iterations or cycles is deterministic at any host
 * thread count — both are thread-count-invariant by the determinism
 * contract; a wall-clock check is inherently not.
 */
using CancelCheck =
    std::function<bool(unsigned iterations, std::uint64_t cycles)>;

/** Thread-mapping strategy (Table 2). */
enum class Strategy
{
    /** One thread per node of the untouched graph — the paper's
     *  "baseline" lightweight engine with Tigr disabled. */
    Baseline,
    /** Baseline scheduling on the UDT-physically-transformed graph. */
    TigrUdt,
    /** One thread per virtual node, consecutive edge assignment
     *  (Figure 10 / Algorithm 2). */
    TigrV,
    /** One thread per virtual node with edge-array coalescing
     *  (Figure 12 / Algorithm 3). */
    TigrVPlus,
    /** Maximum warp [23]: warps subdivided into virtual warps of w
     *  lanes; a node's edges are strip-mined across its w lanes. */
    MaximumWarp,
    /** CuSha [32] G-Shards model: edge-parallel processing of the
     *  whole shard set every iteration (no worklist). */
    Cusha,
    /** Gunrock [69] model: frontier-based advance with per-edge load
     *  balancing plus a filter kernel per iteration. */
    Gunrock,
};

/** All strategies, in Table 2 order. */
inline constexpr Strategy kAllStrategies[] = {
    Strategy::Baseline,  Strategy::TigrUdt, Strategy::TigrV,
    Strategy::TigrVPlus, Strategy::MaximumWarp, Strategy::Cusha,
    Strategy::Gunrock,
};

/** Short display name ("baseline", "tigr-v+", "mw", ...). */
std::string_view strategyName(Strategy strategy);

/** Parse a display name back to a Strategy. */
std::optional<Strategy> parseStrategy(std::string_view name);

/** The analyses the engine runs (used by the memory-footprint model). */
enum class Algorithm
{
    Bfs,
    Sssp,
    Sswp,
    Cc,
    Pr,
    Bc,
};

/** Display name of an algorithm ("BFS", "SSSP", ...). */
std::string_view algorithmName(Algorithm algorithm);

/**
 * Per-strategy instruction-cost model: how many instructions a
 * simulated thread issues as a function of the edges it processes, and
 * how many kernels each BSP iteration costs.
 */
struct CostModel
{
    std::uint32_t threadOverhead = 4; ///< Fixed instructions per thread.
    std::uint32_t perEdge = 3;        ///< Instructions per edge.
    /** Extra fixed-function kernels per iteration (Gunrock's filter). */
    std::uint32_t extraKernelsPerIteration = 0;
    /** Scattered value accesses per edge in traversal kernels (see
     *  ThreadWork::scatterAccessesPerEdge): 1 for plain push engines,
     *  2 for Gunrock's frontier-atomic advance. */
    std::uint32_t scatterPerEdge = 1;
};

/** The cost model of @p strategy (see engine/strategy.cpp for the
 *  derivation of each constant). */
CostModel costModelFor(Strategy strategy);

/** Value-propagation scheme (Section 2.1 of the paper). */
enum class Direction
{
    /** Nodes push updates to their out-neighbors (Algorithm 2); the
     *  default, supports the worklist optimization. */
    Push,
    /** Nodes gather from their in-neighbors and reduce into their own
     *  slot; requires an associative vertex function under virtual
     *  transformation (Theorem 3) — all shipped semirings qualify. */
    Pull,
};

/** Which graph an analysis's schedule indexes. */
enum class ScheduleSide
{
    /** The input graph (push analyses, BC). */
    Forward,
    /** Its reverse: a pull gather reads in-edges as the reversed
     *  graph's out-edges. */
    Reversed,
};

/**
 * The side @p algorithm schedules over under @p strategy and
 * @p direction: pull runs gather over the reversed graph, and CuSha's
 * PageRank pulls whatever the direction (its shard engine is pull by
 * construction); BC is forward-only. GraphEngine's context choice and
 * the service scheduler's cache key both come from here.
 */
ScheduleSide scheduleSide(Algorithm algorithm, Strategy strategy,
                          Direction direction);

/** Engine tuning knobs. */
struct EngineOptions
{
    /** Thread-mapping strategy. */
    Strategy strategy = Strategy::TigrVPlus;
    /** Push or pull propagation for BFS/SSSP/SSWP/CC. Pull is
     *  unsupported under TigrUdt (splitting would have to key on
     *  indegrees; use the virtual strategies instead). */
    Direction direction = Direction::Push;
    /** Use on-the-fly mapping reasoning instead of the stored virtual
     *  node array (Section 4.1's second design): zero mapping memory,
     *  recomputed families. Only meaningful for TigrV / TigrVPlus. */
    bool dynamicMapping = false;
    /** Degree bound K for the virtual transformation (paper: 10). */
    NodeId degreeBound = 10;
    /** Degree bound for the UDT physical transformation; 0 selects the
     *  Section 5 heuristic from the graph's max degree. */
    NodeId udtBound = 0;
    /** Virtual-warp width for MaximumWarp (paper sweeps 2..32). */
    unsigned mwVirtualWarp = 8;
    /** Track and process only active nodes (Section 5 "worklist"). */
    bool worklist = true;
    /** Allow updates from the current iteration to be visible within
     *  it (Section 5 "synchronization relaxation"); false = strict
     *  BSP reads from the previous iteration's values. */
    bool syncRelaxation = true;
    /** Safety cap on BSP iterations. */
    unsigned maxIterations = 100000;
    /** Optional cooperative cancellation hook (see CancelCheck); the
     *  service layer's deadline budgets plug in here. Null = never. */
    CancelCheck cancel;
    /** Host threads executing the engine's parallel passes: 0 = the
     *  TIGR_THREADS / hardware-concurrency default, 1 = serial, N > 1
     *  = a pool of N. Every analysis is chunk-deterministic — results,
     *  iteration counts, and simulator counters are identical for any
     *  value (see docs/parallelism.md). */
    unsigned threads = 0;
    /** Frontier representation of worklist iterations: dense bitmap,
     *  compacted sparse list, or the per-iteration adaptive switch.
     *  Values and iteration counts are identical for every mode (see
     *  docs/frontier.md); only enumeration cost differs. */
    FrontierMode frontier = FrontierMode::Adaptive;
    /** Occupancy threshold of the adaptive switch: iterations run
     *  sparse while |frontier| <= frontierRatio * n. */
    double frontierRatio = kDefaultFrontierRatio;
    /** Gather only into active destinations in pull direction (legal
     *  for the shipped idempotent min-reductions; see docs/frontier.md
     *  for the Theorem 3 argument). false = classic all-nodes gather. */
    bool pullWorklist = true;
    /** Marks a run executed on a degradation fallback (the service
     *  layer's resilience ladder, docs/resilience.md): copied verbatim
     *  into RunInfo::degraded so results self-report. Changes no
     *  engine behavior — degraded runs compute identical values. */
    bool degraded = false;
    /** Optional structured trace sink (docs/observability.md). Events
     *  are stamped with simulated cycles, so the recorded trace is
     *  bit-identical at any `threads` value. Null = tracing off, and
     *  the instrumentation reduces to one pointer test per
     *  iteration. The sink is not internally synchronized: use one
     *  sink per engine. */
    obs::TraceSink *trace = nullptr;
    /** Simulated GPU. */
    sim::GpuConfig gpu;
};

/**
 * Modeled device-memory footprint of running @p algorithm on a graph of
 * @p nodes nodes and @p edges edges under @p strategy, in bytes of the
 * paper's 4-byte-entry CSR accounting. CuSha's shard replication and
 * Gunrock's per-node frontier/label buffers multiply the base size,
 * which is what drives their Table 4 OOMs on an 8 GB device.
 *
 * @param virtual_nodes Virtual-node count for TigrV/TigrVPlus
 *        (ignored by other strategies).
 */
std::size_t modeledFootprintBytes(Strategy strategy, Algorithm algorithm,
                                  std::uint64_t nodes,
                                  std::uint64_t edges,
                                  std::uint64_t virtual_nodes = 0);

/** Convenience overload reading the node/edge counts from @p graph. */
std::size_t modeledFootprintBytes(Strategy strategy, Algorithm algorithm,
                                  const graph::Csr &graph,
                                  std::uint64_t virtual_nodes = 0);

/** Simulated-cycle to milliseconds conversion at the modeled clock
 *  (1.2 GHz, roughly a Quadro P4000 boost clock). */
double cyclesToMs(std::uint64_t cycles);

} // namespace tigr::engine
