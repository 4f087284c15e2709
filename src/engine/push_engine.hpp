/**
 * @file
 * The generic BSP drivers: push (Algorithm 2 / Algorithm 3 of the
 * paper, host-simulated) and pull (the gather scheme of Section 2.1,
 * whose correctness under virtualization is Theorem 3).
 *
 * Both are templates over a *unit provider* — Schedule (stored work
 * units) or DynamicVirtualProvider (on-the-fly mapping reasoning) —
 * and over a value semiring. Semantics run on the host, so results are
 * exact and deterministic; the WarpSimulator charges each launch's
 * warp occupancy, coalescing, and cycles (see DESIGN.md's substitution
 * note).
 *
 * Worklist iterations run through the adaptive Frontier (see
 * engine/frontier.hpp and docs/frontier.md): a dense-bitmap or
 * compacted-list representation chosen per iteration by an occupancy
 * threshold. Both representations enumerate the active nodes in
 * ascending id order and materialize each node's units through an
 * exclusive scan of exact per-node unit counts (O(frontier *
 * units/node) in the sparse case), so the launched unit list — and
 * with it every value, activation, and convergence decision — is
 * identical whichever representation ran. Sparse iterations charge the
 * simulator one extra |frontier|-thread compaction pass, keeping
 * simulated speedups honest.
 *
 * Parallel execution model. Each iteration's unit list is cut into
 * fixed chunks (grain units per chunk — the chunk structure depends
 * only on the list, never on the thread count). The semantic pass runs
 * chunks concurrently: sources are read from the iteration's frozen
 * value array, candidate improvements accumulate in a per-worker
 * overlay scoped to the current chunk, and each chunk emits its
 * improvement list. A serial merge then folds the chunk lists into the
 * global values *in ascending chunk order*. Because all shipped
 * semirings reduce by an order-independent better()/min, the merged
 * values, activation flags, and convergence decisions are bit-identical
 * for every thread count — including the single-threaded run, which
 * executes the very same chunked algorithm. Synchronization relaxation
 * is therefore defined as *chunk-scoped* visibility: a unit sees
 * updates made earlier within its own chunk (and all previous
 * iterations), never concurrent chunks of the same iteration.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "engine/frontier.hpp"
#include "engine/schedule.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "sim/warp_simulator.hpp"

namespace tigr::engine {

/**
 * Weight-erasing adapter: same units and topology as the wrapped
 * provider, every edge weight 1. BFS runs over it on the weighted
 * schedule of any provider — dense, on-the-fly or arena — instead of
 * over a unit-weight copy of the graph.
 */
template <typename Provider>
class UnitWeightProvider
{
  public:
    explicit UnitWeightProvider(const Provider &inner) : inner_(&inner)
    {
    }

    NodeId edgeTarget(EdgeIndex e) const
    {
        return inner_->edgeTarget(e);
    }

    Weight edgeWeight(EdgeIndex) const { return 1; }

    NodeId numValueNodes() const { return inner_->numValueNodes(); }

    const CostModel &cost() const { return inner_->cost(); }

    bool ignoresWorklist() const { return inner_->ignoresWorklist(); }

    std::uint64_t unitCountOf(NodeId v) const
    {
        return inner_->unitCountOf(v);
    }

    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        inner_->forEachUnitOf(v, std::forward<Fn>(fn));
    }

    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        inner_->forEachUnit(std::forward<Fn>(fn));
    }

  private:
    const Provider *inner_;
};

/** Iteration-control knobs of one push/pull run. */
struct PushOptions
{
    /** Process only active nodes each iteration (push only). */
    bool worklist = true;
    /** Let updates from earlier units of the same chunk be read within
     *  the iteration (synchronization relaxation, chunk-scoped as
     *  described in the file comment); false = strict BSP. */
    bool syncRelaxation = true;
    /** Iteration safety cap. */
    unsigned maxIterations = 100000;
    /** Host thread pool for the per-iteration passes; null = run the
     *  (identical) chunked algorithm on the calling thread. Results
     *  never depend on the pool's size. */
    par::ThreadPool *pool = nullptr;
    /** Optional cancellation hook (deadline budgets); null = never. */
    CancelCheck cancel;
    /** Frontier representation of worklist iterations (push only);
     *  values and iteration counts are identical for every mode. */
    FrontierMode frontier = FrontierMode::Adaptive;
    /** Occupancy threshold of the adaptive switch: an iteration runs
     *  sparse while |frontier| <= frontierRatio * n. */
    double frontierRatio = kDefaultFrontierRatio;
    /** Gather only into active destinations in the pull driver (legal
     *  for the shipped idempotent better()/min semirings — see
     *  docs/frontier.md); false restores the classic all-nodes gather.
     *  Requires runPull's forward-graph argument; ignored otherwise. */
    bool pullWorklist = true;
    /** Optional structured trace sink: one Iteration event per BSP
     *  step, stamped with simulated cycles (docs/observability.md).
     *  Null (the default) costs one pointer test per iteration. */
    obs::TraceSink *trace = nullptr;
    /** Tick offset added to every recorded event — lets an engine
     *  running several analyses on one sink keep simulated time
     *  monotonic across runs. */
    std::uint64_t traceTickBase = 0;
};

/** Result of a push or pull run. */
template <typename Semiring>
struct PushOutcome
{
    /** Converged value per value node of the provider. */
    std::vector<typename Semiring::Value> values;
    /** BSP iterations executed. */
    unsigned iterations = 0;
    /** True when the run converged before hitting maxIterations. */
    bool converged = false;
    /** True when PushOptions::cancel stopped the run early. */
    bool cancelled = false;
    /** Aggregated simulator counters over all launches. */
    sim::KernelStats stats;
    /** Largest per-iteration active-node count observed (equals n on
     *  every iteration when the worklist is off). */
    std::uint64_t peakFrontier = 0;
    /** Iterations that ran with the sparse (compacted-list) frontier;
     *  each charged one extra compaction launch. */
    unsigned sparseIterations = 0;
};

namespace detail {

/** Build the simulator descriptor for one executed unit. */
inline sim::ThreadWork
describeUnit(const WorkUnit &unit, const CostModel &cost)
{
    sim::ThreadWork work;
    work.instructions = cost.threadOverhead + cost.perEdge * unit.count;
    work.edgeCount = unit.count;
    work.edgeStart = unit.start;
    work.edgeStride = unit.stride;
    work.scatterAccessesPerEdge = cost.scatterPerEdge;
    return work;
}

/**
 * Per-worker chunk-local value overlay: candidate values layered over
 * the frozen global array, epoch-tagged so that starting a new chunk
 * is O(1) and reset costs nothing.
 */
template <typename Value>
struct ChunkOverlay
{
    std::vector<Value> value;
    std::vector<std::uint64_t> epoch;
    std::vector<NodeId> touched;
    std::uint64_t current = 0;

    void
    ensure(NodeId n)
    {
        if (value.size() < n) {
            value.resize(n);
            epoch.resize(n, 0);
        }
    }

    void
    beginChunk()
    {
        ++current;
        touched.clear();
    }

    bool has(NodeId v) const { return epoch[v] == current; }

    void
    set(NodeId v, const Value &candidate)
    {
        if (epoch[v] != current) {
            epoch[v] = current;
            touched.push_back(v);
        }
        value[v] = candidate;
    }
};

/**
 * Materialize the units of @p nodes (ascending node ids) into
 * @p units, in node order: an exclusive scan over exact per-node unit
 * counts (Provider::unitCountOf, O(1) on both providers) fixes every
 * node's output slot, then a parallel pass fills them. O(|nodes| +
 * |units|) with no per-chunk scratch vectors, bit-identical at any
 * thread count.
 */
template <typename Provider>
void
gatherUnitsOf(const Provider &provider, std::span<const NodeId> nodes,
              par::ThreadPool *pool, std::vector<std::uint64_t> &offsets,
              std::vector<WorkUnit> &units)
{
    offsets.assign(nodes.size() + 1, 0);
    par::parallelFor(pool, nodes.size(), par::kDefaultGrain,
                     [&](std::uint64_t i, unsigned) {
                         offsets[i] = provider.unitCountOf(nodes[i]);
                     });
    par::chunkedExclusiveScan(pool, offsets);
    units.resize(offsets.back());
    par::parallelFor(pool, nodes.size(), par::kDefaultGrain,
                     [&](std::uint64_t i, unsigned) {
                         std::uint64_t slot = offsets[i];
                         provider.forEachUnitOf(
                             nodes[i], [&](const WorkUnit &unit) {
                                 units[slot++] = unit;
                             });
                     });
}

/** Dense variant of gatherUnitsOf: scan the frontier bitmap over all n
 *  nodes instead of a compacted list. Produces the identical unit
 *  array (active nodes ascending, units in node order). */
template <typename Provider>
void
gatherUnitsDense(const Provider &provider, const Frontier &frontier,
                 par::ThreadPool *pool,
                 std::vector<std::uint64_t> &offsets,
                 std::vector<WorkUnit> &units)
{
    const NodeId n = provider.numValueNodes();
    offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    par::parallelFor(pool, n, par::kDefaultGrain,
                     [&](std::uint64_t v, unsigned) {
                         if (frontier.active(static_cast<NodeId>(v)))
                             offsets[v] = provider.unitCountOf(
                                 static_cast<NodeId>(v));
                     });
    par::chunkedExclusiveScan(pool, offsets);
    units.resize(offsets.back());
    par::parallelFor(pool, n, par::kDefaultGrain,
                     [&](std::uint64_t v, unsigned) {
                         if (!frontier.active(static_cast<NodeId>(v)))
                             return;
                         std::uint64_t slot = offsets[v];
                         provider.forEachUnitOf(
                             static_cast<NodeId>(v),
                             [&](const WorkUnit &unit) {
                                 units[slot++] = unit;
                             });
                     });
}

/** Record one Iteration trace event covering the simulator-counter
 *  deltas between @p before and @p after (all integers, all
 *  thread-count-invariant). */
inline void
traceIteration(const PushOptions &options, unsigned iteration,
               std::uint64_t frontier_size, bool sparse,
               std::uint64_t units, const sim::KernelStats &before,
               const sim::KernelStats &after)
{
    obs::TraceEvent event;
    event.tick = options.traceTickBase + after.cycles;
    event.kind = obs::EventKind::Iteration;
    event.arg[0] = iteration;
    event.arg[1] = frontier_size;
    event.arg[2] = sparse ? 1 : 0;
    event.arg[3] = units;
    event.arg[4] = after.cycles - before.cycles;
    event.arg[5] = after.instructions - before.instructions;
    event.arg[6] = after.laneSlots - before.laneSlots;
    event.arg[7] = after.memTransactions - before.memTransactions;
    options.trace->record(event);
}

/** Does this iteration's frontier run sparse under @p options? Pure in
 *  (count, n), hence thread-count-invariant; equality goes sparse, the
 *  boundary the threshold tests pin. */
inline bool
sparseIteration(const PushOptions &options, std::uint64_t count,
                NodeId n)
{
    switch (options.frontier) {
      case FrontierMode::Dense: return false;
      case FrontierMode::Sparse: return true;
      case FrontierMode::Adaptive:
        return static_cast<double>(count) <=
               options.frontierRatio * static_cast<double>(n);
    }
    return false;
}

} // namespace detail

/**
 * Run a push-based vertex-centric analysis.
 *
 * @tparam Semiring One of the semirings in algorithms/semirings.hpp.
 * @tparam Provider Schedule, DynamicVirtualProvider, or
 *         ArenaVirtualProvider. The driver reads edges exclusively
 *         through provider.edgeTarget/edgeWeight, so work-unit starts
 *         may index any edge array the provider owns — the dense CSR
 *         or the DynamicGraph slack arena.
 * @param provider The work-unit decomposition to execute over.
 * @param sim Simulator charged for every launch.
 * @param options Iteration control.
 * @param seeds (node, value) pairs planted before iteration 0; seeded
 *        nodes start active.
 * @param all_active Start with every node active (CC-style) instead of
 *        only the seeds.
 */
template <typename Semiring, typename Provider>
PushOutcome<Semiring>
runPush(const Provider &provider, sim::WarpSimulator &sim,
        const PushOptions &options,
        std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
        bool all_active = false)
{
    using Value = typename Semiring::Value;

    const NodeId n = provider.numValueNodes();
    const CostModel &cost = provider.cost();
    par::ThreadPool *pool = options.pool;
    const std::uint64_t grain = par::kDefaultGrain;

    PushOutcome<Semiring> outcome;
    outcome.values.assign(n, Semiring::identity);
    for (const auto &[node, value] : seeds)
        outcome.values[node] = value;

    const bool use_worklist =
        options.worklist && !provider.ignoresWorklist();
    const bool relaxed = options.syncRelaxation;

    // Two frontiers swapped per iteration; untouched (and unpaid for)
    // when the worklist is off.
    Frontier frontier;
    Frontier next_frontier;
    if (use_worklist) {
        frontier.reset(n, all_active);
        next_frontier.reset(n, false);
        if (!all_active)
            for (const auto &[node, value] : seeds)
                frontier.activate(node);
    }

    std::vector<WorkUnit> launch_units;
    std::vector<std::uint64_t> gather_offsets;

    // Per-worker overlays and per-chunk improvement lists: the
    // semantic pass never writes the global values, so they double as
    // the iteration's frozen snapshot with no copy.
    par::PerWorker<detail::ChunkOverlay<Value>> overlays(pool);
    std::vector<std::vector<std::pair<NodeId, Value>>> chunk_updates;

    if (!use_worklist) {
        provider.forEachUnit([&](const WorkUnit &unit) {
            launch_units.push_back(unit);
        });
    }

    while (outcome.iterations < options.maxIterations) {
        if (options.cancel &&
            options.cancel(outcome.iterations, outcome.stats.cycles)) {
            outcome.cancelled = true;
            break;
        }

        const sim::KernelStats trace_before = outcome.stats;

        // Gather this iteration's units. Sparse and dense materialize
        // the identical array — active nodes ascending, units in node
        // order — so the mode never changes what executes, only what
        // the enumeration costs.
        std::uint64_t active_nodes = n;
        bool sparse = false;
        if (use_worklist) {
            active_nodes = frontier.count();
            sparse = detail::sparseIteration(options, active_nodes, n);
            if (sparse) {
                detail::gatherUnitsOf(provider, frontier.compacted(pool),
                                      pool, gather_offsets,
                                      launch_units);
            } else {
                detail::gatherUnitsDense(provider, frontier, pool,
                                         gather_offsets, launch_units);
            }
            if (launch_units.empty()) {
                outcome.converged = true;
                break;
            }
        }

        ++outcome.iterations;
        outcome.peakFrontier =
            std::max(outcome.peakFrontier, active_nodes);
        if (use_worklist && sparse)
            ++outcome.sparseIterations;

        // Semantic pass: per chunk, compute candidate improvements
        // against the frozen values (plus the chunk's own overlay when
        // relaxation is on) and record them.
        const std::uint64_t unit_chunks =
            par::chunkCount(launch_units.size(), grain);
        if (chunk_updates.size() < unit_chunks)
            chunk_updates.resize(unit_chunks);
        const std::vector<Value> &frozen = outcome.values;
        par::forEachChunk(
            pool, launch_units.size(), grain,
            [&](std::uint64_t chunk, std::uint64_t begin,
                std::uint64_t end, unsigned worker) {
                auto &overlay = overlays[worker];
                overlay.ensure(n);
                overlay.beginChunk();
                for (std::uint64_t i = begin; i < end; ++i) {
                    const WorkUnit &unit = launch_units[i];
                    const Value source_value =
                        relaxed && overlay.has(unit.valueNode)
                            ? overlay.value[unit.valueNode]
                            : frozen[unit.valueNode];
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e = unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        const NodeId dst = provider.edgeTarget(e);
                        const Value candidate = Semiring::extend(
                            source_value, provider.edgeWeight(e));
                        const Value current = overlay.has(dst)
                                                  ? overlay.value[dst]
                                                  : frozen[dst];
                        if (Semiring::better(candidate, current))
                            overlay.set(dst, candidate);
                    }
                }
                auto &updates = chunk_updates[chunk];
                updates.clear();
                updates.reserve(overlay.touched.size());
                for (NodeId dst : overlay.touched)
                    updates.emplace_back(dst, overlay.value[dst]);
            });

        // Merge in ascending chunk order (serial; the order makes the
        // result independent of which worker ran which chunk). The
        // next frontier clears its touched entries only and dedups
        // activations through its bitmap.
        if (use_worklist)
            next_frontier.clear();
        bool changed = false;
        for (std::uint64_t chunk = 0; chunk < unit_chunks; ++chunk) {
            for (const auto &[dst, value] : chunk_updates[chunk]) {
                if (Semiring::better(value, outcome.values[dst])) {
                    outcome.values[dst] = value;
                    changed = true;
                    if (use_worklist)
                        next_frontier.activate(dst);
                }
            }
        }

        // Charge the launch the semantic pass just executed. The
        // descriptor is pure (unit shape + cost model only), so the
        // simulation itself parallelizes over the same pool.
        outcome.stats += sim.launch(
            launch_units.size(),
            [&](std::uint64_t tid) {
                return detail::describeUnit(launch_units[tid], cost);
            },
            pool);

        // A sparse iteration also paid a compaction pass over the
        // frontier: charge it at the real frontier size.
        if (use_worklist && sparse) {
            outcome.stats += sim.launch(
                active_nodes,
                [](std::uint64_t) { return sim::frontierPassWork(); },
                pool);
        }

        // Model auxiliary per-iteration kernels (Gunrock's filter).
        for (std::uint32_t extra = 0;
             extra < cost.extraKernelsPerIteration; ++extra) {
            outcome.stats += sim.launch(
                active_nodes,
                [](std::uint64_t) {
                    sim::ThreadWork work;
                    work.instructions = 3;
                    return work;
                },
                pool);
        }

        if (options.trace)
            detail::traceIteration(options, outcome.iterations,
                                   active_nodes, use_worklist && sparse,
                                   launch_units.size(), trace_before,
                                   outcome.stats);

        if (!changed) {
            outcome.converged = true;
            break;
        }
        if (use_worklist)
            frontier.swap(next_frontier);
    }
    return outcome;
}

/**
 * Run a pull-based vertex-centric analysis: every node gathers over
 * its *incoming* edges and reduces into its own value slot.
 *
 * @p provider must be built over the REVERSED graph (an out-edge of
 * the reversed graph is an in-edge of the original), so a unit's value
 * node is the gathering node and its edge targets are the original
 * in-neighbors. Virtual families of the same node reduce repeatedly
 * into one physical slot, which is exactly the nested application
 * Theorem 3 reduces using the semiring's associativity.
 *
 * With @p forward (the original, un-reversed graph) supplied and
 * PushOptions::pullWorklist on, iterations gather only into *active
 * destinations*: nodes with an in-neighbor whose value changed in the
 * previous iteration (initially, out-neighbors of the seeds). A
 * node's gather is a pure reduction over its in-neighbor values, so
 * recomputing it without any input change reproduces the same
 * candidate; because the shipped semirings are idempotent better()/min
 * reductions with monotone improvement, skipping such gathers cannot
 * change the fixed point (the Theorem 3 argument, docs/frontier.md).
 * The filter may converge in fewer iterations than the all-nodes
 * gather (which spends a final no-change sweep to detect convergence);
 * values are identical. Strategies that ignore the worklist (CuSha,
 * MaximumWarp) always gather everywhere, as does PushOptions::
 * pullWorklist = false.
 *
 * syncRelaxation selects whether gathers read values updated earlier
 * in the same chunk (the chunk-scoped relaxation described in the file
 * comment).
 *
 * @p ForwardGraph only needs outNeighbors(NodeId); both graph::Csr and
 * dynamic::DynamicGraph qualify, so the destination filter works off
 * the forward slack arena with no dense materialization.
 */
template <typename Semiring, typename Provider,
          typename ForwardGraph = graph::Csr>
PushOutcome<Semiring>
runPull(const Provider &provider, sim::WarpSimulator &sim,
        const PushOptions &options,
        std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
        const ForwardGraph *forward = nullptr)
{
    using Value = typename Semiring::Value;

    const NodeId n = provider.numValueNodes();
    const CostModel &cost = provider.cost();
    par::ThreadPool *pool = options.pool;
    const std::uint64_t grain = par::kDefaultGrain;
    const bool relaxed = options.syncRelaxation;
    const bool filtered = forward != nullptr && options.pullWorklist &&
                          !provider.ignoresWorklist();

    PushOutcome<Semiring> outcome;
    outcome.values.assign(n, Semiring::identity);
    for (const auto &[node, value] : seeds)
        outcome.values[node] = value;

    std::vector<WorkUnit> launch_units;
    std::vector<std::uint64_t> gather_offsets;

    // Active destinations of the next gather; only the out-neighbors
    // of a changed node can compute a different reduction.
    Frontier dests;
    Frontier next_dests;
    if (filtered) {
        dests.reset(n, false);
        next_dests.reset(n, false);
        for (const auto &[node, value] : seeds)
            for (NodeId t : forward->outNeighbors(node))
                dests.activate(t);
    } else {
        provider.forEachUnit([&](const WorkUnit &unit) {
            launch_units.push_back(unit);
        });
    }

    par::PerWorker<detail::ChunkOverlay<Value>> overlays(pool);
    std::vector<std::vector<std::pair<NodeId, Value>>> chunk_updates;

    while (outcome.iterations < options.maxIterations) {
        if (options.cancel &&
            options.cancel(outcome.iterations, outcome.stats.cycles)) {
            outcome.cancelled = true;
            break;
        }

        const sim::KernelStats trace_before = outcome.stats;

        std::uint64_t active_dests = n;
        if (filtered) {
            active_dests = dests.count();
            detail::gatherUnitsOf(provider, dests.compacted(pool), pool,
                                  gather_offsets, launch_units);
            if (launch_units.empty()) {
                outcome.converged = true;
                break;
            }
        }

        ++outcome.iterations;
        outcome.peakFrontier =
            std::max(outcome.peakFrontier, active_dests);
        if (filtered)
            ++outcome.sparseIterations;

        const std::uint64_t unit_chunks =
            par::chunkCount(launch_units.size(), grain);
        if (chunk_updates.size() < unit_chunks)
            chunk_updates.resize(unit_chunks);
        const std::vector<Value> &frozen = outcome.values;
        par::forEachChunk(
            pool, launch_units.size(), grain,
            [&](std::uint64_t chunk, std::uint64_t begin,
                std::uint64_t end, unsigned worker) {
                auto &overlay = overlays[worker];
                overlay.ensure(n);
                overlay.beginChunk();
                for (std::uint64_t i = begin; i < end; ++i) {
                    const WorkUnit &unit = launch_units[i];
                    const NodeId target = unit.valueNode;
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e = unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        const NodeId src = provider.edgeTarget(e);
                        const Value source_value =
                            relaxed && overlay.has(src)
                                ? overlay.value[src]
                                : frozen[src];
                        const Value candidate = Semiring::extend(
                            source_value, provider.edgeWeight(e));
                        const Value current =
                            overlay.has(target) ? overlay.value[target]
                                                : frozen[target];
                        if (Semiring::better(candidate, current))
                            overlay.set(target, candidate);
                    }
                }
                auto &updates = chunk_updates[chunk];
                updates.clear();
                updates.reserve(overlay.touched.size());
                for (NodeId target : overlay.touched)
                    updates.emplace_back(target,
                                         overlay.value[target]);
            });

        if (filtered)
            next_dests.clear();
        bool changed = false;
        for (std::uint64_t chunk = 0; chunk < unit_chunks; ++chunk) {
            for (const auto &[target, value] : chunk_updates[chunk]) {
                if (Semiring::better(value, outcome.values[target])) {
                    outcome.values[target] = value;
                    changed = true;
                    if (filtered)
                        for (NodeId t : forward->outNeighbors(target))
                            next_dests.activate(t);
                }
            }
        }

        outcome.stats += sim.launch(
            launch_units.size(),
            [&](std::uint64_t tid) {
                return detail::describeUnit(launch_units[tid], cost);
            },
            pool);

        // The destination filter is itself a frontier pass: charge it
        // at the real active-destination count.
        if (filtered) {
            outcome.stats += sim.launch(
                active_dests,
                [](std::uint64_t) { return sim::frontierPassWork(); },
                pool);
        }

        if (options.trace)
            detail::traceIteration(options, outcome.iterations,
                                   active_dests, filtered,
                                   launch_units.size(), trace_before,
                                   outcome.stats);

        if (!changed) {
            outcome.converged = true;
            break;
        }
        if (filtered)
            dests.swap(next_dests);
    }
    return outcome;
}

} // namespace tigr::engine
