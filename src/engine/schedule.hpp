/**
 * @file
 * Work-unit schedules: the concrete thread layouts each strategy
 * produces for a given graph.
 *
 * A WorkUnit is one simulated GPU thread's slice of graph work: a value
 * node it reads from and an arithmetic sequence of edge-array slots it
 * pushes along. Every strategy — from one-node-per-thread to Gunrock's
 * edge-parallel advance — reduces to a different unit decomposition, so
 * engines, the simulator, and the cost model all operate on one shape.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/strategy.hpp"
#include "graph/csr.hpp"

namespace tigr::par {
class ThreadPool;
}

namespace tigr::engine {

/** One simulated thread's work: push value of valueNode along edge
 *  slots start + stride*j for j in [0, count). */
struct WorkUnit
{
    NodeId valueNode = 0;       ///< Node whose value this thread pushes.
    EdgeIndex start = 0;        ///< First edge-array slot.
    std::uint32_t stride = 1;   ///< Slot step.
    std::uint32_t count = 0;    ///< Number of slots.
};

/**
 * The full, immutable unit decomposition of a graph under a strategy.
 * Units are grouped by value node (consecutive unit ids within a node,
 * nodes in ascending id order), which is what puts family members into
 * the same warp (Section 4.4).
 */
class Schedule
{
  public:
    Schedule() = default;

    /**
     * Build the decomposition.
     *
     * @param graph The graph the units index. For TigrUdt pass the
     *        UDT-transformed graph; the schedule itself is then the
     *        baseline node-per-thread layout.
     * @param strategy Thread-mapping strategy.
     * @param degree_bound K for the virtual strategies.
     * @param mw_virtual_warp Virtual warp width for MaximumWarp.
     * @param pool Optional host pool: unit counting and the unit-array
     *        fill parallelize over it (two passes around a prefix sum
     *        of per-node unit counts), producing the identical array
     *        at any thread count. Null = serial.
     */
    static Schedule build(const graph::Csr &graph, Strategy strategy,
                          NodeId degree_bound = 10,
                          unsigned mw_virtual_warp = 8,
                          par::ThreadPool *pool = nullptr);

    /** The graph whose edge slots the units reference. */
    const graph::Csr &graph() const { return *graph_; }

    /** Destination of edge slot @p e (provider concept: the push/pull
     *  drivers read edges only through these two, so providers over
     *  other edge arrays — e.g. the DynamicGraph slack arena — plug in
     *  without touching the drivers). */
    NodeId edgeTarget(EdgeIndex e) const { return graph_->edgeTarget(e); }

    /** Weight of edge slot @p e, parallel to edgeTarget. */
    Weight edgeWeight(EdgeIndex e) const { return graph_->edgeWeight(e); }

    /** Strategy this schedule implements. */
    Strategy strategy() const { return strategy_; }

    /** Degree bound K the decomposition was built with (meaningful for
     *  the virtual strategies; stored for all so a cached schedule's
     *  compatibility can be checked exactly). */
    NodeId degreeBound() const { return degreeBound_; }

    /** Virtual-warp width the decomposition was built with. */
    unsigned mwVirtualWarp() const { return mwVirtualWarp_; }

    /** Heap bytes of the stored decomposition (units + offsets): the
     *  quantity the service transform cache budgets against. */
    std::size_t
    sizeInBytes() const
    {
        return units_.size() * sizeof(WorkUnit) +
               unitOffsets_.size() * sizeof(std::uint64_t);
    }

    /** Number of value nodes (= nodes of the scheduled graph). */
    NodeId numValueNodes() const
    {
        return static_cast<NodeId>(unitOffsets_.size() - 1);
    }

    /** Total number of work units (threads in an all-active launch). */
    std::uint64_t numUnits() const { return units_.size(); }

    /** Number of units owned by value node @p v, O(1) off the offset
     *  array (provider concept shared with FamilyProvider):
     *  what lets the drivers size a frontier's launch exactly before
     *  filling it. */
    std::uint64_t
    unitCountOf(NodeId v) const
    {
        return unitOffsets_[v + 1] - unitOffsets_[v];
    }

    /** Units owned by value node @p v. */
    std::span<const WorkUnit>
    unitsOf(NodeId v) const
    {
        return {units_.data() + unitOffsets_[v],
                static_cast<std::size_t>(unitOffsets_[v + 1] -
                                         unitOffsets_[v])};
    }

    /** All units in schedule order. */
    std::span<const WorkUnit> allUnits() const { return units_; }

    /** Visit the units of node @p v (provider concept shared with
     *  FamilyProvider). */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        for (const WorkUnit &unit : unitsOf(v))
            fn(unit);
    }

    /** Visit every unit in schedule order. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (const WorkUnit &unit : units_)
            fn(unit);
    }

    /** True when the strategy processes everything every iteration
     *  regardless of the worklist: CuSha's shard model sweeps all
     *  shards per super-step, and the maximum-warp implementation the
     *  paper compares against (from the CuSha repository) likewise
     *  processes every node each iteration. */
    bool ignoresWorklist() const
    {
        return strategy_ == Strategy::Cusha ||
               strategy_ == Strategy::MaximumWarp;
    }

    /** Instruction-cost model of the strategy. */
    const CostModel &cost() const { return cost_; }

  private:
    const graph::Csr *graph_ = nullptr;
    Strategy strategy_ = Strategy::Baseline;
    NodeId degreeBound_ = 0;
    unsigned mwVirtualWarp_ = 0;
    CostModel cost_;
    std::vector<WorkUnit> units_;
    std::vector<std::uint64_t> unitOffsets_; // per value node, n+1
};

} // namespace tigr::engine
