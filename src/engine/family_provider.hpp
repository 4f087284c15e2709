/**
 * @file
 * TigrV / TigrV+ work units over any edge side (Section 4.1).
 *
 * A family is a pure function of (segment begin, degree, K, layout),
 * so one provider serves every place a virtual family can come from.
 * An *edge side* says where each node's segment begins, how long it
 * is, and which array an edge slot indexes:
 *  - CsrSide: a dense CSR (the input graph, or its reverse for pull);
 *  - ArenaOutSide: a DynamicGraph's forward slack arena;
 *  - ArenaInSide: its mirrored reverse arena, for pull gathers.
 *
 * Families come from a maintained IncrementalVirtualizer when one is
 * given (familyOf, O(1) per node), and otherwise from on-the-fly
 * mapping reasoning (forEachVirtualNodeAt), the paper's second
 * virtualization design: no array is stored. The two emit identical
 * units, starts included, so which one serves a run is unobservable,
 * simulator counters included.
 *
 * On an arena, unit starts are arena slot numbers. Every unit owns
 * slots inside its node's live segment, so the enumerated (source,
 * target, weight) triples — and every analysis value — equal those of
 * a Schedule over toCsr() (or its reverse). Only slot numbers differ,
 * which the warp simulator's coalescing counters may observe but
 * values, iteration counts and convergence never do.
 */
#pragma once

#include <cassert>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/schedule.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::engine {

/** Out-edges of a dense CSR. */
struct CsrSide
{
    const graph::Csr *graph;

    NodeId numNodes() const { return graph->numNodes(); }
    EdgeIndex begin(NodeId v) const { return graph->edgeBegin(v); }
    EdgeIndex degree(NodeId v) const { return graph->degree(v); }
    NodeId target(EdgeIndex e) const { return graph->edgeTarget(e); }
    Weight weight(EdgeIndex e) const { return graph->edgeWeight(e); }
};

/** Out-edges of a DynamicGraph, addressed into its forward arena. */
struct ArenaOutSide
{
    const dynamic::DynamicGraph *graph;

    NodeId numNodes() const { return graph->numNodes(); }
    EdgeIndex begin(NodeId v) const { return graph->edgeBegin(v); }
    EdgeIndex degree(NodeId v) const { return graph->degree(v); }
    NodeId target(EdgeIndex e) const { return graph->arenaTarget(e); }
    Weight weight(EdgeIndex e) const { return graph->arenaWeight(e); }
};

/** In-edges of a DynamicGraph, addressed into its reverse arena: a
 *  slot's target is the original source, the reversed graph's edge
 *  destination that runPull gathers from. */
struct ArenaInSide
{
    const dynamic::DynamicGraph *graph;

    NodeId numNodes() const { return graph->numNodes(); }
    EdgeIndex begin(NodeId v) const { return graph->inEdgeBegin(v); }
    EdgeIndex degree(NodeId v) const { return graph->inDegree(v); }
    NodeId target(EdgeIndex e) const
    {
        return graph->inArenaSource(e);
    }
    Weight weight(EdgeIndex e) const { return graph->inArenaWeight(e); }
};

/**
 * Provider of TigrV / TigrV+ work units over @p Side, interchangeable
 * with Schedule in runPush, runPull and runPageRank.
 *
 * The side's graph and the maintained virtualizer are kept by
 * reference and must outlive the provider. A maintained virtualizer
 * must split @p Side's segments at the provider's (K, layout) and be
 * repaired through the graph's current epoch.
 */
template <typename Side>
class FamilyProvider
{
  public:
    /**
     * @param side Edge side the units index.
     * @param degree_bound K.
     * @param layout Consecutive (TigrV) or Coalesced (TigrV+).
     * @param maintained Virtual array maintained over @p side, or null
     *        to recompute each family from the side's geometry.
     */
    FamilyProvider(Side side, NodeId degree_bound,
                   transform::EdgeLayout layout,
                   const dynamic::IncrementalVirtualizer *maintained =
                       nullptr)
        : side_(side), degreeBound_(degree_bound), layout_(layout),
          maintained_(maintained),
          cost_(costModelFor(layout == transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
        assert(!maintained ||
               (maintained->degreeBound() == degree_bound &&
                maintained->layout() == layout));
    }

    /** Destination of edge slot @p e. */
    NodeId edgeTarget(EdgeIndex e) const { return side_.target(e); }

    /** Weight of edge slot @p e, parallel to edgeTarget. */
    Weight edgeWeight(EdgeIndex e) const { return side_.weight(e); }

    /** Value nodes = physical nodes (implicit value sync). */
    NodeId numValueNodes() const { return side_.numNodes(); }

    /** Tigr cost model of the layout. */
    const CostModel &cost() const { return cost_; }

    /** Virtual units honor the worklist like every Tigr design. */
    bool ignoresWorklist() const { return false; }

    /** Units node @p v decomposes into, in O(1). */
    std::uint64_t
    unitCountOf(NodeId v) const
    {
        return maintained_ ? maintained_->familyCountOf(v)
                           : transform::familySize(side_.degree(v),
                                                   degreeBound_);
    }

    /** Units across all nodes. */
    std::uint64_t
    numUnits() const
    {
        if (maintained_)
            return maintained_->numEntries();
        std::uint64_t total = 0;
        for (NodeId v = 0; v < numValueNodes(); ++v)
            total += unitCountOf(v);
        return total;
    }

    /** Visit the units of node @p v. */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        auto emit = [&fn](const transform::VirtualNode &node) {
            fn(WorkUnit{node.physicalId, node.start,
                        static_cast<std::uint32_t>(node.stride),
                        node.count});
        };
        if (maintained_) {
            for (const transform::VirtualNode &node :
                 maintained_->familyOf(v))
                emit(node);
            return;
        }
        transform::forEachVirtualNodeAt(v, side_.begin(v),
                                        side_.degree(v), degreeBound_,
                                        layout_, emit);
    }

    /** Visit every unit of every node, in node order. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    Side side_;
    NodeId degreeBound_;
    transform::EdgeLayout layout_;
    const dynamic::IncrementalVirtualizer *maintained_;
    CostModel cost_;
};

} // namespace tigr::engine
