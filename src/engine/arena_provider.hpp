/**
 * @file
 * Work-unit provider over an arena-addressed virtual array: queries run
 * straight off a DynamicGraph's slack arena and its
 * IncrementalVirtualizer, with no dense toCsr() materialization on the
 * mutate→query path (docs/dynamic.md, arena addressing).
 *
 * Work-unit starts are arena slot indices; the push driver reads edges
 * exclusively through edgeTarget()/edgeWeight(), which index the arena
 * target/weight arrays. Because every virtual entry owns slots inside
 * its vertex's live segment, the enumerated (source, target, weight)
 * triples — and therefore every analysis value — are identical to a
 * Schedule over toCsr(); only the slot numbers differ, which the warp
 * simulator's coalescing stats may observe but values never do.
 */
#pragma once

#include <cassert>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "engine/schedule.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::engine {

/**
 * Provider of TigrV / TigrV+ work units addressed into the slack
 * arena. Interchangeable with Schedule / DynamicVirtualProvider in
 * runPush; for runPull use ReverseArenaVirtualProvider, whose units
 * gather over the mirrored in-neighbor arena.
 *
 * Both the graph and the virtualizer are kept by reference and must
 * outlive the provider; the virtualizer must have been built with
 * StartAddressing::Arena over that same graph and repaired through the
 * graph's current epoch.
 */
class ArenaVirtualProvider
{
  public:
    ArenaVirtualProvider(const dynamic::DynamicGraph &graph,
                         const dynamic::IncrementalVirtualizer &virt)
        : graph_(&graph), virt_(&virt),
          cost_(costModelFor(virt.layout() ==
                                     transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
        assert(virt.addressing() ==
               dynamic::StartAddressing::Arena);
    }

    /** Destination stored in arena slot @p e. */
    NodeId edgeTarget(EdgeIndex e) const
    {
        return graph_->arenaTarget(e);
    }

    /** Weight stored in arena slot @p e, parallel to edgeTarget. */
    Weight edgeWeight(EdgeIndex e) const
    {
        return graph_->arenaWeight(e);
    }

    /** Value nodes = physical nodes (implicit value sync). */
    NodeId numValueNodes() const { return graph_->numNodes(); }

    /** Tigr cost model for the virtualizer's layout. */
    const CostModel &cost() const { return cost_; }

    /** The maintained array honors the worklist like every virtual
     *  design. */
    bool ignoresWorklist() const { return false; }

    /** Units node @p v decomposes into — O(1) off the entry arena's
     *  per-vertex family counts. */
    std::uint64_t unitCountOf(NodeId v) const
    {
        return virt_->familyCountOf(v);
    }

    /** Visit the maintained (arena-addressed) units of node @p v. */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        for (const transform::VirtualNode &node : virt_->familyOf(v)) {
            WorkUnit unit;
            unit.valueNode = node.physicalId;
            unit.start = node.start;
            unit.stride = static_cast<std::uint32_t>(node.stride);
            unit.count = node.count;
            fn(unit);
        }
    }

    /** Visit every unit of every node, in vertex order. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    const dynamic::DynamicGraph *graph_;
    const dynamic::IncrementalVirtualizer *virt_;
    CostModel cost_;
};

/**
 * Pull-side twin of ArenaVirtualProvider: units are virtual splits of
 * each node's *in*-segment in the reverse slack arena, so runPull can
 * gather straight off a mutated graph with no dense reversed rebuild.
 * A unit's value node is the gathering node and edgeTarget() yields
 * its original in-neighbors (reversed-graph out-edges), exactly the
 * contract runPull documents.
 *
 * The virtualizer must have been built with StartAddressing::Arena and
 * GraphSide::In over the same graph and repaired through its epoch.
 */
class ReverseArenaVirtualProvider
{
  public:
    ReverseArenaVirtualProvider(
        const dynamic::DynamicGraph &graph,
        const dynamic::IncrementalVirtualizer &virt)
        : graph_(&graph), virt_(&virt),
          cost_(costModelFor(virt.layout() ==
                                     transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
        assert(virt.addressing() ==
               dynamic::StartAddressing::Arena);
        assert(virt.side() == dynamic::GraphSide::In);
    }

    /** Source stored in reverse-arena slot @p e — the reversed
     *  graph's edge destination. */
    NodeId edgeTarget(EdgeIndex e) const
    {
        return graph_->inArenaSource(e);
    }

    /** Weight stored in reverse-arena slot @p e. */
    Weight edgeWeight(EdgeIndex e) const
    {
        return graph_->inArenaWeight(e);
    }

    /** Value nodes = physical nodes (implicit value sync). */
    NodeId numValueNodes() const { return graph_->numNodes(); }

    /** Tigr cost model for the virtualizer's layout. */
    const CostModel &cost() const { return cost_; }

    /** The maintained array honors the pull destination filter. */
    bool ignoresWorklist() const { return false; }

    /** Units node @p v's in-segment decomposes into. */
    std::uint64_t unitCountOf(NodeId v) const
    {
        return virt_->familyCountOf(v);
    }

    /** Visit the maintained (reverse-arena-addressed) units of node
     *  @p v. */
    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        for (const transform::VirtualNode &node : virt_->familyOf(v)) {
            WorkUnit unit;
            unit.valueNode = node.physicalId;
            unit.start = node.start;
            unit.stride = static_cast<std::uint32_t>(node.stride);
            unit.count = node.count;
            fn(unit);
        }
    }

    /** Visit every unit of every node, in vertex order. */
    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    const dynamic::DynamicGraph *graph_;
    const dynamic::IncrementalVirtualizer *virt_;
    CostModel cost_;
};

/**
 * On-the-fly arena provider: recomputes each family from the arena
 * geometry (segment begin + live degree) of either side at any
 * (K, layout), the dynamic-reasoning design applied to the slack
 * arena. Because a family is a pure function of (begin, degree, K,
 * layout), its units are identical — starts included — to what the
 * maintained ArenaVirtualProvider / ReverseArenaVirtualProvider
 * enumerate, so which provider serves a query is unobservable, even
 * in simulator statistics. Used when a query's (K, layout) differs
 * from the store-maintained virtualizers'.
 */
class ArenaSideProvider
{
  public:
    ArenaSideProvider(const dynamic::DynamicGraph &graph,
                      dynamic::GraphSide side, NodeId degree_bound,
                      transform::EdgeLayout layout)
        : graph_(&graph), side_(side), degreeBound_(degree_bound),
          layout_(layout),
          cost_(costModelFor(layout ==
                                     transform::EdgeLayout::Coalesced
                                 ? Strategy::TigrVPlus
                                 : Strategy::TigrV))
    {
    }

    NodeId edgeTarget(EdgeIndex e) const
    {
        return side_ == dynamic::GraphSide::Out
                   ? graph_->arenaTarget(e)
                   : graph_->inArenaSource(e);
    }

    Weight edgeWeight(EdgeIndex e) const
    {
        return side_ == dynamic::GraphSide::Out
                   ? graph_->arenaWeight(e)
                   : graph_->inArenaWeight(e);
    }

    NodeId numValueNodes() const { return graph_->numNodes(); }

    const CostModel &cost() const { return cost_; }

    bool ignoresWorklist() const { return false; }

    std::uint64_t unitCountOf(NodeId v) const
    {
        return transform::familySize(sideDegree(v), degreeBound_);
    }

    template <typename Fn>
    void
    forEachUnitOf(NodeId v, Fn &&fn) const
    {
        transform::forEachVirtualNodeAt(
            v, sideBegin(v), sideDegree(v), degreeBound_, layout_,
            [&fn](const transform::VirtualNode &node) {
                WorkUnit unit;
                unit.valueNode = node.physicalId;
                unit.start = node.start;
                unit.stride = static_cast<std::uint32_t>(node.stride);
                unit.count = node.count;
                fn(unit);
            });
    }

    template <typename Fn>
    void
    forEachUnit(Fn &&fn) const
    {
        for (NodeId v = 0; v < numValueNodes(); ++v)
            forEachUnitOf(v, fn);
    }

  private:
    EdgeIndex sideDegree(NodeId v) const
    {
        return side_ == dynamic::GraphSide::Out ? graph_->degree(v)
                                                : graph_->inDegree(v);
    }

    EdgeIndex sideBegin(NodeId v) const
    {
        return side_ == dynamic::GraphSide::Out
                   ? graph_->edgeBegin(v)
                   : graph_->inEdgeBegin(v);
    }

    const dynamic::DynamicGraph *graph_;
    dynamic::GraphSide side_;
    NodeId degreeBound_;
    transform::EdgeLayout layout_;
    CostModel cost_;
};

} // namespace tigr::engine
