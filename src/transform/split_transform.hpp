/**
 * @file
 * Physical split transformations (Section 3 of the paper).
 *
 * A split transformation rewrites every high-degree node (outdegree > K)
 * into a *family* of nodes whose degrees are bounded by K, redistributing
 * the original outgoing edges over the family and wiring the family
 * together with new "internal" edges that carry dumb weights
 * (Corollaries 2 and 3). Concrete topologies — clique, circular, star,
 * and the paper's uniform-degree tree — differ only in how they assign
 * edges to members and wire the members, so they plug into one shared
 * driver via the SplitPlan hook.
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace tigr::par {
class ThreadPool;
}

namespace tigr::transform {

/**
 * Weight written on transformation-introduced (internal) edges.
 *
 * Zero makes new edges invisible to additive path metrics — SSSP, BFS,
 * BC (Corollary 2). Infinity makes them invisible to min-along-path
 * metrics — SSWP (Corollary 3). One treats them as ordinary hops, which
 * is *incorrect* for weighted analyses and exists for experiments that
 * deliberately show why dumb weights matter.
 */
enum class DumbWeightPolicy
{
    Zero,
    Infinity,
    One,
};

/** The concrete weight value a policy writes on internal edges. */
Weight dumbWeight(DumbWeightPolicy policy);

/** Tuning knobs of a physical split transformation. */
struct SplitOptions
{
    /** Degree bound K: after the transformation every family member has
     *  outdegree <= max(K, small topology-specific hub size). */
    NodeId degreeBound = 10;
    /** Weight policy for the internal edges. */
    DumbWeightPolicy weightPolicy = DumbWeightPolicy::Zero;
    /** Seed for the random entry assignment used by clique/circular
     *  topologies (incoming edges land on a random family member). */
    std::uint64_t seed = 0x5449'4752'5544'5421ULL;
    /** Host threads for the planning phase and the output row
     *  passes (per-family plans and per-node rows are independent, so
     *  this parallelizes deterministically — the paper's Table 7 notes
     *  the transformation "can be parallelized"). Clique and circular
     *  fill rows serially: their random entry draws follow one fixed
     *  sequence. 0 or 1 = serial. Ignored when `pool` is set. */
    unsigned threads = 1;
    /** Existing worker pool to run on (takes precedence over
     *  `threads`); null = spin up `threads` workers, or run serial. */
    par::ThreadPool *pool = nullptr;
};

/** One transformed high-degree node: its root and all family members. */
struct FamilyInfo
{
    NodeId root;                   ///< The original node id (member 0).
    std::vector<NodeId> members;   ///< All members, root first.

    friend bool operator==(const FamilyInfo &,
                           const FamilyInfo &) = default;
};

/** Aggregate statistics of one physical transformation run. */
struct SplitStats
{
    std::uint64_t highDegreeNodes = 0; ///< Nodes that exceeded K.
    std::uint64_t newNodes = 0;        ///< Split nodes introduced.
    std::uint64_t newEdges = 0;        ///< Internal edges introduced.
    EdgeIndex maxDegreeBefore = 0;     ///< Max outdegree of the input.
    EdgeIndex maxDegreeAfter = 0;      ///< Max outdegree of the output.

    friend bool operator==(const SplitStats &,
                           const SplitStats &) = default;
};

/** Output of a physical split transformation. */
struct PhysicalTransformResult
{
    /** The transformed graph. Nodes [0, originalNodes) are the original
     *  ids; split nodes are appended after them. */
    graph::Csr graph;
    /** Node count of the input graph. */
    NodeId originalNodes = 0;
    /** For every node of the transformed graph, the original node it
     *  descends from (identity for untouched nodes and family roots). */
    std::vector<NodeId> rootOf;
    /** One entry per transformed high-degree node. */
    std::vector<FamilyInfo> families;
    /** Run statistics. */
    SplitStats stats;
};

/**
 * Topology-only description of one family: how the original out-edges
 * are assigned to members and how members are wired. Member 0 is always
 * the original node (the root); members 1..memberCount-1 are fresh.
 */
struct SplitPlan
{
    /** Total family size including the root. */
    std::uint32_t memberCount = 1;
    /** ownerOfEdge[i] = member index that keeps the i-th original
     *  outgoing edge. Size = original outdegree. */
    std::vector<std::uint32_t> ownerOfEdge;
    /** Internal (member -> member) edges; they carry the dumb weight. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> internalEdges;
};

/**
 * Base class of all physical split transformations (Definition 2).
 *
 * The shared apply() driver walks the graph, asks the concrete topology
 * for a SplitPlan per high-degree node, materializes families, and then
 * retargets incoming edges: to the family root when entryAtRoot() (star,
 * UDT — the root keeps all incoming edges) or to a seeded-random family
 * member otherwise (clique, circular, as in Figure 5).
 */
class SplitTransform
{
  public:
    virtual ~SplitTransform() = default;

    /** Human-readable topology name ("udt", "cliq", ...). */
    virtual std::string_view name() const = 0;

    /**
     * Plan the family for a node of outdegree @p degree under bound
     * @p degree_bound. Only called when degree > degree_bound.
     */
    virtual SplitPlan plan(EdgeIndex degree, NodeId degree_bound) const
        = 0;

    /** True when incoming edges must stay on the family root. */
    virtual bool entryAtRoot() const = 0;

    /** Transform @p input under @p options. */
    PhysicalTransformResult apply(const graph::Csr &input,
                                  const SplitOptions &options) const;
};

} // namespace tigr::transform
