/**
 * @file
 * Incremental maintenance of the virtual node array across mutation
 * epochs. The virtual split (Section 4 of the paper) is vertex-local —
 * a node's family is a pure function of (edge begin, degree, K,
 * layout) — so when a batch touches t of n vertices, only the touched
 * families need re-splitting.
 *
 * Entry starts address the DynamicGraph slack arena directly, so
 * "edge begin" is a vertex's arena segment begin. An untouched
 * family's start never changes when another vertex grows, so repair
 * is O(changed families) — no suffix sweep, no dense materialization
 * on the mutate→query path. canonicalNodes() converts to the dense
 * CSR addressing on demand (snapshot save, differential proof) and is
 * byte-identical to a from-scratch VirtualGraph build.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/types.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::par {
class ThreadPool;
}

namespace tigr::dynamic {

/** Which orientation of the graph the virtual array splits. */
enum class GraphSide
{
    /** Out-edges: the forward arena, degrees are outdegrees. */
    Out,
    /** In-edges: the reverse arena, degrees are indegrees. Entry
     *  starts address the reverse arena, and repair consumes
     *  EpochDelta::touchedIn. */
    In,
};

/** What one repair pass did. */
struct RepairStats
{
    /** Epoch the virtual array now reflects. */
    std::uint64_t epoch = 0;

    /** Vertices whose family was rebuilt. */
    std::size_t repairedVertices = 0;

    /** Rebuilt families whose entry count changed (degree crossed a
     *  multiple of K) — the expensive case a full rebuild pays for
     *  every vertex. */
    std::size_t resplitFamilies = 0;

    /** Families moved to the entry-arena tail because they outgrew
     *  their capacity. */
    std::size_t relocatedFamilies = 0;

    std::size_t entriesBefore = 0;
    std::size_t entriesAfter = 0;
};

/**
 * The virtual node array of a DynamicGraph, repaired in place across
 * epochs instead of rebuilt.
 *
 * Invariant (checked by differentialCheck and the dynamic tests):
 * after applyDelta() for every batch the graph absorbed,
 * canonicalNodes() is element-for-element identical to
 * `VirtualGraph(graph.toCsr(), K, layout).virtualNodes()`, the same
 * entries the snapshot container would persist.
 *
 * The virtualizer keeps a reference to the graph it was built from;
 * the graph must outlive the virtualizer and not move. After the graph
 * compacts (DynamicGraph::compact()) every arena slot may change, so
 * the caller must call rebase() before the next applyDelta() /
 * canonicalNodes(); the virtualizer tracks the graph's compaction
 * count and throws if the contract is broken rather than serving
 * stale slots.
 */
class IncrementalVirtualizer
{
  public:
    IncrementalVirtualizer() = default;

    /**
     * Build the initial array from @p graph's current state.
     *
     * @param pool Optional thread pool: the initial build (like
     *        rebase and canonicalization) parallelizes with a
     *        bit-identical result for any thread count.
     */
    IncrementalVirtualizer(const DynamicGraph &graph,
                           NodeId degree_bound,
                           transform::EdgeLayout layout,
                           par::ThreadPool *pool = nullptr,
                           GraphSide side = GraphSide::Out);

    NodeId degreeBound() const { return degreeBound_; }

    transform::EdgeLayout layout() const { return layout_; }

    GraphSide side() const { return side_; }

    /** Epoch of the graph state the array reflects. */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * The raw entry arena: vertex families live at familyOf(v) and
     * dead slack slots hold stale entries; use canonicalNodes() for
     * the dense-addressed array.
     */
    std::span<const transform::VirtualNode> virtualNodes() const
    {
        return nodes_;
    }

    /** Live entries across all families (excludes arena slack). */
    std::size_t numEntries() const { return liveEntries_; }

    /** Node @p v's family: its live entries, in emission order. */
    std::span<const transform::VirtualNode>
    familyOf(NodeId v) const
    {
        return {nodes_.data() + entryBegin_[v],
                static_cast<std::size_t>(entryCount_[v])};
    }

    /** Entry count of node @p v's family. */
    std::size_t
    familyCountOf(NodeId v) const
    {
        return static_cast<std::size_t>(entryCount_[v]);
    }

    /**
     * Canonical dense-addressed copy of the array: vertex-ordered,
     * slack-free, entry starts indexing the dense CSR toCsr() yields
     * (each start maps to dense_begin[v] + (start − arena_begin[v])).
     * Parallelized over @p pool with a bit-identical result for any
     * thread count.
     */
    std::vector<transform::VirtualNode>
    canonicalNodes(par::ThreadPool *pool = nullptr) const;

    /** Copy of the canonical array, e.g. for VirtualGraph::fromArrays
     *  or a snapshot save. */
    std::vector<transform::VirtualNode> nodesCopy() const
    {
        return canonicalNodes(nullptr);
    }

    /**
     * Repair the array for one applied batch. Deltas must arrive in
     * epoch order with no gaps (each DynamicGraph::apply result,
     * exactly once). The obs trace event `mutation.resplit` reports
     * the returned counters once per batch.
     *
     * Only changed families are re-emitted (a family whose degree
     * and segment begin are both unchanged costs nothing; a segment
     * the graph relocated is detected by its begin and re-emitted
     * even at equal degree) — O(touched), no sweep.
     *
     * @throws std::invalid_argument on an out-of-order delta.
     * @throws std::logic_error when the graph compacted since the
     *         last rebase().
     */
    RepairStats applyDelta(const EpochDelta &delta);

    /**
     * Rebuild a tight, vertex-ordered entry arena from the graph's
     * current geometry — the one residual sweep, run only when slots
     * actually moved wholesale: after DynamicGraph::compact(), and
     * when shouldCompactEntries() says the entry arena itself
     * accumulated too much slack.
     * Resynchronizes epoch() to the graph's current epoch (the rebuilt
     * array reflects the graph as-is, including any batch whose delta
     * never reached applyDelta). Parallelizes over @p pool,
     * bit-identical at any thread count.
     */
    RepairStats rebase(par::ThreadPool *pool = nullptr);

    /** Entry-arena slots not backing a live entry. */
    std::size_t
    entrySlackSlots() const
    {
        return nodes_.size() - numEntries();
    }

    /** True when the entry arena is worth rebasing: ≥64 slack slots
     *  and more slack than live entries (mirrors
     *  DynamicGraph::shouldCompact). */
    bool
    shouldCompactEntries() const
    {
        const std::size_t slack = entrySlackSlots();
        return slack >= 64 && slack * 2 > nodes_.size();
    }

  private:
    void rebuildArena(par::ThreadPool *pool);
    void requireFreshSlots(const char *what) const;

    /** The side's live degree of @p v (out- or in-degree). */
    EdgeIndex sideDegree(NodeId v) const;

    /** The side's arena segment begin of @p v. */
    EdgeIndex sideBegin(NodeId v) const;

    /** The side's touched list of @p delta. */
    const std::vector<TouchedVertex> &
    sideTouched(const EpochDelta &delta) const;

    NodeId degreeBound_ = 1;
    transform::EdgeLayout layout_ = transform::EdgeLayout::Coalesced;
    GraphSide side_ = GraphSide::Out;
    std::uint64_t epoch_ = 0;
    std::vector<transform::VirtualNode> nodes_;

    // Per-vertex (begin, count, capacity) into the nodes_ entry arena,
    // mirroring the graph's edge arena.
    const DynamicGraph *graph_ = nullptr;
    std::vector<EdgeIndex> entryBegin_;
    std::vector<EdgeIndex> entryCount_;
    std::vector<EdgeIndex> entryCap_;
    std::size_t liveEntries_ = 0;
    /** Graph compaction count at the last (re)base — applyDelta and
     *  canonicalNodes refuse to run when the graph compacted without
     *  a rebase() in between. */
    std::uint64_t compactionsSeen_ = 0;
};

/**
 * Prove the maintained array equals a from-scratch rebuild: materialize
 * @p graph as a dense CSR (reversed via toCsr().reversed() for an
 * In-side virtualizer, so the oracle is independent of the reverse
 * arena it checks), build a VirtualGraph with the virtualizer's
 * (K, layout), and compare the canonicalized array entry by entry,
 * plus each raw family's size and anchor at its arena segment.
 *
 * @return std::nullopt when byte-identical; otherwise a human-readable
 *         description of the first divergence.
 */
std::optional<std::string>
differentialCheck(const DynamicGraph &graph,
                  const IncrementalVirtualizer &virtualizer);

} // namespace tigr::dynamic
