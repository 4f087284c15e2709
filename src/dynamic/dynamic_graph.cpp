#include "dynamic/dynamic_graph.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "fault/fault.hpp"

namespace tigr::dynamic {

namespace {

[[noreturn]] void
rejectBatch(MutationErrorKind kind, std::size_t index,
            const Mutation &mutation, const std::string &why)
{
    throw MutationError(
        kind, index,
        "tigr: mutation " + std::to_string(index) + " (" +
            std::string(mutationKindName(mutation.kind)) + " " +
            std::to_string(mutation.src) + "->" +
            std::to_string(mutation.dst) + "): " + why);
}

} // namespace

DynamicGraph::DynamicGraph(const graph::Csr &source)
{
    const NodeId n = source.numNodes();
    begins_.assign(source.rowOffsets().begin(),
                   source.rowOffsets().end() - (n == 0 ? 0 : 1));
    if (n == 0)
        begins_.clear();
    degrees_.resize(n);
    caps_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        degrees_[v] = source.degree(v);
        caps_[v] = degrees_[v];
    }
    targets_ = source.colIndices();
    weights_ = source.weights();
    liveEdges_ = source.numEdges();

    // The reverse arena starts as the tight counting-sorted reversal:
    // in-segments ordered by source id, forward slot order within a
    // source — the invariant every mutation preserves.
    const graph::Csr rev = source.reversed();
    inBegins_.assign(rev.rowOffsets().begin(),
                     rev.rowOffsets().end() - (n == 0 ? 0 : 1));
    if (n == 0)
        inBegins_.clear();
    inDegrees_.resize(n);
    inCaps_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        inDegrees_[v] = rev.degree(v);
        inCaps_[v] = inDegrees_[v];
    }
    inSources_ = rev.colIndices();
    inWeights_ = rev.weights();
}

double
DynamicGraph::slackRatio() const
{
    const EdgeIndex slots = arenaSlots();
    if (slots == 0)
        return 0.0;
    return static_cast<double>(slackSlots()) /
           static_cast<double>(slots);
}

EpochDelta
DynamicGraph::apply(const MutationBatch &batch)
{
    const NodeId n = numNodes();

    // Phase 1: validate the whole batch against the projected edge
    // multiset before touching anything. Every in-range (src, dst) pair
    // the batch names gets one slot in a sorted flat table, seeded with
    // its live count — an equal_range over dst's in-segment, which is
    // sorted by source — and projected forward by in-batch inserts and
    // deletes in batch order.
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(batch.size());
    for (const Mutation &m : batch)
        if (m.src < n && m.dst < n)
            pairs.emplace_back(m.src, m.dst);
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    std::vector<std::int64_t> projected(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
        const auto sources = inNeighbors(pairs[k].second);
        const auto [lo, hi] = std::equal_range(
            sources.begin(), sources.end(), pairs[k].first);
        projected[k] = hi - lo;
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const Mutation &m = batch[i];
        if (m.src >= n)
            rejectBatch(MutationErrorKind::SourceOutOfRange, i, m,
                        "source node out of range (graph has " +
                            std::to_string(n) + " nodes)");
        if (m.dst >= n)
            rejectBatch(MutationErrorKind::TargetOutOfRange, i, m,
                        "target node out of range (graph has " +
                            std::to_string(n) + " nodes)");
        std::int64_t &count =
            projected[std::lower_bound(pairs.begin(), pairs.end(),
                                       std::make_pair(m.src, m.dst)) -
                      pairs.begin()];
        switch (m.kind) {
          case MutationKind::InsertEdge:
            ++count;
            break;
          case MutationKind::DeleteEdge:
            if (count <= 0)
                rejectBatch(MutationErrorKind::MissingEdge, i, m,
                            "no such edge to delete");
            --count;
            break;
          case MutationKind::UpdateWeight:
            if (count <= 0)
                rejectBatch(MutationErrorKind::MissingEdge, i, m,
                            "no such edge to reweight");
            break;
        }
    }

    // Validation passed; an injected fault here still leaves the graph
    // bit-for-bit unchanged.
    TIGR_FAULT_POINT(fault::Site::MutationApply);

    // Phase 2: apply in order, recording each touched vertex's degree
    // before the batch on both sides. Each mutation mirrors into the
    // reverse arena in the same pass, preserving the counting-sort
    // in-segment order.
    EpochDelta result;
    result.touched.reserve(batch.size());
    result.touchedIn.reserve(batch.size());
    for (const Mutation &m : batch) {
        result.touched.push_back({m.src, degrees_[m.src], 0});
        result.touchedIn.push_back({m.dst, inDegrees_[m.dst], 0});
        switch (m.kind) {
          case MutationKind::InsertEdge: {
            if (degrees_[m.src] == caps_[m.src])
                relocate(m.src, degrees_[m.src] + 1);
            const EdgeIndex slot = begins_[m.src] + degrees_[m.src];
            targets_[slot] = m.dst;
            weights_[slot] = m.weight;
            ++degrees_[m.src];

            // Reverse mirror: the new forward edge is last in its
            // segment, so among equal sources it ranks last — insert
            // at the upper bound of m.src in the sorted in-segment.
            if (inDegrees_[m.dst] == inCaps_[m.dst])
                relocateIn(m.dst, inDegrees_[m.dst] + 1);
            const auto sources = inSources_.begin() + inBegins_[m.dst];
            const auto end = sources + inDegrees_[m.dst];
            const auto pos = std::upper_bound(sources, end, m.src);
            const auto wpos =
                inWeights_.begin() + inBegins_[m.dst] + (pos - sources);
            std::copy_backward(pos, end, end + 1);
            std::copy_backward(wpos, wpos + (end - pos),
                               wpos + (end - pos) + 1);
            *pos = m.src;
            *wpos = m.weight;
            ++inDegrees_[m.dst];

            ++liveEdges_;
            ++result.inserts;
            break;
          }
          case MutationKind::DeleteEdge: {
            // Shift the remainder left: storage order within the
            // segment stays stable, matching what Csr::fromCoo of the
            // surgically edited edge list would produce.
            const auto targets = targets_.begin() + begins_[m.src];
            const auto end = targets + degrees_[m.src];
            const auto e = std::find(targets, end, m.dst);
            const auto we = weights_.begin() + begins_[m.src] +
                            (e - targets);
            std::copy(e + 1, end, e);
            std::copy(we + 1, we + (end - e), we);
            --degrees_[m.src];

            // Reverse mirror: the forward delete removed the first
            // (src, dst) instance, which is the first in-entry with
            // this source (equal sources keep forward slot order).
            const auto sources = inSources_.begin() + inBegins_[m.dst];
            const auto iend = sources + inDegrees_[m.dst];
            const auto ie = std::lower_bound(sources, iend, m.src);
            const auto iwe =
                inWeights_.begin() + inBegins_[m.dst] + (ie - sources);
            std::copy(ie + 1, iend, ie);
            std::copy(iwe + 1, iwe + (iend - ie), iwe);
            --inDegrees_[m.dst];

            --liveEdges_;
            ++result.deletes;
            break;
          }
          case MutationKind::UpdateWeight: {
            const auto targets = targets_.begin() + begins_[m.src];
            weights_[begins_[m.src] +
                     (std::find(targets, targets + degrees_[m.src],
                                m.dst) -
                      targets)] = m.weight;

            // Reverse mirror of the forward first-match rule.
            const auto sources = inSources_.begin() + inBegins_[m.dst];
            inWeights_[inBegins_[m.dst] +
                       (std::lower_bound(sources,
                                         sources + inDegrees_[m.dst],
                                         m.src) -
                        sources)] = m.weight;

            ++result.reweights;
            break;
          }
        }
    }

    // Sort the per-mutation records by vertex and keep each vertex's
    // first one (its degree before the batch); the degree after is the
    // live one.
    const auto settle = [](std::vector<TouchedVertex> &touched,
                           const std::vector<EdgeIndex> &degrees) {
        std::stable_sort(touched.begin(), touched.end(),
                         [](const TouchedVertex &a,
                            const TouchedVertex &b) {
                             return a.vertex < b.vertex;
                         });
        touched.erase(std::unique(touched.begin(), touched.end(),
                                  [](const TouchedVertex &a,
                                     const TouchedVertex &b) {
                                      return a.vertex == b.vertex;
                                  }),
                      touched.end());
        for (TouchedVertex &t : touched)
            t.newDegree = degrees[t.vertex];
    };
    settle(result.touched, degrees_);
    settle(result.touchedIn, inDegrees_);

    ++epoch_;
    result.epoch = epoch_;
    return result;
}

void
DynamicGraph::relocate(NodeId v, EdgeIndex need)
{
    // Growth slack proportional to the segment so a vertex absorbing a
    // stream of inserts relocates O(log d) times, with a small floor so
    // low-degree vertices do not relocate on every insert.
    const EdgeIndex new_cap =
        need + std::max<EdgeIndex>(4, need / 2);
    const EdgeIndex tail = arenaSlots();
    targets_.resize(tail + new_cap);
    weights_.resize(tail + new_cap);
    const EdgeIndex old_begin = begins_[v];
    const EdgeIndex d = degrees_[v];
    std::copy_n(targets_.begin() + old_begin, d,
                targets_.begin() + tail);
    std::copy_n(weights_.begin() + old_begin, d,
                weights_.begin() + tail);
    begins_[v] = tail;
    caps_[v] = new_cap;
    // The old block stays behind as dead slack until compact().
}

void
DynamicGraph::relocateIn(NodeId v, EdgeIndex need)
{
    const EdgeIndex new_cap =
        need + std::max<EdgeIndex>(4, need / 2);
    const EdgeIndex tail = inArenaSlots();
    inSources_.resize(tail + new_cap);
    inWeights_.resize(tail + new_cap);
    const EdgeIndex old_begin = inBegins_[v];
    const EdgeIndex d = inDegrees_[v];
    std::copy_n(inSources_.begin() + old_begin, d,
                inSources_.begin() + tail);
    std::copy_n(inWeights_.begin() + old_begin, d,
                inWeights_.begin() + tail);
    inBegins_[v] = tail;
    inCaps_[v] = new_cap;
}

bool
DynamicGraph::shouldCompact() const
{
    return slackSlots() >= 64 && slackSlots() * 2 > arenaSlots();
}

EdgeIndex
DynamicGraph::compact()
{
    TIGR_FAULT_POINT(fault::Site::MutationCompact);
    const EdgeIndex reclaimed = slackSlots();
    std::vector<NodeId> targets(liveEdges_);
    std::vector<Weight> weights(liveEdges_);
    EdgeIndex cursor = 0;
    for (NodeId v = 0; v < numNodes(); ++v) {
        const EdgeIndex d = degrees_[v];
        std::copy_n(targets_.begin() + begins_[v], d,
                    targets.begin() + cursor);
        std::copy_n(weights_.begin() + begins_[v], d,
                    weights.begin() + cursor);
        begins_[v] = cursor;
        caps_[v] = d;
        cursor += d;
    }
    targets_ = std::move(targets);
    weights_ = std::move(weights);

    // The reverse arena compacts in the same step, under the same
    // fault point and the same compaction counter — both virtualizers
    // rebase off one compactions() tick.
    std::vector<NodeId> sources(liveEdges_);
    std::vector<Weight> in_weights(liveEdges_);
    cursor = 0;
    for (NodeId v = 0; v < numNodes(); ++v) {
        const EdgeIndex d = inDegrees_[v];
        std::copy_n(inSources_.begin() + inBegins_[v], d,
                    sources.begin() + cursor);
        std::copy_n(inWeights_.begin() + inBegins_[v], d,
                    in_weights.begin() + cursor);
        inBegins_[v] = cursor;
        inCaps_[v] = d;
        cursor += d;
    }
    inSources_ = std::move(sources);
    inWeights_ = std::move(in_weights);

    ++compactions_;
    return reclaimed;
}

graph::Csr
DynamicGraph::toCsr() const
{
    std::vector<EdgeIndex> offsets(numNodes() + 1, 0);
    std::vector<NodeId> targets(liveEdges_);
    std::vector<Weight> weights(liveEdges_);
    EdgeIndex cursor = 0;
    for (NodeId v = 0; v < numNodes(); ++v) {
        offsets[v] = cursor;
        const EdgeIndex d = degrees_[v];
        std::copy_n(targets_.begin() + begins_[v], d,
                    targets.begin() + cursor);
        std::copy_n(weights_.begin() + begins_[v], d,
                    weights.begin() + cursor);
        cursor += d;
    }
    offsets[numNodes()] = cursor;
    return graph::Csr(std::move(offsets), std::move(targets),
                      std::move(weights));
}

graph::Csr
DynamicGraph::toReversedCsr() const
{
    std::vector<EdgeIndex> offsets(numNodes() + 1, 0);
    std::vector<NodeId> sources(liveEdges_);
    std::vector<Weight> weights(liveEdges_);
    EdgeIndex cursor = 0;
    for (NodeId v = 0; v < numNodes(); ++v) {
        offsets[v] = cursor;
        const EdgeIndex d = inDegrees_[v];
        std::copy_n(inSources_.begin() + inBegins_[v], d,
                    sources.begin() + cursor);
        std::copy_n(inWeights_.begin() + inBegins_[v], d,
                    weights.begin() + cursor);
        cursor += d;
    }
    offsets[numNodes()] = cursor;
    return graph::Csr(std::move(offsets), std::move(sources),
                      std::move(weights));
}

} // namespace tigr::dynamic
