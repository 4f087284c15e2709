#include "transform/split_transform.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <random>
#include <utility>

#include "par/parallel_for.hpp"

namespace tigr::transform {

namespace {

/** Original nodes per chunk of the row-size and row-fill passes: small
 *  enough that a hub's family does not leave one chunk doing most of
 *  the work. */
constexpr std::uint64_t kRowGrain = 512;

} // namespace

Weight
dumbWeight(DumbWeightPolicy policy)
{
    switch (policy) {
      case DumbWeightPolicy::Zero:
        return kZeroWeight;
      case DumbWeightPolicy::Infinity:
        return kInfWeight;
      case DumbWeightPolicy::One:
        return 1;
    }
    return 0;
}

PhysicalTransformResult
SplitTransform::apply(const graph::Csr &input,
                      const SplitOptions &options) const
{
    const NodeId n = input.numNodes();
    const NodeId k = options.degreeBound;
    const Weight internal_weight = dumbWeight(options.weightPolicy);
    assert(k >= 1);

    PhysicalTransformResult result;
    result.originalNodes = n;
    result.stats.maxDegreeBefore = input.maxOutDegree();

    // Pass 1: plan every family and allocate split-node ids. Plans
    // are independent per node, so planning parallelizes across host
    // threads with a deterministic outcome (ids are assigned by a
    // serial sweep afterwards).
    result.rootOf.resize(n);
    for (NodeId v = 0; v < n; ++v)
        result.rootOf[v] = v;

    struct PlannedFamily
    {
        NodeId root;
        SplitPlan plan;
        NodeId firstNewId; // ids firstNewId .. firstNewId+memberCount-2
    };
    std::vector<PlannedFamily> planned;
    // memberId(f, m): global node id of member m of family f.
    auto memberId = [](const PlannedFamily &f, std::uint32_t m) {
        return m == 0 ? f.root : f.firstNewId + (m - 1);
    };

    std::vector<NodeId> high_degree;
    for (NodeId v = 0; v < n; ++v)
        if (input.degree(v) > k)
            high_degree.push_back(v);

    // Each plan lands in its own slot, so the loop is deterministic
    // for any worker count. An engine-owned pool is reused when given;
    // otherwise `threads` spins up a transient one, which pass 2's
    // row passes use too.
    std::vector<SplitPlan> plans(high_degree.size());
    std::unique_ptr<par::ThreadPool> local_pool;
    par::ThreadPool *pool = options.pool;
    if (!pool && options.threads > 1)
        pool = (local_pool =
                    std::make_unique<par::ThreadPool>(options.threads))
                   .get();
    par::parallelFor(pool, high_degree.size(), 1,
                     [&](std::uint64_t i, unsigned) {
                         plans[i] =
                             plan(input.degree(high_degree[i]), k);
                     });

    NodeId next_id = n;
    std::vector<NodeId> family_index(n, kInvalidNode);
    planned.reserve(high_degree.size());
    for (std::size_t i = 0; i < high_degree.size(); ++i) {
        NodeId v = high_degree[i];
        SplitPlan &p = plans[i];
        assert(p.memberCount >= 1);
        assert(p.ownerOfEdge.size() == input.degree(v));
        family_index[v] = static_cast<NodeId>(planned.size());
        planned.push_back({v, std::move(p), next_id});
        next_id += planned.back().plan.memberCount - 1;
    }

    const NodeId total_nodes = next_id;
    result.rootOf.resize(total_nodes);
    result.families.reserve(planned.size());
    for (const PlannedFamily &f : planned) {
        FamilyInfo info;
        info.root = f.root;
        info.members.reserve(f.plan.memberCount);
        for (std::uint32_t m = 0; m < f.plan.memberCount; ++m) {
            NodeId id = memberId(f, m);
            info.members.push_back(id);
            result.rootOf[id] = f.root;
        }
        result.families.push_back(std::move(info));
        result.stats.newEdges += f.plan.internalEdges.size();
        result.stats.newNodes += f.plan.memberCount - 1;
        ++result.stats.highDegreeNodes;
    }

    // Pass 2: write the transformed CSR in place. Every output row
    // belongs to one original node — an untouched node's own row, or
    // a member of its family — so row sizes and row fills both run
    // over original nodes, each touching only its own rows. A member's
    // row holds its owned original edges in slot order, then its
    // internal edges in plan order.
    std::vector<EdgeIndex> offsets(
        static_cast<std::size_t>(total_nodes) + 1, 0);
    par::parallelFor(pool, n, kRowGrain, [&](std::uint64_t i, unsigned) {
        const NodeId v = static_cast<NodeId>(i);
        const NodeId fi = family_index[v];
        if (fi == kInvalidNode) {
            offsets[v] = input.degree(v);
            return;
        }
        const PlannedFamily &f = planned[fi];
        for (std::uint32_t owner : f.plan.ownerOfEdge)
            ++offsets[memberId(f, owner)];
        for (auto [from, to] : f.plan.internalEdges)
            ++offsets[memberId(f, from)];
    });
    par::chunkedExclusiveScan(pool, offsets);
    std::vector<NodeId> cols(offsets.back());
    std::vector<Weight> weights(offsets.back());

    // Entry selection: where an incoming edge of original node v
    // lands. Clique and circular draw a seeded-random member per edge,
    // so their fill runs serially, in node order, to keep the draws in
    // one fixed sequence.
    const bool at_root = entryAtRoot();
    std::mt19937_64 rng(options.seed);
    auto entryOf = [&](NodeId v) -> NodeId {
        if (at_root)
            return v;
        const NodeId fi = family_index[v];
        if (fi == kInvalidNode)
            return v;
        const std::vector<NodeId> &members = result.families[fi].members;
        std::uniform_int_distribution<std::size_t> pick(
            0, members.size() - 1);
        return members[pick(rng)];
    };

    par::ThreadPool *fill_pool = at_root ? pool : nullptr;
    par::PerWorker<std::vector<EdgeIndex>> cursors(fill_pool);
    par::parallelFor(
        fill_pool, n, kRowGrain, [&](std::uint64_t i, unsigned worker) {
            const NodeId v = static_cast<NodeId>(i);
            const NodeId fi = family_index[v];
            const auto targets = input.outNeighbors(v);
            const auto row_weights = input.outWeights(v);
            if (fi == kInvalidNode) {
                // Untouched node: copy edges, retargeting split targets.
                const EdgeIndex slot = offsets[v];
                std::copy(row_weights.begin(), row_weights.end(),
                          weights.begin() + slot);
                for (std::size_t j = 0; j < targets.size(); ++j)
                    cols[slot + j] = entryOf(targets[j]);
                return;
            }
            const PlannedFamily &f = planned[fi];
            std::vector<EdgeIndex> &cursor = cursors[worker];
            cursor.resize(f.plan.memberCount);
            for (std::uint32_t m = 0; m < f.plan.memberCount; ++m)
                cursor[m] = offsets[memberId(f, m)];
            // Original out-edges, each owned by its planned member.
            for (std::size_t j = 0; j < targets.size(); ++j) {
                const EdgeIndex slot = cursor[f.plan.ownerOfEdge[j]]++;
                cols[slot] = entryOf(targets[j]);
                weights[slot] = row_weights[j];
            }
            // Internal family edges with the dumb weight.
            for (auto [from, to] : f.plan.internalEdges) {
                const EdgeIndex slot = cursor[from]++;
                cols[slot] = memberId(f, to);
                weights[slot] = internal_weight;
            }
        });

    result.graph = graph::Csr(std::move(offsets), std::move(cols),
                              std::move(weights));
    result.stats.maxDegreeAfter = result.graph.maxOutDegree();
    return result;
}

} // namespace tigr::transform
