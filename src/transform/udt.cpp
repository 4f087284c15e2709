#include "transform/udt.hpp"

#include <cassert>
#include <deque>

namespace tigr::transform {

namespace {

/** Queue item of Algorithm 1: an original out-edge slot or a member. */
struct QueueItem
{
    bool isMember;      ///< False: original edge slot; true: split node.
    std::uint32_t id;   ///< Edge slot index or member index.
};

} // namespace

SplitPlan
UdtTransform::plan(EdgeIndex degree, NodeId degree_bound) const
{
    const NodeId k = degree_bound;
    assert(k >= 2 && "UDT requires K >= 2 to terminate");
    assert(degree > k);

    SplitPlan result;
    result.ownerOfEdge.resize(degree);

    // Algorithm 1: the queue starts with all original neighbors (here:
    // edge slots); each new node adopts K popped items and re-enters the
    // queue; the root adopts the final <= K items. Items are only ever
    // appended and popped from the front, and each new member removes
    // K-1 items net, so one array with a read cursor holds the whole
    // queue history.
    // ceil((degree - K) / (K - 1)) new members, one internal edge each.
    const std::uint64_t new_members = (degree - 2) / (k - 1);
    std::vector<QueueItem> queue;
    queue.reserve(degree + new_members);
    for (std::uint32_t slot = 0; slot < degree; ++slot)
        queue.push_back({false, slot});
    result.internalEdges.reserve(new_members);

    auto adopt = [&](std::uint32_t member, const QueueItem &item) {
        if (item.isMember)
            result.internalEdges.emplace_back(member, item.id);
        else
            result.ownerOfEdge[item.id] = member;
    };
    std::size_t head = 0;
    std::uint32_t next_member = 1; // 0 is the root
    while (queue.size() - head > k) {
        std::uint32_t member = next_member++;
        for (NodeId i = 0; i < k; ++i)
            adopt(member, queue[head++]);
        queue.push_back({true, member});
    }
    for (; head < queue.size(); ++head)
        adopt(0, queue[head]);
    result.memberCount = next_member;
    return result;
}

unsigned
UdtTransform::treeHeight(EdgeIndex degree, NodeId degree_bound)
{
    const NodeId k = degree_bound;
    assert(k >= 2);
    if (degree <= k)
        return 0;

    // Replay Algorithm 1 tracking, per queue item, the internal-hop
    // distance from that item's subtree root to its deepest owned edge:
    // edge slots cost 0 (their adopter owns them directly), adopting a
    // member subtree costs one hop plus the subtree's own height.
    struct Item
    {
        bool isMember;
        unsigned height; // hops from this item to its deepest owned edge
    };
    std::deque<Item> queue(degree, Item{false, 0});
    while (queue.size() > k) {
        unsigned height = 0;
        for (NodeId i = 0; i < k; ++i) {
            Item item = queue.front();
            queue.pop_front();
            unsigned cost = item.isMember ? item.height + 1 : 0;
            height = std::max(height, cost);
        }
        queue.push_back(Item{true, height});
    }
    unsigned root_height = 0;
    for (const Item &item : queue) {
        unsigned cost = item.isMember ? item.height + 1 : 0;
        root_height = std::max(root_height, cost);
    }
    return root_height;
}

} // namespace tigr::transform
