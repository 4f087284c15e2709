/**
 * @file
 * Differential suite for DynamicGraph::apply: a reference slack arena
 * kept in this file runs the plain sequential algorithm — a full
 * out-segment scan per delete/reweight during validation, linear
 * position searches and element-by-element shifts on both sides,
 * std::map bookkeeping for the touched lists — and after every seeded
 * adversarial batch the production arena must match it exactly: the
 * dense forward and reversed CSRs, every segment's begin, degree and
 * capacity on both sides, the slack, and the touched/touchedIn lists.
 * Rejected batches must fail with the same MutationErrorKind at the
 * same batch position and leave both arenas untouched.
 */
#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"

namespace tigr::dynamic {
namespace {

/** The sequential reference arena: same layout rules, same growth
 *  policy, same compaction as DynamicGraph, written the simple way. */
class ReferenceArena
{
  public:
    explicit ReferenceArena(const graph::Csr &source)
    {
        adopt(source, out_);
        adopt(source.reversed(), in_);
        live_ = source.numEdges();
    }

    /** Apply @p batch; a rejection throws before any state changes. */
    EpochDelta
    apply(const MutationBatch &batch)
    {
        const NodeId n = static_cast<NodeId>(out_.degrees.size());
        std::map<std::pair<NodeId, NodeId>, std::int64_t> delta;
        const auto live_count = [&](NodeId src, NodeId dst) {
            std::int64_t count = 0;
            for (EdgeIndex e = 0; e < out_.degrees[src]; ++e)
                if (out_.ids[out_.begins[src] + e] == dst)
                    ++count;
            return count;
        };
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mutation &m = batch[i];
            if (m.src >= n)
                throw MutationError(MutationErrorKind::SourceOutOfRange,
                                    i, "source");
            if (m.dst >= n)
                throw MutationError(MutationErrorKind::TargetOutOfRange,
                                    i, "target");
            const auto key = std::make_pair(m.src, m.dst);
            switch (m.kind) {
              case MutationKind::InsertEdge:
                ++delta[key];
                break;
              case MutationKind::DeleteEdge:
                if (live_count(m.src, m.dst) + delta[key] <= 0)
                    throw MutationError(MutationErrorKind::MissingEdge,
                                        i, "delete");
                --delta[key];
                break;
              case MutationKind::UpdateWeight:
                if (live_count(m.src, m.dst) + delta[key] <= 0)
                    throw MutationError(MutationErrorKind::MissingEdge,
                                        i, "reweight");
                break;
            }
        }

        std::map<NodeId, EdgeIndex> old_out;
        std::map<NodeId, EdgeIndex> old_in;
        EpochDelta result;
        for (const Mutation &m : batch) {
            old_out.emplace(m.src, out_.degrees[m.src]);
            old_in.emplace(m.dst, in_.degrees[m.dst]);
            switch (m.kind) {
              case MutationKind::InsertEdge: {
                Side &o = out_;
                if (o.degrees[m.src] == o.caps[m.src])
                    relocate(o, m.src);
                const EdgeIndex slot = o.begins[m.src] + o.degrees[m.src];
                o.ids[slot] = m.dst;
                o.weights[slot] = m.weight;
                ++o.degrees[m.src];

                Side &r = in_;
                if (r.degrees[m.dst] == r.caps[m.dst])
                    relocate(r, m.dst);
                const EdgeIndex ib = r.begins[m.dst];
                const EdgeIndex id = r.degrees[m.dst];
                EdgeIndex pos = ib;
                while (pos < ib + id && r.ids[pos] <= m.src)
                    ++pos;
                for (EdgeIndex j = ib + id; j > pos; --j) {
                    r.ids[j] = r.ids[j - 1];
                    r.weights[j] = r.weights[j - 1];
                }
                r.ids[pos] = m.src;
                r.weights[pos] = m.weight;
                ++r.degrees[m.dst];
                ++live_;
                ++result.inserts;
                break;
              }
              case MutationKind::DeleteEdge:
                erase(out_, m.src, m.dst);
                erase(in_, m.dst, m.src);
                --live_;
                ++result.deletes;
                break;
              case MutationKind::UpdateWeight:
                out_.weights[firstMatch(out_, m.src, m.dst)] = m.weight;
                in_.weights[firstMatch(in_, m.dst, m.src)] = m.weight;
                ++result.reweights;
                break;
            }
        }
        result.epoch = ++epoch_;
        for (const auto &[v, old_degree] : old_out)
            result.touched.push_back({v, old_degree, out_.degrees[v]});
        for (const auto &[v, old_degree] : old_in)
            result.touchedIn.push_back({v, old_degree, in_.degrees[v]});
        return result;
    }

    bool
    shouldCompact() const
    {
        const EdgeIndex slack = out_.ids.size() - live_;
        return slack >= 64 && slack * 2 > out_.ids.size();
    }

    void
    compact()
    {
        tighten(out_);
        tighten(in_);
    }

    /** Both sides must equal @p dg slot for slot. */
    void
    expectMatches(const DynamicGraph &dg) const
    {
        ASSERT_EQ(dg.numNodes(), out_.degrees.size());
        EXPECT_EQ(dg.numEdges(), live_);
        EXPECT_EQ(dg.epoch(), epoch_);
        EXPECT_EQ(dg.arenaSlots(), out_.ids.size());
        EXPECT_EQ(dg.slackSlots(), out_.ids.size() - live_);
        EXPECT_EQ(dg.inArenaSlots(), in_.ids.size());
        EXPECT_EQ(dg.inSlackSlots(), in_.ids.size() - live_);
        const auto begins = dg.segmentBegins();
        const auto degrees = dg.segmentDegrees();
        const auto in_begins = dg.inSegmentBegins();
        const auto in_degrees = dg.inSegmentDegrees();
        EXPECT_TRUE(std::equal(begins.begin(), begins.end(),
                               out_.begins.begin(), out_.begins.end()));
        EXPECT_TRUE(std::equal(degrees.begin(), degrees.end(),
                               out_.degrees.begin(),
                               out_.degrees.end()));
        EXPECT_TRUE(std::equal(in_begins.begin(), in_begins.end(),
                               in_.begins.begin(), in_.begins.end()));
        EXPECT_TRUE(std::equal(in_degrees.begin(), in_degrees.end(),
                               in_.degrees.begin(), in_.degrees.end()));
        for (NodeId v = 0; v < dg.numNodes(); ++v) {
            EXPECT_EQ(dg.capacity(v), out_.caps[v]) << "vertex " << v;
            EXPECT_EQ(dg.inCapacity(v), in_.caps[v]) << "vertex " << v;
        }
        EXPECT_EQ(dg.toCsr(), dense(out_));
        EXPECT_EQ(dg.toReversedCsr(), dense(in_));
    }

    /** Live (src, dst) instance counts, for generating valid edits. */
    std::map<std::pair<NodeId, NodeId>, std::int64_t>
    pairCounts() const
    {
        std::map<std::pair<NodeId, NodeId>, std::int64_t> counts;
        for (NodeId v = 0; v < out_.degrees.size(); ++v)
            for (EdgeIndex e = 0; e < out_.degrees[v]; ++e)
                ++counts[{v, out_.ids[out_.begins[v] + e]}];
        return counts;
    }

  private:
    /** One side of the arena: per-vertex segments over shared arrays. */
    struct Side
    {
        std::vector<EdgeIndex> begins, degrees, caps;
        std::vector<NodeId> ids;
        std::vector<Weight> weights;
    };

    static void
    adopt(const graph::Csr &csr, Side &side)
    {
        for (NodeId v = 0; v < csr.numNodes(); ++v) {
            side.begins.push_back(csr.edgeBegin(v));
            side.degrees.push_back(csr.degree(v));
            side.caps.push_back(csr.degree(v));
        }
        side.ids = csr.colIndices();
        side.weights = csr.weights();
    }

    /** Move @p v's segment to the tail with room for one more. */
    static void
    relocate(Side &side, NodeId v)
    {
        const EdgeIndex need = side.degrees[v] + 1;
        const EdgeIndex cap = need + std::max<EdgeIndex>(4, need / 2);
        const EdgeIndex tail = side.ids.size();
        side.ids.resize(tail + cap);
        side.weights.resize(tail + cap);
        for (EdgeIndex j = 0; j < side.degrees[v]; ++j) {
            side.ids[tail + j] = side.ids[side.begins[v] + j];
            side.weights[tail + j] = side.weights[side.begins[v] + j];
        }
        side.begins[v] = tail;
        side.caps[v] = cap;
    }

    static EdgeIndex
    firstMatch(const Side &side, NodeId v, NodeId id)
    {
        EdgeIndex e = side.begins[v];
        while (side.ids[e] != id)
            ++e;
        return e;
    }

    static void
    erase(Side &side, NodeId v, NodeId id)
    {
        const EdgeIndex end = side.begins[v] + side.degrees[v];
        for (EdgeIndex j = firstMatch(side, v, id); j + 1 < end; ++j) {
            side.ids[j] = side.ids[j + 1];
            side.weights[j] = side.weights[j + 1];
        }
        --side.degrees[v];
    }

    static void
    tighten(Side &side)
    {
        Side tight;
        for (NodeId v = 0; v < side.degrees.size(); ++v) {
            tight.begins.push_back(tight.ids.size());
            tight.degrees.push_back(side.degrees[v]);
            tight.caps.push_back(side.degrees[v]);
            for (EdgeIndex j = 0; j < side.degrees[v]; ++j) {
                tight.ids.push_back(side.ids[side.begins[v] + j]);
                tight.weights.push_back(side.weights[side.begins[v] + j]);
            }
        }
        side = std::move(tight);
    }

    static graph::Csr
    dense(const Side &side)
    {
        std::vector<EdgeIndex> offsets{0};
        std::vector<NodeId> ids;
        std::vector<Weight> weights;
        for (NodeId v = 0; v < side.degrees.size(); ++v) {
            for (EdgeIndex j = 0; j < side.degrees[v]; ++j) {
                ids.push_back(side.ids[side.begins[v] + j]);
                weights.push_back(side.weights[side.begins[v] + j]);
            }
            offsets.push_back(ids.size());
        }
        return graph::Csr(std::move(offsets), std::move(ids),
                          std::move(weights));
    }

    Side out_;
    Side in_;
    EdgeIndex live_ = 0;
    std::uint64_t epoch_ = 0;
};

/** The adversarial regimes a batch is drawn from. */
enum class Regime
{
    Parallel,      ///< Few pairs, many instances: first-match ordering.
    InsertDelete,  ///< Insert-then-delete, delete-then-reweight.
    Hub,           ///< Every edit on or into a handful of hubs.
    Relocation,    ///< Many inserts into one vertex per batch.
    Hostile,       ///< Random pairs and out-of-range ids: rejections.
};

/**
 * Draw one batch of @p regime against the live pair counts @p counts
 * (projected forward as the batch is built, so every regime except
 * Hostile stays valid).
 */
MutationBatch
drawBatch(Regime regime, NodeId n,
          std::map<std::pair<NodeId, NodeId>, std::int64_t> counts,
          std::mt19937_64 &rng)
{
    const auto pick = [&](NodeId bound) {
        return static_cast<NodeId>(rng() % bound);
    };
    const auto weight = [&] { return static_cast<Weight>(1 + rng() % 50); };
    // A live pair among the projected counts (the first with src >= a
    // random id, wrapping), or nullopt when none is live.
    const auto live_pair = [&]() -> std::optional<std::pair<NodeId, NodeId>> {
        auto it = counts.lower_bound({pick(n), 0});
        for (std::size_t scanned = 0; scanned <= counts.size();
             ++scanned, ++it) {
            if (it == counts.end())
                it = counts.begin();
            if (it == counts.end())
                return std::nullopt;
            if (it->second > 0)
                return it->first;
        }
        return std::nullopt;
    };

    MutationBatch batch;
    const auto insert = [&](NodeId src, NodeId dst) {
        batch.push_back({MutationKind::InsertEdge, src, dst, weight()});
        ++counts[{src, dst}];
    };
    const auto remove = [&](std::pair<NodeId, NodeId> pair) {
        batch.push_back({MutationKind::DeleteEdge, pair.first,
                         pair.second, 1});
        --counts[pair];
    };
    const auto reweight = [&](std::pair<NodeId, NodeId> pair) {
        batch.push_back({MutationKind::UpdateWeight, pair.first,
                         pair.second, weight()});
    };

    const std::size_t size = 1 + rng() % 48;
    switch (regime) {
      case Regime::Parallel: {
        const NodeId src = pick(n), dst = pick(n);
        for (std::size_t i = 0; i < size; ++i) {
            const NodeId s = rng() % 4 == 0 ? pick(n) : src;
            switch (rng() % 3) {
              case 0: insert(s, dst); break;
              case 1:
                if (counts[{s, dst}] > 0)
                    remove({s, dst});
                else
                    insert(s, dst);
                break;
              case 2:
                if (counts[{s, dst}] > 0)
                    reweight({s, dst});
                else
                    insert(s, dst);
                break;
            }
        }
        break;
      }
      case Regime::InsertDelete:
        for (std::size_t i = 0; i < size; ++i) {
            const NodeId src = pick(n), dst = pick(n);
            if (rng() % 2 == 0) {
                insert(src, dst);
                remove({src, dst});
            } else if (const auto pair = live_pair()) {
                remove(*pair);
                if (counts[*pair] > 0)
                    reweight(*pair);
                else
                    insert(pair->first, pair->second);
            }
        }
        break;
      case Regime::Hub:
        for (std::size_t i = 0; i < size; ++i) {
            const NodeId hub = pick(3);
            const NodeId other = pick(n);
            const bool out = rng() % 2 == 0;
            const NodeId src = out ? hub : other;
            const NodeId dst = out ? other : hub;
            const auto present = counts.find({src, dst});
            if (present != counts.end() && present->second > 0 &&
                rng() % 2 == 0) {
                if (rng() % 2 == 0)
                    remove({src, dst});
                else
                    reweight({src, dst});
            } else {
                insert(src, dst);
            }
        }
        break;
      case Regime::Relocation: {
        const NodeId src = pick(n), dst = pick(n);
        for (std::size_t i = 0; i < size + 24; ++i)
            insert(rng() % 2 == 0 ? src : pick(n),
                   rng() % 2 == 0 ? dst : pick(n));
        break;
      }
      case Regime::Hostile:
        for (std::size_t i = 0; i < size; ++i) {
            const NodeId src =
                rng() % 40 == 0 ? n + pick(3) : pick(n);
            const NodeId dst =
                rng() % 40 == 0 ? n + pick(3) : pick(n);
            const MutationKind kind =
                static_cast<MutationKind>(rng() % 3);
            batch.push_back({kind, src, dst, weight()});
        }
        break;
    }
    return batch;
}

/** Apply @p batch to both arenas: identical deltas, or identical
 *  rejections (kind and position) with neither arena changed. */
void
applyBoth(DynamicGraph &dg, ReferenceArena &ref,
          const MutationBatch &batch)
{
    std::optional<MutationError> want_error;
    std::optional<EpochDelta> want;
    try {
        want = ref.apply(batch);
    } catch (const MutationError &e) {
        want_error = e;
    }
    try {
        const EpochDelta got = dg.apply(batch);
        ASSERT_FALSE(want_error.has_value())
            << "reference rejected at " << want_error->index();
        EXPECT_EQ(got.epoch, want->epoch);
        EXPECT_EQ(got.touched, want->touched);
        EXPECT_EQ(got.touchedIn, want->touchedIn);
        EXPECT_EQ(got.inserts, want->inserts);
        EXPECT_EQ(got.deletes, want->deletes);
        EXPECT_EQ(got.reweights, want->reweights);
    } catch (const MutationError &e) {
        ASSERT_TRUE(want_error.has_value()) << e.what();
        EXPECT_EQ(e.kind(), want_error->kind()) << e.what();
        EXPECT_EQ(e.index(), want_error->index()) << e.what();
    }
}

class ApplyDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ApplyDifferential, MatchesTheSequentialReferenceBatchByBatch)
{
    const std::uint64_t seed = GetParam();
    const graph::Csr source = graph::Csr::fromCoo(
        graph::rmat({.nodes = 48, .edges = 420, .seed = seed}));
    DynamicGraph dg(source);
    ReferenceArena ref(source);
    ref.expectMatches(dg);

    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::size_t rejected = 0;
    for (std::size_t b = 0; b < 160; ++b) {
        const Regime regime = static_cast<Regime>(b % 5);
        const MutationBatch batch =
            drawBatch(regime, dg.numNodes(), ref.pairCounts(), rng);
        SCOPED_TRACE("batch " + std::to_string(b) + " regime " +
                     std::to_string(b % 5));
        const std::uint64_t epoch = dg.epoch();
        applyBoth(dg, ref, batch);
        if (dg.epoch() == epoch) {
            // Only the hostile regime may draw an invalid batch.
            EXPECT_EQ(regime, Regime::Hostile);
            ++rejected;
        }
        if (ref.shouldCompact()) {
            ASSERT_TRUE(dg.shouldCompact());
            dg.compact();
            ref.compact();
        }
        ref.expectMatches(dg);
        if (::testing::Test::HasFailure())
            return;
    }
    // The hostile regime really exercised the rejection path.
    EXPECT_GT(rejected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApplyDifferential,
                         ::testing::Range<std::uint64_t>(1, 9),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

TEST(ApplyDifferential, MissingEdgeBeforeOutOfRangeWinsByPosition)
{
    graph::CooEdges coo(4);
    coo.add(0, 1, 5);
    coo.add(1, 2, 6);
    const graph::Csr source = graph::Csr::fromCoo(coo);
    DynamicGraph dg(source);
    ReferenceArena ref(source);

    // A missing edge at 1 precedes an out-of-range source at 2.
    applyBoth(dg, ref,
              {{MutationKind::InsertEdge, 2, 3, 1},
               {MutationKind::DeleteEdge, 3, 0, 1},
               {MutationKind::InsertEdge, 9, 0, 1}});
    // An out-of-range target at 1 precedes a missing reweight at 2.
    applyBoth(dg, ref,
              {{MutationKind::DeleteEdge, 0, 1, 1},
               {MutationKind::InsertEdge, 0, 4, 1},
               {MutationKind::UpdateWeight, 0, 1, 7}});
    // Delete-then-reweight of the only instance is missing at 1.
    applyBoth(dg, ref,
              {{MutationKind::DeleteEdge, 1, 2, 1},
               {MutationKind::UpdateWeight, 1, 2, 7}});
    EXPECT_EQ(dg.epoch(), 0u);
    ref.expectMatches(dg);

    try {
        dg.apply({{MutationKind::InsertEdge, 2, 3, 1},
                  {MutationKind::DeleteEdge, 3, 0, 1},
                  {MutationKind::InsertEdge, 9, 0, 1}});
        FAIL() << "batch should be rejected";
    } catch (const MutationError &e) {
        EXPECT_EQ(e.kind(), MutationErrorKind::MissingEdge);
        EXPECT_EQ(e.index(), 1u);
    }
}

} // namespace
} // namespace tigr::dynamic
