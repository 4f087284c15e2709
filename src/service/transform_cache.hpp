/**
 * @file
 * TransformCache: a byte-budgeted LRU cache of built work-unit
 * schedules (the materialized transform of Section 4), shared across
 * queries so repeated analyses over the same (graph, strategy, K,
 * layout) reuse the virtual-node decomposition instead of rebuilding
 * it — the amortization the paper's Table 7 discussion argues for.
 */
#pragma once

#include <compare>
#include <cstddef>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>

#include "engine/graph_engine.hpp"
#include "engine/strategy.hpp"
#include "graph/csr.hpp"
#include "obs/metrics.hpp"

namespace tigr::par {
class ThreadPool;
}

namespace tigr::service {

/**
 * Cache key: which decomposition a query needs. The graph id names the
 * store entry; the pointer pins the exact Csr object the schedule was
 * built over, or reversed (engines verify it before reusing — see
 * SharedSchedule).
 * degreeBound doubles as the coalescing-relevant K; mwVirtualWarp only
 * matters for the MaximumWarp strategy but participates uniformly.
 */
struct TransformKey
{
    std::string graphId;
    const graph::Csr *graph = nullptr;
    engine::Strategy strategy = engine::Strategy::TigrVPlus;
    NodeId degreeBound = 10;
    unsigned mwVirtualWarp = 8;
    /** Mutation epoch of the store entry the schedule was built over:
     *  a mutated graph's queries key a fresh build, and entries from
     *  superseded epochs go stale (see invalidateStale) rather than
     *  ever being served for the new graph. */
    std::uint64_t epoch = 0;
    /** Which side of @ref graph the schedule indexes
     *  (engine::scheduleSide). A reversed entry also owns the reversed
     *  graph, and is charged for it. */
    engine::ScheduleSide side = engine::ScheduleSide::Forward;

    friend bool operator==(const TransformKey &,
                           const TransformKey &) = default;
    friend auto
    operator<=>(const TransformKey &a, const TransformKey &b)
    {
        return std::tie(a.graphId, a.graph, a.strategy, a.degreeBound,
                        a.mwVirtualWarp, a.epoch, a.side) <=>
               std::tie(b.graphId, b.graph, b.strategy, b.degreeBound,
                        b.mwVirtualWarp, b.epoch, b.side);
    }
};

/** Monotonic cache counters (never reset by eviction). */
struct TransformCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /** Bytes currently held (SharedSchedule::sizeInBytes: units +
     *  offsets arrays, plus reversed entries' graphs). */
    std::size_t bytes = 0;
    /** Entries currently held. */
    std::size_t entries = 0;
};

/**
 * LRU cache of SharedSchedule objects with a byte budget. Entries are
 * handed out as shared_ptr, so eviction never invalidates a schedule a
 * running query still holds — it only drops the cache's reference.
 *
 * Thread safety: all public methods are internally synchronized; the
 * schedule *build* happens under the lock, which serializes concurrent
 * getOrBuild calls for the same key (by design: building the same
 * decomposition twice is the waste this cache exists to avoid).
 */
class TransformCache
{
  public:
    /** @param byte_budget Max resident entry bytes; an entry larger
     *  than the whole budget is built and returned but not retained.
     *  @param metrics Optional registry mirroring the cache counters
     *  (cache.hits / cache.misses / cache.evictions, plus cache.bytes
     *  and cache.entries gauges), updated under the cache lock. */
    explicit TransformCache(std::size_t byte_budget,
                            obs::MetricsRegistry *metrics = nullptr);

    /** Cached schedule for @p key, or null; a hit refreshes LRU. */
    std::shared_ptr<const engine::SharedSchedule>
    get(const TransformKey &key);

    /**
     * Cached schedule for @p key, building (and caching) it on a miss.
     * @param pool Optional host pool for the build's parallel passes
     *        (the result is bit-identical at any thread count).
     * @param was_hit Optional out-param: true when the schedule came
     *        from the cache.
     * @param retained Optional out-param: true when the schedule is
     *        resident in the cache on return (a hit, or a miss that was
     *        retained). False means the caller holds the only reference
     *        — an oversized build, or a `cache.insert` injected fault —
     *        and the scheduler's degradation ladder may prefer dropping
     *        it for a zero-memory dynamic run (docs/resilience.md).
     *
     * Fault sites: `transform.build` fires before the build (thrown as
     * InjectedFault); `cache.insert` fires after a successful build and
     * suppresses retention only — the built schedule is still returned,
     * so a single injected insert failure degrades, never fails, the
     * query.
     */
    std::shared_ptr<const engine::SharedSchedule>
    getOrBuild(const TransformKey &key,
               par::ThreadPool *pool = nullptr,
               bool *was_hit = nullptr,
               bool *retained = nullptr);

    /** Drop every entry whose key references @p graph (call before a
     *  GraphStore::remove so no schedule outlives its graph). */
    void invalidateGraph(const graph::Csr *graph);

    /** Drop every entry for @p graph_id built over an epoch other than
     *  @p current_epoch. Called after a mutation publishes a new epoch:
     *  stale schedules can never be served (their key's epoch differs),
     *  so this only releases their memory early instead of waiting for
     *  LRU eviction. Returns the number of entries dropped. */
    std::size_t invalidateStale(std::string_view graph_id,
                                std::uint64_t current_epoch);

    /** Drop everything. */
    void clear();

    /** Current counters (snapshot under the lock). */
    TransformCacheStats stats() const;

    /** The configured byte budget. */
    std::size_t byteBudget() const { return byteBudget_; }

  private:
    struct Entry
    {
        TransformKey key;
        std::shared_ptr<const engine::SharedSchedule> schedule;
        std::size_t bytes = 0;
    };

    /** Evict LRU tails until bytes_ fits the budget. Lock held. */
    void enforceBudget();

    /** The mirror registry (the shared no-op one when unset). */
    obs::MetricsRegistry &metrics() const { return *metrics_; }
    /** Push the residency gauges into the registry. Lock held. */
    void publishGauges();

    std::size_t byteBudget_;
    obs::MetricsRegistry *metrics_;
    mutable std::mutex mutex_;
    /** MRU at front, LRU at back. */
    std::list<Entry> lru_;
    std::map<TransformKey, std::list<Entry>::iterator> index_;
    TransformCacheStats stats_;
};

} // namespace tigr::service
