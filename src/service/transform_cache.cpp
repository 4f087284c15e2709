#include "service/transform_cache.hpp"

#include "fault/fault.hpp"
#include "par/thread_pool.hpp"

namespace tigr::service {

TransformCache::TransformCache(std::size_t byte_budget,
                               obs::MetricsRegistry *metrics)
    : byteBudget_(byte_budget),
      metrics_(metrics ? metrics : &obs::MetricsRegistry::disabled())
{
}

void
TransformCache::publishGauges()
{
    metrics().gauge("cache.bytes").set(stats_.bytes);
    metrics().gauge("cache.entries").set(stats_.entries);
}

std::shared_ptr<const engine::SharedSchedule>
TransformCache::get(const TransformKey &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        metrics().counter("cache.misses").add();
        return nullptr;
    }
    ++stats_.hits;
    metrics().counter("cache.hits").add();
    lru_.splice(lru_.begin(), lru_, it->second); // refresh to MRU
    return it->second->schedule;
}

std::shared_ptr<const engine::SharedSchedule>
TransformCache::getOrBuild(const TransformKey &key,
                           par::ThreadPool *pool, bool *was_hit,
                           bool *retained)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        ++stats_.hits;
        metrics().counter("cache.hits").add();
        lru_.splice(lru_.begin(), lru_, it->second);
        if (was_hit)
            *was_hit = true;
        if (retained)
            *retained = true;
        return it->second->schedule;
    }

    ++stats_.misses;
    metrics().counter("cache.misses").add();
    if (was_hit)
        *was_hit = false;
    if (retained)
        *retained = false;

    TIGR_FAULT_POINT(fault::Site::TransformBuild);

    std::shared_ptr<const engine::SharedSchedule> shared =
        engine::SharedSchedule::build(*key.graph, key.side, key.strategy,
                                      key.degreeBound,
                                      key.mwVirtualWarp, pool);

    const std::size_t bytes = shared->sizeInBytes();
    if (bytes > byteBudget_)
        return shared; // oversized: hand out, don't retain
    // An injected insert failure likewise suppresses retention only —
    // the built schedule is still good, so hand it out.
    if (fault::armed() && fault::fired(fault::Site::CacheInsert))
        return shared;

    lru_.push_front(Entry{key, shared, bytes});
    index_[key] = lru_.begin();
    stats_.bytes += bytes;
    stats_.entries = lru_.size();
    enforceBudget();
    publishGauges();
    if (retained)
        *retained = true;
    return shared;
}

void
TransformCache::enforceBudget()
{
    while (stats_.bytes > byteBudget_ && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        stats_.bytes -= victim.bytes;
        ++stats_.evictions;
        metrics().counter("cache.evictions").add();
        index_.erase(victim.key);
        lru_.pop_back();
    }
    stats_.entries = lru_.size();
}

void
TransformCache::invalidateGraph(const graph::Csr *graph)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->key.graph == graph) {
            stats_.bytes -= it->bytes;
            ++stats_.evictions;
            metrics().counter("cache.evictions").add();
            index_.erase(it->key);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
    stats_.entries = lru_.size();
    publishGauges();
}

std::size_t
TransformCache::invalidateStale(std::string_view graph_id,
                                std::uint64_t current_epoch)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t dropped = 0;
    for (auto it = lru_.begin(); it != lru_.end();) {
        if (it->key.graphId == graph_id &&
            it->key.epoch != current_epoch) {
            stats_.bytes -= it->bytes;
            ++stats_.evictions;
            ++dropped;
            metrics().counter("cache.evictions").add();
            index_.erase(it->key);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
    stats_.entries = lru_.size();
    publishGauges();
    return dropped;
}

void
TransformCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.evictions += lru_.size();
    metrics().counter("cache.evictions").add(lru_.size());
    lru_.clear();
    index_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
    publishGauges();
}

TransformCacheStats
TransformCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace tigr::service
