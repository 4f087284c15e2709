/**
 * @file
 * Chunked parallel loops with a determinism contract.
 *
 * Every loop here cuts [0, count) into ceil(count/grain) fixed chunks —
 * a decomposition that depends only on the item count and the grain,
 * never on the number of threads — and workers claim chunks from a
 * shared counter. A caller that writes results into per-*chunk* slots
 * and reduces them in ascending chunk order therefore computes exactly
 * the same answer on 1, 2, or 64 threads, whichever thread ran which
 * chunk; see docs/parallelism.md for the full contract.
 */
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"

namespace tigr::par {

/** Default items per chunk. Large enough to amortize dispatch, small
 *  enough that real graphs produce many chunks per iteration. Fixed —
 *  results would otherwise depend on a tuning knob. */
inline constexpr std::uint64_t kDefaultGrain = 4096;

/** Number of chunks [0, count) decomposes into under @p grain. */
inline std::uint64_t
chunkCount(std::uint64_t count, std::uint64_t grain = kDefaultGrain)
{
    if (grain == 0)
        grain = 1;
    return (count + grain - 1) / grain;
}

/**
 * Invoke body(chunk, begin, end, worker) once per chunk of [0, count).
 * The pool's workers claim chunks from an atomic counter, so each
 * worker runs its chunks in ascending chunk order, and a borrowed
 * pool's owner runs every chunk alone when no helper joins. A null
 * pool (or a 1-thread pool, or a single chunk) runs every chunk on the
 * calling thread, in chunk order — the same chunk structure, so the
 * determinism contract holds by construction.
 */
template <typename Body>
void
forEachChunk(ThreadPool *pool, std::uint64_t count, std::uint64_t grain,
             Body &&body)
{
    if (grain == 0)
        grain = 1;
    const std::uint64_t chunks = chunkCount(count, grain);
    if (chunks == 0)
        return;
    auto run_chunk = [&](std::uint64_t chunk, unsigned worker) {
        const std::uint64_t begin = chunk * grain;
        const std::uint64_t end = std::min(count, begin + grain);
        body(chunk, begin, end, worker);
    };
    const unsigned nthreads = pool ? pool->threads() : 1;
    if (nthreads <= 1 || chunks == 1) {
        for (std::uint64_t chunk = 0; chunk < chunks; ++chunk)
            run_chunk(chunk, 0);
        return;
    }
    std::atomic<std::uint64_t> next{0};
    pool->run([&](unsigned worker) {
        for (std::uint64_t chunk =
                 next.fetch_add(1, std::memory_order_relaxed);
             chunk < chunks;
             chunk = next.fetch_add(1, std::memory_order_relaxed))
            run_chunk(chunk, worker);
    });
}

/** Element-wise wrapper: body(index, worker) for every index of
 *  [0, count), chunked as in forEachChunk. The body must only write to
 *  index-owned state (or per-worker scratch) to stay deterministic. */
template <typename Body>
void
parallelFor(ThreadPool *pool, std::uint64_t count, std::uint64_t grain,
            Body &&body)
{
    forEachChunk(pool, count, grain,
                 [&](std::uint64_t, std::uint64_t begin,
                     std::uint64_t end, unsigned worker) {
                     for (std::uint64_t i = begin; i < end; ++i)
                         body(i, worker);
                 });
}

/** One scratch slot per worker of a pool (slot 0 for a null pool).
 *  Index it with the worker id the loop body receives. Which chunks a
 *  worker id runs varies from run to run, so a slot is scratch only:
 *  nothing that reaches a result may carry over between chunks. */
template <typename T>
class PerWorker
{
  public:
    explicit PerWorker(const ThreadPool *pool)
        : slots_(pool ? pool->threads() : 1)
    {
    }

    unsigned size() const
    {
        return static_cast<unsigned>(slots_.size());
    }
    T &operator[](unsigned worker) { return slots_[worker]; }
    const T &operator[](unsigned worker) const
    {
        return slots_[worker];
    }

  private:
    std::vector<T> slots_;
};

/**
 * In-place exclusive prefix sum: values[i] becomes the sum of all
 * values[j], j < i. Parallelized as per-chunk partial sums, a serial
 * scan over the chunk totals, and a per-chunk rebase — exact for
 * integral T at any thread count.
 */
template <typename T>
void
chunkedExclusiveScan(ThreadPool *pool, std::vector<T> &values,
                     std::uint64_t grain = kDefaultGrain)
{
    const std::uint64_t n = values.size();
    if (n == 0)
        return;
    const std::uint64_t chunks = chunkCount(n, grain);
    std::vector<T> chunk_total(chunks);
    forEachChunk(pool, n, grain,
                 [&](std::uint64_t chunk, std::uint64_t begin,
                     std::uint64_t end, unsigned) {
                     T sum{};
                     for (std::uint64_t i = begin; i < end; ++i)
                         sum += values[i];
                     chunk_total[chunk] = sum;
                 });
    T running{};
    for (std::uint64_t chunk = 0; chunk < chunks; ++chunk) {
        T next = running + chunk_total[chunk];
        chunk_total[chunk] = running;
        running = next;
    }
    forEachChunk(pool, n, grain,
                 [&](std::uint64_t chunk, std::uint64_t begin,
                     std::uint64_t end, unsigned) {
                     T acc = chunk_total[chunk];
                     for (std::uint64_t i = begin; i < end; ++i) {
                         T next = acc + values[i];
                         values[i] = acc;
                         acc = next;
                     }
                 });
}

/**
 * Deterministic parallel compaction: collect every index i of
 * [0, count) with pred(i) true into @p out, in ascending order. Runs
 * the classic count-then-prefix-scan scheme over the fixed chunk
 * decomposition — per-chunk match counts, an exclusive scan fixing
 * each chunk's output offset, and a parallel fill at exact slots — so
 * the output vector is bit-identical at any thread count. @p pred must
 * be pure (it is evaluated twice per index, concurrently).
 */
template <typename Out, typename Pred>
void
chunkedCompact(ThreadPool *pool, std::uint64_t count, Pred &&pred,
               std::vector<Out> &out,
               std::uint64_t grain = kDefaultGrain)
{
    const std::uint64_t chunks = chunkCount(count, grain);
    // One slot per chunk plus a sentinel: after the exclusive scan the
    // sentinel holds the total match count.
    std::vector<std::uint64_t> offsets(chunks + 1, 0);
    forEachChunk(pool, count, grain,
                 [&](std::uint64_t chunk, std::uint64_t begin,
                     std::uint64_t end, unsigned) {
                     std::uint64_t found = 0;
                     for (std::uint64_t i = begin; i < end; ++i)
                         found += pred(i) ? 1 : 0;
                     offsets[chunk] = found;
                 });
    chunkedExclusiveScan(pool, offsets, grain);
    out.resize(offsets.back());
    forEachChunk(pool, count, grain,
                 [&](std::uint64_t chunk, std::uint64_t begin,
                     std::uint64_t end, unsigned) {
                     std::uint64_t slot = offsets[chunk];
                     for (std::uint64_t i = begin; i < end; ++i)
                         if (pred(i))
                             out[slot++] = static_cast<Out>(i);
                 });
}

} // namespace tigr::par
