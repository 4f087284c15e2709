/**
 * @file
 * Tests of the host execution backend: pool lifecycle, exception
 * propagation, the nested-run guard, the TIGR_THREADS resolution
 * rules, and the chunk-structure determinism contract the engines
 * build on (see docs/parallelism.md).
 */
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"

namespace tigr::par {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, SingleThreadPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<unsigned> seen;
    pool.run([&](unsigned worker) { seen.push_back(worker); });
    EXPECT_EQ(seen, std::vector<unsigned>{0u});
}

TEST(ThreadPool, EveryWorkerRunsExactlyOnce)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.threads(), 4u);
    std::mutex mutex;
    std::multiset<unsigned> seen;
    pool.run([&](unsigned worker) {
        std::lock_guard lock(mutex);
        seen.insert(worker);
    });
    EXPECT_EQ(seen, (std::multiset<unsigned>{0, 1, 2, 3}));
}

TEST(ThreadPool, SurvivesManyConsecutiveRuns)
{
    ThreadPool pool(3);
    std::atomic<int> total{0};
    for (int round = 0; round < 200; ++round)
        pool.run([&](unsigned) { ++total; });
    EXPECT_EQ(total.load(), 200 * 3);
}

TEST(ThreadPool, DestructionWithoutAnyRunIsClean)
{
    ThreadPool pool(4);
    // No run(): the destructor alone must join the idle workers.
}

TEST(ThreadPool, CallerExceptionPropagates)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.run([](unsigned worker) {
            if (worker == 0)
                throw std::runtime_error("caller boom");
        }),
        std::runtime_error);
    // The pool stays usable after a failed run.
    std::atomic<int> ran{0};
    pool.run([&](unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, BackgroundWorkerExceptionPropagates)
{
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.run([](unsigned worker) {
            if (worker == 1)
                throw std::runtime_error("worker boom");
        }),
        std::runtime_error);
}

TEST(ThreadPool, LowestWorkerIndexExceptionWins)
{
    ThreadPool pool(4);
    try {
        pool.run([](unsigned worker) {
            if (worker >= 1)
                throw std::runtime_error("worker " +
                                         std::to_string(worker));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker 1");
    }
}

TEST(ThreadPool, NestedRunOnSamePoolThrows)
{
    ThreadPool pool(2);
    EXPECT_FALSE(pool.inParallelRegion());
    EXPECT_THROW(pool.run([&](unsigned worker) {
        EXPECT_TRUE(pool.inParallelRegion());
        if (worker == 0)
            pool.run([](unsigned) {});
    }),
                 std::logic_error);
    EXPECT_FALSE(pool.inParallelRegion());
}

TEST(ThreadPool, RunOnDifferentPoolInsideJobIsAllowed)
{
    ThreadPool outer(2);
    ThreadPool inner(1); // 1-thread pools run inline: no deadlock.
    std::atomic<int> total{0};
    outer.run([&](unsigned worker) {
        if (worker == 0)
            inner.run([&](unsigned) { ++total; });
    });
    EXPECT_EQ(total.load(), 1);
}

// ------------------------------------------------------ borrowed pools

/** Spin until @p done() holds or a generous timeout passes; returns
 *  done(). Bounds the tests that wait for a helper to join. */
template <typename Pred>
bool
waitFor(Pred &&done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!done()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** What a borrowed forEachChunk saw: how often each chunk ran, and
 *  which worker ids ran chunks. */
struct ChunkLedger
{
    explicit ChunkLedger(std::uint64_t chunks) : runs(chunks) {}

    void record(std::uint64_t chunk, unsigned worker)
    {
        ++runs[chunk];
        std::lock_guard lock(mutex);
        workers.insert(worker);
    }
    std::size_t distinctWorkers()
    {
        std::lock_guard lock(mutex);
        return workers.size();
    }
    void expectEachChunkOnce() const
    {
        for (std::size_t chunk = 0; chunk < runs.size(); ++chunk)
            ASSERT_EQ(runs[chunk].load(), 1) << "chunk " << chunk;
    }

    std::vector<std::atomic<int>> runs;
    std::mutex mutex;
    std::set<unsigned> workers;
};

constexpr std::uint64_t kLedgerChunks = 64;

/** Run @p owner as worker 0 of a @p lender run whose other jobs return
 *  at once, so every other thread of the lender helps. */
template <typename Fn>
void
lendAll(ThreadPool &lender, Fn &&owner)
{
    lender.run([&](unsigned worker) {
        if (worker == 0)
            owner();
    });
}

TEST(BorrowedPool, ReportsTheLendersSizeAndSpawnsNothing)
{
    ThreadPool lender(4);
    ThreadPool borrowed(lender);
    EXPECT_TRUE(borrowed.borrowed());
    EXPECT_FALSE(lender.borrowed());
    EXPECT_EQ(borrowed.threads(), 4u);
    PerWorker<int> slots(&borrowed);
    EXPECT_EQ(slots.size(), 4u);
}

TEST(BorrowedPool, OwnerRunsAloneWhenNoRunIsLending)
{
    // No lender run() in flight: nobody helps, and the owner runs every
    // chunk as worker 0 without waiting.
    ThreadPool lender(4);
    ThreadPool borrowed(lender);
    ChunkLedger ledger(kLedgerChunks);
    forEachChunk(&borrowed, kLedgerChunks, 1,
                 [&](std::uint64_t chunk, std::uint64_t, std::uint64_t,
                     unsigned id) { ledger.record(chunk, id); });
    ledger.expectEachChunkOnce();
    EXPECT_EQ(ledger.workers, std::set<unsigned>{0u});
}

TEST(BorrowedPool, OwnerRunsAloneWhenEveryLenderWorkerIsBusy)
{
    // Workers 1..3 are busy with their own jobs until the owner is
    // done, so no helper can join: the owner must finish alone, with no
    // deadlock, as worker 0.
    ThreadPool lender(4);
    ChunkLedger ledger(kLedgerChunks);
    std::atomic<bool> owner_done{false};
    lender.run([&](unsigned worker) {
        if (worker != 0) {
            ASSERT_TRUE(waitFor([&] { return owner_done.load(); }));
            return;
        }
        ThreadPool borrowed(lender);
        forEachChunk(&borrowed, kLedgerChunks, 1,
                     [&](std::uint64_t chunk, std::uint64_t,
                         std::uint64_t, unsigned id) {
                         ledger.record(chunk, id);
                     });
        owner_done = true;
    });
    ledger.expectEachChunkOnce();
    EXPECT_EQ(ledger.workers, std::set<unsigned>{0u});
}

TEST(BorrowedPool, OneHelperJoinsOnceItsOwnJobReturned)
{
    // Worker 1's job returns at once, so it lends itself to the
    // owner's region; workers 2 and 3 stay busy.
    ThreadPool lender(4);
    ChunkLedger ledger(kLedgerChunks);
    std::atomic<bool> owner_done{false};
    lender.run([&](unsigned worker) {
        if (worker == 1)
            return;
        if (worker != 0) {
            ASSERT_TRUE(waitFor([&] { return owner_done.load(); }));
            return;
        }
        ThreadPool borrowed(lender);
        forEachChunk(&borrowed, kLedgerChunks, 1,
                     [&](std::uint64_t chunk, std::uint64_t,
                         std::uint64_t, unsigned id) {
                         ledger.record(chunk, id);
                         // Hold the owner's first chunk until the
                         // helper has run one.
                         if (id == 0 && chunk == 0)
                             waitFor([&] {
                                 return ledger.distinctWorkers() > 1;
                             });
                     });
        owner_done = true;
    });
    ledger.expectEachChunkOnce();
    EXPECT_EQ(ledger.workers, (std::set<unsigned>{0u, 1u}));
}

TEST(BorrowedPool, EveryHelperJoins)
{
    // Every other job of the lender run returns at once: all three
    // join the region, each under its own id below threads().
    ThreadPool lender(4);
    ChunkLedger ledger(kLedgerChunks);
    lendAll(lender, [&] {
        ThreadPool borrowed(lender);
        forEachChunk(&borrowed, kLedgerChunks, 1,
                     [&](std::uint64_t chunk, std::uint64_t,
                         std::uint64_t, unsigned id) {
                         ledger.record(chunk, id);
                         waitFor([&] {
                             return ledger.distinctWorkers() == 4;
                         });
                     });
    });
    ledger.expectEachChunkOnce();
    EXPECT_EQ(ledger.workers, (std::set<unsigned>{0u, 1u, 2u, 3u}));
}

TEST(BorrowedPool, RepeatedRegionsRunEveryChunkOnce)
{
    ThreadPool lender(3);
    lendAll(lender, [&] {
        ThreadPool borrowed(lender);
        for (int round = 0; round < 200; ++round) {
            ChunkLedger ledger(kLedgerChunks);
            forEachChunk(&borrowed, kLedgerChunks, 1,
                         [&](std::uint64_t chunk, std::uint64_t,
                             std::uint64_t, unsigned id) {
                             EXPECT_LT(id, borrowed.threads());
                             ledger.record(chunk, id);
                         });
            ledger.expectEachChunkOnce();
        }
    });
}

TEST(BorrowedPool, HelperExceptionReachesTheOwner)
{
    ThreadPool lender(2);
    lendAll(lender, [&] {
        ThreadPool borrowed(lender);
        std::atomic<bool> helper_threw{false};
        try {
            forEachChunk(&borrowed, kLedgerChunks, 1,
                         [&](std::uint64_t, std::uint64_t,
                             std::uint64_t, unsigned id) {
                             if (id != 0) {
                                 helper_threw = true;
                                 throw std::runtime_error("helper boom");
                             }
                             waitFor([&] { return helper_threw.load(); });
                         });
            ADD_FAILURE() << "expected the helper's exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "helper boom");
        }
        // The handle stays usable.
        std::atomic<int> ran{0};
        borrowed.run([&](unsigned) { ++ran; });
        EXPECT_GE(ran.load(), 1);
    });
}

TEST(BorrowedPool, OwnerExceptionWinsOverHelpers)
{
    ThreadPool lender(4);
    lendAll(lender, [&] {
        ThreadPool borrowed(lender);
        try {
            borrowed.run([](unsigned id) {
                throw std::runtime_error("worker " + std::to_string(id));
            });
            ADD_FAILURE() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "worker 0");
        }
    });
}

TEST(BorrowedPool, NestedRunOnTheSameHandleThrows)
{
    ThreadPool lender(2);
    ThreadPool borrowed(lender);
    EXPECT_THROW(borrowed.run([&](unsigned id) {
        EXPECT_TRUE(borrowed.inParallelRegion());
        if (id == 0)
            borrowed.run([](unsigned) {});
    }),
                 std::logic_error);
    EXPECT_FALSE(borrowed.inParallelRegion());
}

TEST(BorrowedPool, OneThreadLenderRunsInline)
{
    ThreadPool lender(1);
    ThreadPool borrowed(lender);
    std::vector<unsigned> seen;
    borrowed.run([&](unsigned worker) { seen.push_back(worker); });
    EXPECT_EQ(seen, std::vector<unsigned>{0u});
}

// ------------------------------------------------------ thread counts

TEST(ResolveThreads, PositiveRequestWinsVerbatim)
{
    EXPECT_EQ(resolveThreads(1), 1u);
    EXPECT_EQ(resolveThreads(7), 7u);
}

TEST(ResolveThreads, ZeroDefersToTigrThreadsEnv)
{
    ASSERT_EQ(setenv("TIGR_THREADS", "5", 1), 0);
    EXPECT_EQ(resolveThreads(0), 5u);
    EXPECT_EQ(defaultThreads(), 5u);
    // Garbage no longer falls back silently — see
    // tests/par/test_thread_count.cpp for the full rejection matrix.
    ASSERT_EQ(setenv("TIGR_THREADS", "not-a-number", 1), 0);
    EXPECT_THROW(resolveThreads(0), std::invalid_argument);
    ASSERT_EQ(unsetenv("TIGR_THREADS"), 0);
    EXPECT_GE(resolveThreads(0), 1u);
}

TEST(ResolveThreads, EnvOverrideDoesNotBeatExplicitRequest)
{
    ASSERT_EQ(setenv("TIGR_THREADS", "5", 1), 0);
    EXPECT_EQ(resolveThreads(2), 2u);
    ASSERT_EQ(unsetenv("TIGR_THREADS"), 0);
}

// ------------------------------------------------------------- chunks

TEST(ForEachChunk, EmptyRangeInvokesNothing)
{
    ThreadPool pool(2);
    int calls = 0;
    forEachChunk(&pool, 0, kDefaultGrain,
                 [&](std::uint64_t, std::uint64_t, std::uint64_t,
                     unsigned) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(&pool, 0, kDefaultGrain,
                [&](std::uint64_t, unsigned) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ForEachChunk, SingleElementRange)
{
    ThreadPool pool(4);
    std::vector<std::uint64_t> indices;
    parallelFor(&pool, 1, kDefaultGrain,
                [&](std::uint64_t i, unsigned worker) {
                    EXPECT_EQ(worker, 0u); // one chunk runs inline
                    indices.push_back(i);
                });
    EXPECT_EQ(indices, std::vector<std::uint64_t>{0});
}

TEST(ForEachChunk, ChunkStructureIndependentOfThreadCount)
{
    // The determinism contract: chunk boundaries depend only on
    // (count, grain), never on the pool.
    const std::uint64_t count = 10'000;
    const std::uint64_t grain = 128;
    auto boundaries = [&](ThreadPool *pool) {
        std::mutex mutex;
        std::vector<std::pair<std::uint64_t, std::uint64_t>> spans(
            chunkCount(count, grain));
        forEachChunk(pool, count, grain,
                     [&](std::uint64_t chunk, std::uint64_t begin,
                         std::uint64_t end, unsigned) {
                         std::lock_guard lock(mutex);
                         spans[chunk] = {begin, end};
                     });
        return spans;
    };
    ThreadPool two(2), eight(8);
    auto serial = boundaries(nullptr);
    EXPECT_EQ(serial, boundaries(&two));
    EXPECT_EQ(serial, boundaries(&eight));
    // Chunks tile [0, count) exactly.
    std::uint64_t expected_begin = 0;
    for (auto [begin, end] : serial) {
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LT(begin, end);
        expected_begin = end;
    }
    EXPECT_EQ(expected_begin, count);
}

TEST(ForEachChunk, EveryIndexVisitedExactlyOnce)
{
    ThreadPool pool(4);
    const std::uint64_t count = 50'000;
    std::vector<std::atomic<int>> visits(count);
    parallelFor(&pool, count, 64,
                [&](std::uint64_t i, unsigned) { ++visits[i]; });
    for (std::uint64_t i = 0; i < count; ++i)
        ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ForEachChunk, WorkerIdsStayInRange)
{
    ThreadPool pool(3);
    std::atomic<bool> ok{true};
    parallelFor(&pool, 10'000, 16, [&](std::uint64_t, unsigned worker) {
        if (worker >= pool.threads())
            ok = false;
    });
    EXPECT_TRUE(ok.load());
}

TEST(PerWorker, OneSlotPerWorkerAndOneForNullPool)
{
    ThreadPool pool(4);
    PerWorker<std::uint64_t> per_pool(&pool);
    EXPECT_EQ(per_pool.size(), 4u);
    PerWorker<std::uint64_t> per_null(nullptr);
    EXPECT_EQ(per_null.size(), 1u);

    parallelFor(&pool, 100'000, 64, [&](std::uint64_t i, unsigned w) {
        per_pool[w] += i;
    });
    std::uint64_t total = 0;
    for (unsigned w = 0; w < per_pool.size(); ++w)
        total += per_pool[w];
    EXPECT_EQ(total, 100'000ull * 99'999ull / 2);
}

TEST(ChunkedExclusiveScan, MatchesSerialScanAtAnyThreadCount)
{
    std::vector<std::uint64_t> input(12'345);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = (i * 2654435761u) % 97;

    std::vector<std::uint64_t> expected(input.size());
    std::exclusive_scan(input.begin(), input.end(), expected.begin(),
                        std::uint64_t{0});

    for (unsigned threads : {0u, 2u, 8u}) {
        ThreadPool pool(threads == 0 ? 1 : threads);
        std::vector<std::uint64_t> values = input;
        chunkedExclusiveScan(threads == 0 ? nullptr : &pool, values,
                             100);
        EXPECT_EQ(values, expected) << threads << " threads";
    }
}

TEST(ChunkedExclusiveScan, EmptyAndTinyVectors)
{
    ThreadPool pool(2);
    std::vector<std::uint64_t> empty;
    chunkedExclusiveScan(&pool, empty);
    EXPECT_TRUE(empty.empty());

    std::vector<std::uint64_t> one{41};
    chunkedExclusiveScan(&pool, one);
    EXPECT_EQ(one, std::vector<std::uint64_t>{0});
}

} // namespace
} // namespace tigr::par
