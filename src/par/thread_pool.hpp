/**
 * @file
 * The host execution backend: a small persistent thread pool that the
 * engines, transforms, and oracles share.
 *
 * The pool intentionally exposes only one primitive — run(job), which
 * invokes job(worker) once per worker, with the caller participating as
 * worker 0 — because every parallel loop in the code base is built on
 * a *fixed chunk decomposition* (see parallel_for.hpp). That discipline
 * is what makes every parallelized result bit-identical across thread
 * counts: work is decomposed into chunks whose structure depends only
 * on the input, never on how many threads execute them or which thread
 * claims which chunk. The same property lets a pool be lent: a
 * borrowing handle's loops take help from whichever of the lender's
 * threads are free (see ThreadPool).
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace tigr::par {

/** Upper bound on a requested thread count; requests beyond it are
 *  configuration errors, not capacity hints. */
inline constexpr unsigned kMaxThreads = 1024;

/**
 * Parse a thread-count string strictly: a plain decimal integer in
 * [1, kMaxThreads]. Rejects 0, negatives, garbage, trailing text, and
 * overflow — `@p origin` names the setting ("TIGR_THREADS", "--threads")
 * in the error message.
 *
 * @throws std::invalid_argument with a message explaining what was
 *         given and what is accepted.
 */
unsigned parseThreadCount(std::string_view text, std::string_view origin);

/** Thread count used when nothing is requested: $TIGR_THREADS when set
 *  (and non-empty), otherwise std::thread::hardware_concurrency()
 *  (never 0).
 *  @throws std::invalid_argument when TIGR_THREADS is set to 0, a
 *          negative number, or anything that is not a plain integer in
 *          [1, kMaxThreads] — a misconfigured environment fails loudly
 *          instead of silently falling back to the hardware default. */
unsigned defaultThreads();

/** Resolve a requested thread count: a positive request wins verbatim;
 *  0 defers to defaultThreads() (and thereby the TIGR_THREADS
 *  override). Always in [1, kMaxThreads].
 *  @throws std::invalid_argument when @p requested exceeds kMaxThreads
 *          — the same bound parseThreadCount enforces on strings. */
unsigned resolveThreads(unsigned requested);

/**
 * Persistent worker pool. A pool of T threads owns T-1 background
 * workers; the thread calling run() acts as worker 0, so a 1-thread
 * pool spawns nothing and runs the job inline.
 *
 * run() is not reentrant: calling it from inside a job on the same pool
 * throws std::logic_error (nested parallelism would deadlock the
 * generation barrier). Exceptions thrown by workers are captured and
 * the one from the lowest worker index is rethrown to the caller after
 * every worker has finished.
 *
 * Lending. A pool can be borrowed: ThreadPool(lender) makes a handle
 * that spawns nothing and reports the lender's threads(). Its run(job)
 * publishes the job as a region, runs worker 0 on the calling thread,
 * and returns once that call and every helper that joined have
 * finished. Helpers are the threads of a lender run() — workers or the
 * caller — whose own job already returned: they help until every job
 * of that run has returned. Each helper takes a distinct worker id
 * in [1, threads()). So a borrowed job runs as worker 0 plus any
 * subset of the other ids, possibly none, and must claim its work
 * dynamically rather than split it by worker id; forEachChunk does.
 * Once any call of a borrowed job returns, no further helper joins
 * that region (a returning call means no work is left to claim).
 */
class ThreadPool
{
  public:
    /** @param threads Pool size; 0 = resolveThreads(0) (the
     *  TIGR_THREADS / hardware default). */
    explicit ThreadPool(unsigned threads = 0);
    /** A borrowing handle on @p lender, an owning pool (see the class
     *  comment); the lender must outlive it. */
    explicit ThreadPool(ThreadPool &lender);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers including the caller (>= 1). */
    unsigned threads() const { return threadCount_; }

    /** True for a handle made by the borrowing constructor. */
    bool borrowed() const { return lender_ != nullptr; }

    /** Invoke job(worker) once per worker id in [0, threads()), the
     *  caller executing worker 0; on a borrowed handle, worker 0 plus
     *  the helpers that join. Returns after every call finished;
     *  rethrows the lowest-indexed captured worker exception. */
    void run(const std::function<void(unsigned)> &job);

    /** True while a run() on this pool is in flight (used by the
     *  nested-call guard). */
    bool inParallelRegion() const
    {
        return active_.load(std::memory_order_relaxed);
    }

  private:
    struct Region;

    void workerMain(unsigned id);
    /** run() of a borrowing handle with threads() > 1. */
    void runBorrowed(const std::function<void(unsigned)> &job);
    /** Retire one returned job of the current run; once none is left,
     *  release the threads lending themselves (mutex_ held). */
    void finishJob();
    /** Lend the calling thread to open regions until every job of the
     *  current run has returned (mutex_ held). */
    void lendUntilRunDone(std::unique_lock<std::mutex> &lock);
    /** Run one helper call of the open region with the fewest helpers
     *  (mutex_ held on entry and exit; open_ must be non-empty). */
    void helpOne(std::unique_lock<std::mutex> &lock);

    unsigned threadCount_ = 1;
    /** The pool a borrowing handle publishes its regions on. */
    ThreadPool *lender_ = nullptr;
    std::vector<std::thread> workers_;
    std::vector<std::exception_ptr> errors_;

    std::mutex mutex_;
    /** Wakes workers: a new run, shutdown, and for helpers a newly
     *  open region or the last job of the run returning. */
    std::condition_variable wake_;
    /** Wakes run() callers (pending_ reached 0) and region owners (a
     *  helper left). */
    std::condition_variable done_;
    const std::function<void(unsigned)> *job_ = nullptr;
    std::uint64_t generation_ = 0;
    /** Background workers not yet finished with the current run. */
    unsigned pending_ = 0;
    /** Jobs of the current run (the caller's included) still running. */
    unsigned running_ = 0;
    /** Borrowed regions that can still take a helper. */
    std::vector<Region *> open_;
    bool stop_ = false;
    std::atomic<bool> active_{false};
};

} // namespace tigr::par
