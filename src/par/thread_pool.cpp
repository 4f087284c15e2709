#include "par/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "par/parse_int.hpp"

namespace tigr::par {

unsigned
parseThreadCount(std::string_view text, std::string_view origin)
{
    // The shared strict parser enforces the whole grammar (digits
    // only, no sign, no 0, no overflow); this wrapper only narrows
    // the range to the pool bound.
    return static_cast<unsigned>(
        parsePositiveInt(text, origin, kMaxThreads));
}

unsigned
defaultThreads()
{
    if (const char *env = std::getenv("TIGR_THREADS")) {
        // An empty export is treated as unset; anything else must be a
        // valid count — garbage fails loudly rather than silently
        // running at the hardware default.
        if (*env != '\0')
            return parseThreadCount(env, "TIGR_THREADS");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
resolveThreads(unsigned requested)
{
    if (requested > kMaxThreads) {
        throw std::invalid_argument(
            "tigr::par: " + std::to_string(requested) +
            " threads requested; at most " +
            std::to_string(kMaxThreads) + " are allowed");
    }
    return requested > 0 ? requested : defaultThreads();
}

/** One borrowed run(): the job, the helpers inside it, and their
 *  errors. Lives on the owner's stack; guarded by the lender's mutex
 *  except for a helper's own error slot. */
struct ThreadPool::Region
{
    const std::function<void(unsigned)> *job = nullptr;
    /** One slot per worker id; slot 0 is the owner's. */
    std::vector<std::exception_ptr> errors;
    /** Worker id the next helper takes. */
    unsigned nextId = 1;
    /** Helpers currently running the job. */
    unsigned inside = 0;
};

namespace {

void
rethrowLowest(const std::vector<std::exception_ptr> &errors)
{
    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threadCount_(resolveThreads(threads))
{
    errors_.resize(threadCount_);
    workers_.reserve(threadCount_ - 1);
    for (unsigned id = 1; id < threadCount_; ++id)
        workers_.emplace_back(&ThreadPool::workerMain, this, id);
}

ThreadPool::ThreadPool(ThreadPool &lender)
    : threadCount_(lender.threadCount_), lender_(&lender)
{
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::run(const std::function<void(unsigned)> &job)
{
    if (active_.exchange(true, std::memory_order_acquire)) {
        throw std::logic_error(
            "tigr::par: nested ThreadPool::run() on the same pool");
    }
    struct Release
    {
        std::atomic<bool> &flag;
        ~Release() { flag.store(false, std::memory_order_release); }
    } release{active_};

    if (threadCount_ == 1) {
        job(0); // 1-thread pool: plain inline call, exceptions flow.
        return;
    }
    if (lender_) {
        runBorrowed(job);
        return;
    }

    for (std::exception_ptr &error : errors_)
        error = nullptr;
    {
        std::lock_guard lock(mutex_);
        job_ = &job;
        pending_ = static_cast<unsigned>(workers_.size());
        running_ = threadCount_;
        ++generation_;
    }
    wake_.notify_all();

    try {
        job(0);
    } catch (...) {
        errors_[0] = std::current_exception();
    }

    {
        std::unique_lock lock(mutex_);
        finishJob();
        lendUntilRunDone(lock);
        done_.wait(lock, [&] { return pending_ == 0; });
        job_ = nullptr;
    }
    rethrowLowest(errors_);
}

void
ThreadPool::runBorrowed(const std::function<void(unsigned)> &job)
{
    ThreadPool &lender = *lender_;
    Region region;
    region.job = &job;
    region.errors.resize(threadCount_);
    {
        std::lock_guard lock(lender.mutex_);
        lender.open_.push_back(&region);
    }
    lender.wake_.notify_all();

    try {
        job(0);
    } catch (...) {
        region.errors[0] = std::current_exception();
    }

    {
        // Close the region to late helpers, then wait only for the
        // ones that joined.
        std::unique_lock lock(lender.mutex_);
        std::erase(lender.open_, &region);
        lender.done_.wait(lock, [&] { return region.inside == 0; });
    }
    rethrowLowest(region.errors);
}

void
ThreadPool::finishJob()
{
    if (--running_ == 0)
        wake_.notify_all();
}

void
ThreadPool::lendUntilRunDone(std::unique_lock<std::mutex> &lock)
{
    for (;;) {
        wake_.wait(lock,
                   [&] { return running_ == 0 || !open_.empty(); });
        if (running_ == 0)
            return;
        helpOne(lock);
    }
}

void
ThreadPool::helpOne(std::unique_lock<std::mutex> &lock)
{
    Region *region = *std::min_element(
        open_.begin(), open_.end(),
        [](const Region *a, const Region *b) {
            return a->inside < b->inside;
        });
    const unsigned id = region->nextId++;
    if (region->nextId == threadCount_)
        std::erase(open_, region); // every worker id is taken
    ++region->inside;
    lock.unlock();
    try {
        (*region->job)(id);
    } catch (...) {
        region->errors[id] = std::current_exception();
    }
    lock.lock();
    // The call returned, so no work is left to claim: later helpers
    // would only find an exhausted job.
    std::erase(open_, region);
    if (--region->inside == 0)
        done_.notify_all();
}

void
ThreadPool::workerMain(unsigned id)
{
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        const std::function<void(unsigned)> *job = job_;
        lock.unlock();
        try {
            (*job)(id);
        } catch (...) {
            errors_[id] = std::current_exception();
        }
        lock.lock();
        finishJob();
        lendUntilRunDone(lock);
        if (--pending_ == 0)
            done_.notify_all();
    }
}

} // namespace tigr::par
