/**
 * @file
 * Regression tests for thread-count parsing: `parseThreadCount` must
 * reject 0, negatives, garbage, trailing text, and overflow with a
 * clear error naming the offending setting, and the TIGR_THREADS
 * environment resolution must go through the same strict parser
 * instead of silently falling back to the hardware default. Numeric
 * requests (pool sizes, engine threads, scheduler workers) above
 * kMaxThreads are configuration errors too.
 */
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "engine/graph_engine.hpp"
#include "par/thread_pool.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/transform_cache.hpp"

namespace tigr::par {
namespace {

/** Restores TIGR_THREADS to unset after each test. */
class ThreadCountEnv : public ::testing::Test
{
  protected:
    void TearDown() override { unsetenv("TIGR_THREADS"); }
};

TEST(ParseThreadCount, AcceptsPlainPositiveIntegers)
{
    EXPECT_EQ(parseThreadCount("1", "--threads"), 1u);
    EXPECT_EQ(parseThreadCount("8", "--threads"), 8u);
    EXPECT_EQ(parseThreadCount("1024", "--threads"), kMaxThreads);
}

TEST(ParseThreadCount, RejectsZero)
{
    EXPECT_THROW(parseThreadCount("0", "--threads"),
                 std::invalid_argument);
    EXPECT_THROW(parseThreadCount("000", "--threads"),
                 std::invalid_argument);
}

TEST(ParseThreadCount, RejectsNegatives)
{
    EXPECT_THROW(parseThreadCount("-1", "--threads"),
                 std::invalid_argument);
    EXPECT_THROW(parseThreadCount("-8", "TIGR_THREADS"),
                 std::invalid_argument);
}

TEST(ParseThreadCount, RejectsGarbage)
{
    for (const char *bad : {"", " ", "abc", "4x", "x4", "4 ", " 4",
                            "+4", "0x10", "3.5", "1e3"}) {
        EXPECT_THROW(parseThreadCount(bad, "--threads"),
                     std::invalid_argument)
            << "accepted '" << bad << "'";
    }
}

TEST(ParseThreadCount, RejectsOverflow)
{
    EXPECT_THROW(parseThreadCount("1025", "--threads"),
                 std::invalid_argument);
    EXPECT_THROW(parseThreadCount("99999999999999999999", "--threads"),
                 std::invalid_argument);
}

TEST(ParseThreadCount, ErrorNamesTheSetting)
{
    try {
        parseThreadCount("0", "TIGR_THREADS");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("TIGR_THREADS"), std::string::npos) << what;
        EXPECT_NE(what.find("'0'"), std::string::npos) << what;
    }
}

TEST_F(ThreadCountEnv, ValidEnvWins)
{
    ASSERT_EQ(setenv("TIGR_THREADS", "6", 1), 0);
    EXPECT_EQ(defaultThreads(), 6u);
    EXPECT_EQ(resolveThreads(0), 6u);
}

TEST_F(ThreadCountEnv, EmptyEnvActsAsUnset)
{
    ASSERT_EQ(setenv("TIGR_THREADS", "", 1), 0);
    EXPECT_GE(defaultThreads(), 1u);
}

TEST_F(ThreadCountEnv, InvalidEnvFailsLoudly)
{
    for (const char *bad : {"0", "-3", "garbage", "4q", "1025"}) {
        ASSERT_EQ(setenv("TIGR_THREADS", bad, 1), 0);
        EXPECT_THROW(defaultThreads(), std::invalid_argument)
            << "TIGR_THREADS=" << bad;
        EXPECT_THROW(resolveThreads(0), std::invalid_argument)
            << "TIGR_THREADS=" << bad;
        // An explicit request never consults the environment.
        EXPECT_EQ(resolveThreads(3), 3u);
    }
}

// ------------------------------------------- numeric requests above the bound

TEST(ThreadCountBound, AcceptsTheBoundItself)
{
    EXPECT_EQ(resolveThreads(kMaxThreads), kMaxThreads);
}

TEST(ThreadCountBound, RejectsRequestsAboveTheBound)
{
    for (unsigned bad : {kMaxThreads + 1, 5000u, 100000u,
                         std::numeric_limits<unsigned>::max()}) {
        EXPECT_THROW(resolveThreads(bad), std::invalid_argument)
            << bad << " threads";
    }
    try {
        resolveThreads(5000);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("5000"), std::string::npos) << what;
        EXPECT_NE(what.find("1024"), std::string::npos) << what;
    }
}

TEST(ThreadCountBound, OversizedPoolThrows)
{
    EXPECT_THROW(ThreadPool pool(5000), std::invalid_argument);
}

TEST(ThreadCountBound, OversizedEngineThreadsThrow)
{
    graph::CooEdges coo(3);
    coo.add(0, 1, 1);
    coo.add(1, 2, 1);
    const graph::Csr graph = graph::Csr::fromCoo(coo);
    engine::EngineOptions options;
    options.threads = 5000;
    EXPECT_THROW(engine::GraphEngine(graph, options),
                 std::invalid_argument);
}

TEST(ThreadCountBound, OversizedSchedulerWorkersThrow)
{
    service::GraphStore store;
    service::TransformCache cache(std::size_t{1} << 20);
    service::SchedulerOptions options;
    options.workers = 100000;
    EXPECT_THROW(service::QueryScheduler(store, cache, options),
                 std::invalid_argument);
    options.workers = 1;
    options.buildThreads = 5000;
    EXPECT_THROW(service::QueryScheduler(store, cache, options),
                 std::invalid_argument);
}

} // namespace
} // namespace tigr::par
