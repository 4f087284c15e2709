/**
 * @file
 * Tests of the bench harness itself: the percentile rule, the mutation
 * generator's validity, the JSON writer's key order, and compare.py's
 * verdicts on fixed inputs.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "dynamic/dynamic_graph.hpp"
#include "harness.hpp"
#include "inputs.hpp"

namespace tigr::bench {
namespace {

namespace fs = std::filesystem;

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankIsAMeasuredSample)
{
    EXPECT_EQ(percentile({3, 1, 2}, 50), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2);
    EXPECT_EQ(percentile(oneTo(100), 90), 90);
    EXPECT_EQ(percentile(oneTo(100), 100), 100);
}

TEST(Percentile, TailKeepsTenSamplesBeyondIt)
{
    const auto p90 = supportedTail(oneTo(100));
    ASSERT_TRUE(p90);
    EXPECT_EQ(p90->percentile, 90u);
    EXPECT_EQ(p90->value, 90);
    EXPECT_EQ(p90->samples, 100u);

    const auto p93 = supportedTail(oneTo(150));
    ASSERT_TRUE(p93);
    EXPECT_EQ(p93->percentile, 93u);
    EXPECT_EQ(p93->value, 140); // ten samples (141..150) lie above it

    const auto p50 = supportedTail(oneTo(20));
    ASSERT_TRUE(p50);
    EXPECT_EQ(p50->percentile, 50u);
    EXPECT_EQ(p50->value, 10);

    EXPECT_FALSE(supportedTail(oneTo(19)));
    EXPECT_FALSE(supportedTail({}));
}

TEST(MutationStream, EveryBatchAppliesAndMixesKinds)
{
    const graph::Csr g = makeGraph(7, 10);
    MutationStream stream(g, 7);
    dynamic::DynamicGraph arena(g);
    for (int b = 0; b < 200; ++b) {
        const dynamic::MutationBatch batch = stream.next();
        ASSERT_EQ(batch.size(), stream.batchSize());
        std::size_t kinds[3] = {0, 0, 0};
        std::size_t hot = 0;
        for (const dynamic::Mutation &m : batch) {
            ++kinds[static_cast<int>(m.kind)];
            hot += m.src < kHotSpan ? 1 : 0;
        }
        EXPECT_EQ(kinds[0], kinds[1]);
        EXPECT_EQ(kinds[1], kinds[2]);
        EXPECT_GE(2 * hot, batch.size() - 3);
        ASSERT_NO_THROW(arena.apply(batch)) << "batch " << b;
    }
    EXPECT_EQ(arena.epoch(), 200u);
}

TEST(MutationStream, SameSeedSameBatches)
{
    const graph::Csr g = makeGraph(3, 10);
    MutationStream a(g, 3), b(g, 3), c(g, 4);
    const auto first = a.next();
    EXPECT_EQ(first, b.next());
    EXPECT_NE(first, c.next());
}

TEST(Json, KeysComeOutSortedWhateverTheInsertionOrder)
{
    Json doc;
    doc["zeta"] = 1;
    doc["alpha"]["y"] = true;
    doc["alpha"]["b"] = "text";
    doc["mid"] = 0.1 + 0.2;
    Json list = Json::array();
    list.push(3);
    list.push(nullptr);
    doc["list"] = list;
    const std::string expected =
        R"({"alpha":{"b":"text","y":true},"list":[3,null],)"
        R"("mid":0.30000000000000004,"zeta":1})";
    EXPECT_EQ(doc.dump(0), expected);
    EXPECT_EQ(Json::parse(doc.dump()).dump(0), expected);
}

TEST(Json, ParseReadsWhatTheWriterWrites)
{
    const Json doc = Json::parse(
        R"({"a": [1, 2.5e3, -4], "b": {"c": "q\"x"}, "d": false})");
    EXPECT_EQ(doc.find("a")->elements()->at(1).number(), 2500);
    EXPECT_EQ(*doc.find("b")->find("c")->string(), "q\"x");
    EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
}

TEST(Spans, SelfTimeExcludesChildren)
{
    SpanRecorder rec;
    {
        Span outer(&rec, "outer");
        Span inner(&rec, "inner");
        ::usleep(2000);
    }
    const auto s = rec.summarize();
    ASSERT_EQ(s.at("outer").count, 1u);
    EXPECT_GE(s.at("inner").totalMs, 2.0);
    EXPECT_LT(s.at("outer").selfMs, s.at("inner").totalMs);
    EXPECT_EQ(rec.records().at(1).parent, 0);
}

// compare.py ----------------------------------------------------------

class Compare : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        root_ = fs::temp_directory_path() /
                ("tigr_bench_compare_" + std::to_string(::getpid()));
        fs::remove_all(root_);
        fs::create_directories(root_);
        std::ofstream(root_ / "BENCHMARK.json") << R"({
  "workloads": [{"name": "w", "why": "fixture"}],
  "end_to_end": [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.05},
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}
  ]
})";
    }

    void TearDown() override { fs::remove_all(root_); }

    /** One result dir per value: BENCH_w.json with latency @p ms and
     *  throughput 1000 / ms. */
    std::vector<std::string>
    dirs(const std::string &side, const std::vector<double> &ms)
    {
        std::vector<std::string> out;
        for (std::size_t i = 0; i < ms.size(); ++i) {
            const fs::path dir = root_ / (side + std::to_string(i));
            fs::create_directories(dir);
            Json doc;
            doc["end_to_end"]["latency_p50_ms"]["value"] = ms[i];
            doc["end_to_end"]["requests_per_s"]["value"] = 1000.0 / ms[i];
            writeJson(dir / "BENCH_w.json", doc);
            out.push_back(dir.string());
        }
        return out;
    }

    /** Run compare.py; returns its exit code and fills @p output. */
    int
    compare(const std::vector<double> &base, const std::vector<double> &next,
            std::string &output)
    {
        std::string cmd = std::string(TIGR_BENCH_PYTHON) + " " +
                          TIGR_BENCH_COMPARE + " --benchmark " +
                          (root_ / "BENCHMARK.json").string() + " --base";
        for (const std::string &d : dirs("base", base))
            cmd += " " + d;
        cmd += " --new";
        for (const std::string &d : dirs("new", next))
            cmd += " " + d;
        output.clear();
        FILE *pipe = ::popen((cmd + " 2>&1").c_str(), "r");
        if (!pipe)
            return -1;
        char buf[512];
        while (std::fgets(buf, sizeof buf, pipe))
            output += buf;
        const int status = ::pclose(pipe);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    fs::path root_;
};

TEST_F(Compare, IdenticalRunsAreTheSame)
{
    if (std::string(TIGR_BENCH_PYTHON).empty())
        GTEST_SKIP() << "no python3";
    std::string out;
    EXPECT_EQ(compare({10, 10.1, 9.9}, {10, 10.1, 9.9}, out), 0) << out;
    EXPECT_NE(out.find("same"), std::string::npos) << out;
    EXPECT_EQ(out.find("worse"), std::string::npos) << out;
}

TEST_F(Compare, SlowerBeyondTheBoundIsWorse)
{
    if (std::string(TIGR_BENCH_PYTHON).empty())
        GTEST_SKIP() << "no python3";
    std::string out;
    EXPECT_EQ(compare({10, 10.1, 9.9}, {12, 12.1, 11.9}, out), 1) << out;
    EXPECT_NE(out.find("worse"), std::string::npos) << out;
}

TEST_F(Compare, ConsistentlyFasterIsBetter)
{
    if (std::string(TIGR_BENCH_PYTHON).empty())
        GTEST_SKIP() << "no python3";
    std::string out;
    EXPECT_EQ(compare({10, 10.1, 9.9}, {8, 8.1, 7.9}, out), 0) << out;
    EXPECT_NE(out.find("better"), std::string::npos) << out;
    EXPECT_EQ(out.find("worse"), std::string::npos) << out;
}

TEST_F(Compare, SpreadWiderThanTheBoundIsUnresolved)
{
    if (std::string(TIGR_BENCH_PYTHON).empty())
        GTEST_SKIP() << "no python3";
    std::string out;
    EXPECT_EQ(compare({8, 10, 12}, {8.5, 10.8, 12.5}, out), 0) << out;
    EXPECT_NE(out.find("unresolved"), std::string::npos) << out;
    EXPECT_EQ(out.find("worse"), std::string::npos) << out;
}

} // namespace
} // namespace tigr::bench
