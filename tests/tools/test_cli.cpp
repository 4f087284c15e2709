/**
 * @file
 * Tests of the `tigr` command-line tool: argument parsing, file-format
 * dispatch, and end-to-end command execution through temp files.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "cli.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace tigr::cli {
namespace {

namespace fs = std::filesystem;

/** RAII temp directory for command round-trips. */
class TempDir
{
  public:
    // The name must be unique across processes, not just within one:
    // ctest runs every discovered test as its own process in parallel,
    // so a static counter alone collides and ~TempDir would delete a
    // sibling's files mid-test.
    TempDir()
        : path_(fs::temp_directory_path() /
                ("tigr_cli_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++)))
    {
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }
    fs::path operator/(const std::string &name) const
    {
        return path_ / name;
    }

  private:
    static inline int counter_ = 0;
    fs::path path_;
};

TEST(CliParse, SplitsPositionalAndFlags)
{
    CommandLine cmd = parse({"run", "graph.el", "--algo", "bfs",
                             "--pull", "--source", "7"});
    EXPECT_EQ(cmd.command, "run");
    ASSERT_EQ(cmd.positional.size(), 1u);
    EXPECT_EQ(cmd.positional[0], "graph.el");
    EXPECT_EQ(cmd.option("algo"), "bfs");
    EXPECT_TRUE(cmd.has("pull"));
    EXPECT_EQ(cmd.optionU64("source", 0), 7u);
}

TEST(CliParse, FlagFollowedByFlagHasEmptyValue)
{
    CommandLine cmd = parse({"run", "--pull", "--dynamic"});
    EXPECT_TRUE(cmd.has("pull"));
    EXPECT_TRUE(cmd.has("dynamic"));
    EXPECT_EQ(*cmd.option("pull"), "");
}

TEST(CliParse, MissingCommandThrows)
{
    EXPECT_THROW(parse({}), std::invalid_argument);
}

TEST(CliParse, DefaultsApplyWhenOptionAbsent)
{
    CommandLine cmd = parse({"run"});
    EXPECT_EQ(cmd.optionU64("k", 10), 10u);
    EXPECT_FALSE(cmd.option("algo").has_value());
}

TEST(CliFiles, EdgeListRoundTrip)
{
    TempDir dir;
    auto path = dir / "g.el";
    graph::Csr g = graph::GraphBuilder().build(
        graph::erdosRenyi(64, 400, 3));
    saveGraphFile(g, path.string());
    graph::Csr loaded = loadGraphFile(path.string());
    EXPECT_EQ(loaded, g);
}

TEST(CliFiles, BinaryRoundTrip)
{
    TempDir dir;
    auto path = dir / "g.csr";
    graph::Csr g = graph::GraphBuilder().build(
        graph::rmat({.nodes = 64, .edges = 500, .seed = 2}));
    saveGraphFile(g, path.string());
    EXPECT_EQ(loadGraphFile(path.string()), g);
}

TEST(CliFiles, MatrixMarketLoads)
{
    TempDir dir;
    auto path = dir / "g.mtx";
    std::ofstream out(path);
    out << "%%MatrixMarket matrix coordinate pattern general\n"
        << "3 3 2\n"
        << "1 2\n"
        << "2 3\n";
    out.close();
    graph::Csr g = loadGraphFile(path.string());
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(CliFiles, UnknownExtensionThrows)
{
    EXPECT_THROW(loadGraphFile("graph.gexf"), std::runtime_error);
    graph::Csr g;
    EXPECT_THROW(saveGraphFile(g, "graph.gexf"), std::runtime_error);
}

TEST(CliCommands, GenerateThenStats)
{
    TempDir dir;
    auto path = dir / "g.csr";
    std::ostringstream out;
    int code = runCommand(
        parse({"generate", "--type", "rmat", "--nodes", "256",
               "--edges", "4096", "--seed", "5", "--out",
               path.string()}),
        out);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.str().find("generated rmat graph"),
              std::string::npos);

    std::ostringstream stats;
    code = runCommand(parse({"stats", path.string()}), stats);
    EXPECT_EQ(code, 0);
    EXPECT_NE(stats.str().find("gini:"), std::string::npos);
    EXPECT_NE(stats.str().find("suggested K(udt):"),
              std::string::npos);
}

TEST(CliCommands, TransformBoundsDegrees)
{
    TempDir dir;
    auto input = dir / "in.csr";
    auto output = dir / "out.csr";
    graph::Csr g = graph::GraphBuilder().build(
        graph::rmat({.nodes = 256, .edges = 4000, .seed = 6}));
    graph::saveCsrBinaryFile(g, input);

    std::ostringstream out;
    int code = runCommand(
        parse({"transform", input.string(), "--out", output.string(),
               "--k", "8", "--topology", "udt"}),
        out);
    EXPECT_EQ(code, 0);
    graph::Csr transformed = graph::loadCsrBinaryFile(output);
    EXPECT_LE(transformed.maxOutDegree(), 8u);
    EXPECT_GT(transformed.numNodes(), g.numNodes());
}

TEST(CliCommands, RunAllAlgorithms)
{
    TempDir dir;
    auto path = dir / "g.csr";
    graph::CooEdges coo =
        graph::rmat({.nodes = 200, .edges = 2500, .seed = 7});
    coo.symmetrize();
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(std::move(coo)), path);

    for (const char *algo : {"bfs", "sssp", "sswp", "cc", "pr", "bc"}) {
        std::ostringstream out;
        int code = runCommand(
            parse({"run", path.string(), "--algo", algo, "--strategy",
                   "tigr-v+"}),
            out);
        EXPECT_EQ(code, 0) << algo;
        EXPECT_NE(out.str().find("warp efficiency"),
                  std::string::npos)
            << algo;
    }
}

TEST(CliCommands, RunWithPullAndDynamicFlags)
{
    TempDir dir;
    auto path = dir / "g.csr";
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(
            graph::rmat({.nodes = 128, .edges = 1500, .seed = 8})),
        path);
    std::ostringstream out;
    int code = runCommand(parse({"run", path.string(), "--algo",
                                 "sssp", "--pull"}),
                          out);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.str().find("(pull)"), std::string::npos);

    std::ostringstream dynamic_out;
    code = runCommand(parse({"run", path.string(), "--algo", "sssp",
                             "--dynamic"}),
                      dynamic_out);
    EXPECT_EQ(code, 0);
    EXPECT_NE(dynamic_out.str().find("(dynamic mapping)"),
              std::string::npos);
}

TEST(CliCommands, RunFrontierFlags)
{
    TempDir dir;
    auto path = dir / "g.csr";
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(
            graph::rmat({.nodes = 128, .edges = 1500, .seed = 9})),
        path);

    // Every mode runs and is echoed; dense reports zero sparse iters.
    for (const char *mode : {"dense", "sparse", "adaptive"}) {
        std::ostringstream out;
        int code = runCommand(parse({"run", path.string(), "--algo",
                                     "bfs", "--frontier", mode}),
                              out);
        EXPECT_EQ(code, 0) << mode;
        EXPECT_NE(out.str().find(std::string("frontier:        ") +
                                 mode),
                  std::string::npos)
            << mode;
    }
    std::ostringstream dense_out;
    ASSERT_EQ(runCommand(parse({"run", path.string(), "--algo", "bfs",
                                "--frontier", "dense"}),
                         dense_out),
              0);
    EXPECT_NE(dense_out.str().find("sparse iters:    0"),
              std::string::npos);

    // Strict parsing, matching the --threads conventions.
    std::ostringstream out;
    EXPECT_THROW(runCommand(parse({"run", path.string(), "--frontier",
                                   "bitmap"}),
                            out),
                 std::runtime_error);
    for (const char *bad : {"1.5", "-0.1", "+0.3", "0.05x", "nan", ""}) {
        EXPECT_THROW(runCommand(parse({"run", path.string(),
                                       "--frontier-ratio", bad}),
                                out),
                     std::runtime_error)
            << '\'' << bad << '\'';
    }
    std::ostringstream ok;
    EXPECT_EQ(runCommand(parse({"run", path.string(), "--algo", "bfs",
                                "--frontier-ratio", "0.25"}),
                         ok),
              0);
}

TEST(CliCommands, MutateMetricsReplayFromTheLogByteIdentically)
{
    TempDir dir;
    const std::string graph = (dir / "g.csr").string();
    const std::string log = (dir / "g.tml").string();
    std::ostringstream generated, live, replayed;
    ASSERT_EQ(runCommand(parse({"generate", "--type", "rmat", "--nodes",
                                "512", "--edges", "6000", "--weighted",
                                "--seed", "9", "--out", graph}),
                         generated),
              0);
    ASSERT_EQ(runCommand(parse({"mutate", graph, "--batches", "3",
                                "--verify", "--metrics", "--log", log}),
                         live),
              0);
    ASSERT_EQ(runCommand(parse({"mutate", graph, "--apply", log,
                                "--metrics"}),
                         replayed),
              0);

    // The registry is everything after the first blank line; host
    // repair time has its own line before it.
    const auto registryOf = [](const std::string &text) {
        const std::size_t at = text.find("\n\n");
        return at == std::string::npos ? "" : text.substr(at + 2);
    };
    const auto finalOf = [](const std::string &text) {
        const std::size_t at = text.find("final:");
        return at == std::string::npos
                   ? ""
                   : text.substr(at, text.find('\n', at) - at);
    };
    const std::string registry = registryOf(live.str());
    ASSERT_NE(registry.find("mutation.batches"), std::string::npos)
        << live.str();
    EXPECT_EQ(registryOf(replayed.str()), registry);
    EXPECT_EQ(registry.find("_us"), std::string::npos) << registry;
    EXPECT_EQ(registry.find("_ms"), std::string::npos) << registry;
    EXPECT_NE(live.str().find("host repair total: "), std::string::npos);
    ASSERT_FALSE(finalOf(live.str()).empty()) << live.str();
    EXPECT_EQ(finalOf(replayed.str()), finalOf(live.str()));
}

TEST(CliCommands, ErrorsAreReported)
{
    std::ostringstream out;
    EXPECT_THROW(runCommand(parse({"bogus"}), out),
                 std::runtime_error);
    EXPECT_THROW(runCommand(parse({"stats"}), out),
                 std::runtime_error);
    EXPECT_THROW(runCommand(parse({"run", "nonexistent.el"}), out),
                 std::runtime_error);
}

TEST(CliCommands, HelpPrintsUsage)
{
    std::ostringstream out;
    EXPECT_EQ(runCommand(parse({"help"}), out), 0);
    EXPECT_NE(out.str().find("tigr run"), std::string::npos);
}

TEST(CliCommands, RunRejectsBadStrategyAndSource)
{
    TempDir dir;
    auto path = dir / "g.csr";
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(
            graph::erdosRenyi(32, 100, 1)),
        path);
    std::ostringstream out;
    EXPECT_THROW(runCommand(parse({"run", path.string(), "--strategy",
                                   "warpspeed"}),
                            out),
                 std::runtime_error);
    EXPECT_THROW(runCommand(parse({"run", path.string(), "--source",
                                   "99999"}),
                            out),
                 std::runtime_error);
}

TEST(CliCommands, ServeAcceptsResilienceFlags)
{
    TempDir dir;
    auto graphPath = dir / "g.csr";
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(graph::erdosRenyi(64, 300, 2)),
        graphPath);
    auto scriptPath = dir / "s.txt";
    {
        std::ofstream script(scriptPath);
        script << "load g " << graphPath.string() << "\n"
               << "query g bfs source=0\n"
               << "run\n";
    }
    std::ostringstream out;
    int code = runCommand(
        parse({"serve", "--script", scriptPath.string(),
               "--max-retries", "4", "--fail-fast"}),
        out);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.str().find("outcome=completed"), std::string::npos);
}

TEST(CliCommands, ServeRejectsMalformedResilienceFlags)
{
    TempDir dir;
    auto scriptPath = dir / "s.txt";
    {
        std::ofstream script(scriptPath);
        script << "# nothing to do\n";
    }
    std::ostringstream out;
    // --max-retries must be a plain decimal integer.
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--max-retries", "many"}),
                   out),
        std::runtime_error);
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--max-retries", "4x"}),
                   out),
        std::runtime_error);
    // --fail-fast is strictly a flag: an attached value would have
    // swallowed the next script token silently.
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--fail-fast", "1"}),
                   out),
        std::runtime_error);
}

TEST(CliCommands, HelpDocumentsResilienceFlags)
{
    std::ostringstream out;
    ASSERT_EQ(runCommand(parse({"help"}), out), 0);
    EXPECT_NE(out.str().find("--max-retries"), std::string::npos);
    EXPECT_NE(out.str().find("--fail-fast"), std::string::npos);
}

TEST(CliCommands, ServeDurableRunsMutationsThroughTheJournal)
{
    TempDir dir;
    auto graphPath = dir / "g.csr";
    graph::saveCsrBinaryFile(
        graph::GraphBuilder().build(graph::erdosRenyi(64, 300, 2)),
        graphPath);
    auto durableDir = dir / "state";
    auto scriptPath = dir / "s.txt";
    {
        std::ofstream script(scriptPath);
        script << "load g " << graphPath.string() << "\n"
               << "mutate g inserts=4 deletes=2 seed=3\n"
               << "run\n"
               << "checkpoint g\n";
    }
    std::ostringstream out;
    int code = runCommand(
        parse({"serve", "--script", scriptPath.string(), "--durable",
               durableDir.string(), "--sync-policy", "every-record"}),
        out);
    EXPECT_EQ(code, 0);
    EXPECT_NE(out.str().find("recovered 0 graph(s)"),
              std::string::npos);
    EXPECT_NE(out.str().find("checkpoint g epoch=1"),
              std::string::npos);
    EXPECT_TRUE(fs::exists(durableDir / "g.tgs"));
    EXPECT_TRUE(fs::exists(durableDir / "g.twj"));

    // `tigr recover` over the directory the script left behind.
    std::ostringstream recoverOut;
    EXPECT_EQ(runCommand(parse({"recover", durableDir.string()}),
                         recoverOut),
              0);
    EXPECT_NE(recoverOut.str().find("recovered 1 graph(s)"),
              std::string::npos);
}

TEST(CliCommands, ServeRejectsMalformedDurabilityFlags)
{
    TempDir dir;
    auto scriptPath = dir / "s.txt";
    {
        std::ofstream script(scriptPath);
        script << "# nothing to do\n";
    }
    std::ostringstream out;
    // --durable needs a directory value.
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--durable"}),
                   out),
        std::runtime_error);
    // --sync-policy is meaningless without --durable...
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--sync-policy", "group-commit"}),
                   out),
        std::runtime_error);
    // ...and its value is strictly one of the three policy names.
    EXPECT_THROW(
        runCommand(parse({"serve", "--script", scriptPath.string(),
                          "--durable", (dir / "state").string(),
                          "--sync-policy", "sometimes"}),
                   out),
        std::runtime_error);
}

TEST(CliCommands, RecoverValidatesItsArguments)
{
    TempDir dir;
    std::ostringstream out;
    // Exactly one positional, and it must be an existing directory.
    EXPECT_THROW(runCommand(parse({"recover"}), out),
                 std::runtime_error);
    EXPECT_THROW(
        runCommand(parse({"recover", (dir / "missing").string()}), out),
        std::runtime_error);

    // An empty directory recovers to an empty report, exit 0.
    auto stateDir = dir / "state";
    fs::create_directories(stateDir);
    EXPECT_EQ(runCommand(parse({"recover", stateDir.string()}), out),
              0);
    EXPECT_NE(out.str().find("recovered 0 graph(s)"),
              std::string::npos);
}

TEST(CliCommands, HelpDocumentsDurabilityFlags)
{
    std::ostringstream out;
    ASSERT_EQ(runCommand(parse({"help"}), out), 0);
    EXPECT_NE(out.str().find("--durable"), std::string::npos);
    EXPECT_NE(out.str().find("--sync-policy"), std::string::npos);
    EXPECT_NE(out.str().find("recover"), std::string::npos);
}

} // namespace
} // namespace tigr::cli
