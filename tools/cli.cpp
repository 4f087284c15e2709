#include "cli.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <set>
#include <sstream>
#include <stdexcept>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/datasets.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/validate.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/parse_int.hpp"
#include "par/thread_pool.hpp"
#include "service/graph_store.hpp"
#include "service/recovery.hpp"
#include "service/script.hpp"
#include "service/snapshot.hpp"
#include "transform/basic_topologies.hpp"
#include "transform/udt.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::cli {

namespace {

std::string
extensionOf(const std::string &path)
{
    return std::filesystem::path(path).extension().string();
}

/** Strictly parsed --threads: absent = 0 (the TIGR_THREADS / hardware
 *  default); present = a plain integer in [1, kMaxThreads], anything
 *  else — 0, negatives, garbage — fails loudly. */
unsigned
threadsOption(const CommandLine &cmd)
{
    auto value = cmd.option("threads");
    if (!value)
        return 0;
    return par::parseThreadCount(*value, "--threads");
}

/** Strictly parsed --frontier: absent leaves @p mode untouched (the
 *  adaptive default); present must name dense|sparse|adaptive. */
void
frontierModeOption(const CommandLine &cmd, engine::FrontierMode &mode)
{
    auto value = cmd.option("frontier");
    if (!value)
        return;
    auto parsed = engine::parseFrontierMode(*value);
    if (!parsed)
        throw std::runtime_error("tigr: unknown --frontier '" + *value +
                                 "' (dense|sparse|adaptive)");
    mode = *parsed;
}

/** Strictly parsed --frontier-ratio: absent leaves @p ratio untouched;
 *  present must be a plain decimal in [0, 1] — trailing garbage,
 *  signs, inf, and nan all fail loudly (the --threads conventions). */
void
frontierRatioOption(const CommandLine &cmd, double &ratio)
{
    auto value = cmd.option("frontier-ratio");
    if (!value)
        return;
    try {
        std::size_t used = 0;
        const double parsed = std::stod(*value, &used);
        if (used != value->size() || value->front() == '-' ||
            value->front() == '+' || !(parsed >= 0.0) || parsed > 1.0)
            throw std::invalid_argument(*value);
        ratio = parsed;
    } catch (const std::exception &) {
        throw std::runtime_error(
            "tigr: invalid --frontier-ratio '" + *value +
            "': expected a number in [0, 1]");
    }
}

/** Strictly a flag (the --fail-fast conventions): "--metrics 1" would
 *  silently swallow a positional argument, so a value is an error. */
bool
strictFlag(const CommandLine &cmd, const std::string &key,
           const std::string &who)
{
    if (!cmd.has(key))
        return false;
    if (!cmd.option(key)->empty())
        throw std::runtime_error("tigr " + who + ": --" + key +
                                 " takes no value");
    return true;
}

/** Engine knobs shared by `run`, `trace`, and `stats --algo`:
 *  --strategy/--k/--pull/--dynamic/--no-worklist/--threads and the
 *  frontier flags. */
engine::EngineOptions
engineOptionsFromCmd(const CommandLine &cmd, const std::string &who)
{
    engine::EngineOptions options;
    const std::string strategy_name =
        cmd.option("strategy").value_or("tigr-v+");
    auto strategy = engine::parseStrategy(strategy_name);
    if (!strategy)
        throw std::runtime_error("tigr " + who +
                                 ": unknown --strategy '" +
                                 strategy_name + "'");
    options.strategy = *strategy;
    options.degreeBound =
        static_cast<NodeId>(cmd.optionPositive("k", 10));
    if (cmd.has("pull"))
        options.direction = engine::Direction::Pull;
    if (cmd.has("dynamic"))
        options.dynamicMapping = true;
    if (cmd.has("no-worklist"))
        options.worklist = false;
    options.threads = threadsOption(cmd);
    frontierModeOption(cmd, options.frontier);
    frontierRatioOption(cmd, options.frontierRatio);
    return options;
}

/** --algo as a non-empty comma-separated list (default "sssp"). */
std::vector<std::string>
algoListOption(const CommandLine &cmd, const std::string &who)
{
    std::vector<std::string> algos;
    std::istringstream list(cmd.option("algo").value_or("sssp"));
    for (std::string name; std::getline(list, name, ',');) {
        if (name.empty())
            throw std::runtime_error("tigr " + who +
                                     ": empty entry in --algo list");
        algos.push_back(name);
    }
    if (algos.empty())
        throw std::runtime_error("tigr " + who + ": empty --algo list");
    return algos;
}

/** Execute one algorithm on @p engine, discarding values (`trace` and
 *  `stats --algo` only need the recorded events). */
void
runAlgorithm(engine::GraphEngine &engine, const std::string &algo,
             NodeId source, unsigned pr_iters, const std::string &who)
{
    if (algo == "bfs") {
        engine.bfs(source);
    } else if (algo == "sssp") {
        engine.sssp(source);
    } else if (algo == "sswp") {
        engine.sswp(source);
    } else if (algo == "cc") {
        engine.cc();
    } else if (algo == "pr") {
        engine.pagerank({.damping = 0.85, .iterations = pr_iters});
    } else if (algo == "bc") {
        const NodeId sources[] = {source};
        engine.bc(sources);
    } else {
        throw std::runtime_error("tigr " + who + ": unknown --algo '" +
                                 algo + "' (bfs|sssp|sswp|cc|pr|bc)");
    }
}

/** Pick the split transformation named by --topology. */
std::unique_ptr<transform::SplitTransform>
makeTopology(const std::string &name)
{
    if (name == "udt")
        return std::make_unique<transform::UdtTransform>();
    if (name == "star")
        return std::make_unique<transform::StarTransform>();
    if (name == "rstar")
        return std::make_unique<transform::RecursiveStarTransform>();
    if (name == "cliq")
        return std::make_unique<transform::CliqueTransform>();
    if (name == "circ")
        return std::make_unique<transform::CircularTransform>();
    throw std::runtime_error("tigr: unknown topology '" + name +
                             "' (udt|star|rstar|cliq|circ)");
}

int
cmdStats(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error("tigr stats: missing graph file");
    graph::Csr g = loadGraphFile(cmd.positional[0]);
    graph::DegreeStats s = graph::degreeStats(g);
    out << "nodes:            " << s.numNodes << "\n"
        << "edges:            " << s.numEdges << "\n"
        << "degree mean:      " << s.meanDegree << "\n"
        << "degree median:    " << s.medianDegree << "\n"
        << "degree p90/p99:   " << s.p90Degree << " / " << s.p99Degree
        << "\n"
        << "degree max:       " << s.maxDegree << "\n"
        << "gini:             " << s.gini << "\n"
        << "nodes < deg 20:   " << 100.0 * s.fractionBelow20 << "%\n"
        << "power-law alpha:  " << graph::powerLawExponent(g) << "\n"
        << "pseudo-diameter:  " << graph::estimateDiameter(g) << "\n"
        << "warp-32 waste:    "
        << 100.0 * graph::warpLoadImbalance(g) << "%\n"
        << "suggested K(udt): " << graph::chooseUdtK(s.maxDegree)
        << "\n";
    // --algo runs the named analyses with tracing enabled and appends
    // the aggregated engine metrics (deterministic integer counters).
    if (cmd.has("algo")) {
        engine::EngineOptions options =
            engineOptionsFromCmd(cmd, "stats");
        obs::TraceSink sink;
        options.trace = &sink;
        const auto source =
            static_cast<NodeId>(cmd.optionU64("source", 0));
        if (source >= g.numNodes())
            throw std::runtime_error(
                "tigr stats: --source out of range");
        engine::GraphEngine engine(g, options);
        for (const std::string &algo : algoListOption(cmd, "stats"))
            runAlgorithm(engine, algo, source,
                         static_cast<unsigned>(
                             cmd.optionPositive("iters", 20)),
                         "stats");
        obs::MetricsRegistry registry;
        obs::aggregateTrace(sink, registry);
        out << "\n" << registry.snapshotText();
    }
    return 0;
}

int
cmdGenerate(const CommandLine &cmd, std::ostream &out)
{
    const std::string type =
        cmd.option("type").value_or("rmat");
    const auto nodes =
        static_cast<NodeId>(cmd.optionPositive("nodes", 1024));
    const auto edges = cmd.optionU64("edges", nodes * 16ULL);
    const auto seed = cmd.optionU64("seed", 1);
    const auto output = cmd.option("out");
    if (!output)
        throw std::runtime_error("tigr generate: missing --out file");

    graph::CooEdges coo;
    if (type == "rmat") {
        coo = graph::rmat({.nodes = nodes, .edges = edges,
                           .seed = seed});
    } else if (type == "ba") {
        coo = graph::barabasiAlbert(
            nodes,
            static_cast<unsigned>(cmd.optionPositive("attach", 4)),
            seed);
    } else if (type == "er") {
        coo = graph::erdosRenyi(nodes, edges, seed);
    } else if (type == "ws") {
        coo = graph::wattsStrogatz(
            nodes,
            static_cast<unsigned>(cmd.optionPositive("k", 2)), 0.2,
            seed);
    } else {
        throw std::runtime_error("tigr generate: unknown --type '" +
                                 type + "' (rmat|ba|er|ws)");
    }

    graph::BuildOptions build;
    build.randomizeWeights = cmd.has("weighted");
    build.weightSeed = seed * 77 + 1;
    graph::Csr g = graph::GraphBuilder(build).build(std::move(coo));
    saveGraphFile(g, *output);
    out << "generated " << type << " graph: " << g.numNodes()
        << " nodes, " << g.numEdges() << " edges -> " << *output
        << "\n";
    return 0;
}

int
cmdTransform(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error("tigr transform: missing graph file");
    const auto output = cmd.option("out");
    if (!output)
        throw std::runtime_error("tigr transform: missing --out file");

    graph::Csr g = loadGraphFile(cmd.positional[0]);
    auto topology =
        makeTopology(cmd.option("topology").value_or("udt"));

    transform::SplitOptions split;
    split.degreeBound = static_cast<NodeId>(cmd.optionPositive(
        "k", graph::chooseUdtK(g.maxOutDegree())));
    split.threads = par::resolveThreads(threadsOption(cmd));
    const std::string dumb = cmd.option("dumb").value_or("zero");
    if (dumb == "zero")
        split.weightPolicy = transform::DumbWeightPolicy::Zero;
    else if (dumb == "inf")
        split.weightPolicy = transform::DumbWeightPolicy::Infinity;
    else if (dumb == "one")
        split.weightPolicy = transform::DumbWeightPolicy::One;
    else
        throw std::runtime_error(
            "tigr transform: unknown --dumb policy (zero|inf|one)");

    auto result = topology->apply(g, split);
    saveGraphFile(result.graph, *output);
    out << "topology:        " << topology->name() << "\n"
        << "degree bound K:  " << split.degreeBound << "\n"
        << "high-deg nodes:  " << result.stats.highDegreeNodes << "\n"
        << "new nodes:       " << result.stats.newNodes << "\n"
        << "new edges:       " << result.stats.newEdges << "\n"
        << "max degree:      " << result.stats.maxDegreeBefore
        << " -> " << result.stats.maxDegreeAfter << "\n"
        << "written to:      " << *output << "\n";
    return 0;
}

int
cmdRun(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error("tigr run: missing graph file");
    graph::Csr g = loadGraphFile(cmd.positional[0]);

    engine::EngineOptions options = engineOptionsFromCmd(cmd, "run");
    obs::TraceSink sink;
    const auto trace_path = cmd.option("trace");
    const bool want_metrics = strictFlag(cmd, "metrics", "run");
    if (trace_path || want_metrics)
        options.trace = &sink;

    const auto source =
        static_cast<NodeId>(cmd.optionU64("source", 0));
    if (source >= g.numNodes())
        throw std::runtime_error("tigr run: --source out of range");

    // --algo accepts a comma-separated list; all algorithms run on one
    // engine, so later runs reuse the transform the first one built
    // (reported per run as "transform cached").
    const std::vector<std::string> algos = algoListOption(cmd, "run");

    engine::GraphEngine engine(g, options);

    auto run_one = [&](const std::string &algo, engine::RunInfo &info,
                       std::string &summary) {
        if (algo == "bfs") {
            auto r = engine.bfs(source);
            info = r.info;
            std::size_t reached = 0;
            Dist far = 0;
            for (Dist d : r.values) {
                if (d != kInfDist) {
                    ++reached;
                    far = std::max(far, d);
                }
            }
            summary = "reached " + std::to_string(reached) +
                      " nodes, max depth " + std::to_string(far);
        } else if (algo == "sssp") {
            auto r = engine.sssp(source);
            info = r.info;
            std::size_t reached = 0;
            for (Dist d : r.values)
                reached += d != kInfDist;
            summary = "reached " + std::to_string(reached) + " nodes";
        } else if (algo == "sswp") {
            auto r = engine.sswp(source);
            info = r.info;
            std::size_t reached = 0;
            for (Weight w : r.values)
                reached += w != 0;
            summary = "reached " + std::to_string(reached) + " nodes";
        } else if (algo == "cc") {
            auto r = engine.cc();
            info = r.info;
            std::set<NodeId> labels(r.values.begin(), r.values.end());
            summary = std::to_string(labels.size()) + " components";
        } else if (algo == "pr") {
            auto r = engine.pagerank(
                {.damping = 0.85,
                 .iterations = static_cast<unsigned>(
                     cmd.optionPositive("iters", 20))});
            info = r.info;
            NodeId best = 0;
            for (NodeId v = 0; v < g.numNodes(); ++v)
                if (r.values[v] > r.values[best])
                    best = v;
            summary = "top node " + std::to_string(best);
        } else if (algo == "bc") {
            const NodeId sources[] = {source};
            auto r = engine.bc(sources);
            info = r.info;
            NodeId best = 0;
            for (NodeId v = 0; v < g.numNodes(); ++v)
                if (r.values[v] > r.values[best])
                    best = v;
            summary = "top broker " + std::to_string(best);
        } else {
            throw std::runtime_error("tigr run: unknown --algo '" +
                                     algo +
                                     "' (bfs|sssp|sswp|cc|pr|bc)");
        }
    };

    for (std::size_t i = 0; i < algos.size(); ++i) {
        engine::RunInfo info;
        std::string summary;
        run_one(algos[i], info, summary);
        if (i > 0)
            out << "\n";
        out << "algo:            " << algos[i] << "\n"
            << "strategy:        "
            << engine::strategyName(options.strategy)
            << (options.dynamicMapping ? " (dynamic mapping)" : "")
            << (options.direction == engine::Direction::Pull
                    ? " (pull)"
                    : "")
            << "\n"
            << "result:          " << summary << "\n"
            << "frontier:        "
            << engine::frontierModeName(options.frontier) << "\n"
            << "iterations:      " << info.iterations << "\n"
            << "sparse iters:    " << info.sparseIterations << "\n"
            << "peak frontier:   " << info.peakFrontier << "\n"
            << "simulated ms:    " << info.simulatedMs() << "\n"
            << "warp efficiency: "
            << 100.0 * info.stats.warpEfficiency() << "%\n"
            << "SM imbalance:    " << 100.0 * info.stats.smImbalance()
            << "%\n"
            << "transform ms:    " << info.transformMs
            << (info.transformCached ? " (cached)" : "") << "\n"
            << "transform cached: "
            << (info.transformCached ? "yes" : "no") << "\n"
            << "host ms:         " << info.hostMs << "\n"
            << "host threads:    " << engine.hostThreads() << "\n";
    }
    if (trace_path) {
        std::ofstream trace_out(*trace_path);
        if (!trace_out)
            throw std::runtime_error(
                "tigr run: cannot write --trace file '" + *trace_path +
                "'");
        obs::writeChromeTrace(trace_out, sink, "engine");
        out << "\ntrace events=" << sink.size() << " -> "
            << *trace_path << "\n";
    }
    if (want_metrics) {
        obs::MetricsRegistry registry;
        obs::aggregateTrace(sink, registry);
        out << "\n" << registry.snapshotText();
    }
    return 0;
}

/**
 * `tigr trace <graph> --out FILE`: run analyses with tracing enabled
 * and write the structured events as a Chrome trace_event JSON file
 * (chrome://tracing / Perfetto). Timestamps are simulated
 * microseconds, so the file is bit-identical at any --threads value.
 */
int
cmdTrace(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error("tigr trace: missing graph file");
    const auto output = cmd.option("out");
    if (!output)
        throw std::runtime_error("tigr trace: missing --out file");
    graph::Csr g = loadGraphFile(cmd.positional[0]);

    engine::EngineOptions options = engineOptionsFromCmd(cmd, "trace");
    obs::TraceSink sink;
    options.trace = &sink;

    const auto source =
        static_cast<NodeId>(cmd.optionU64("source", 0));
    if (source >= g.numNodes())
        throw std::runtime_error("tigr trace: --source out of range");
    const auto pr_iters =
        static_cast<unsigned>(cmd.optionPositive("iters", 20));

    const std::vector<std::string> algos = algoListOption(cmd, "trace");
    engine::GraphEngine engine(g, options);
    for (const std::string &algo : algos)
        runAlgorithm(engine, algo, source, pr_iters, "trace");

    std::ofstream trace_out(*output);
    if (!trace_out)
        throw std::runtime_error(
            "tigr trace: cannot write --out file '" + *output + "'");
    obs::writeChromeTrace(trace_out, sink, "engine");

    if (auto text = cmd.option("text")) {
        std::ofstream text_out(*text);
        if (!text_out)
            throw std::runtime_error(
                "tigr trace: cannot write --text file '" + *text +
                "'");
        text_out << obs::formatTrace(sink);
    }

    out << "algos:           " << algos.size() << "\n"
        << "events:          " << sink.size() << "\n"
        << "written to:      " << *output << "\n";
    return 0;
}

int
cmdSnapshot(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.size() < 2)
        throw std::runtime_error(
            "tigr snapshot: usage: tigr snapshot <in> <out.tgs> "
            "[--k N] [--layout consecutive|coalesced] [--threads N]");
    const std::string &input = cmd.positional[0];
    const std::string &output = cmd.positional[1];

    graph::Csr g = loadGraphFile(input);

    service::Snapshot snapshot;
    snapshot.graph = std::move(g);
    if (cmd.has("k")) {
        const NodeId k =
            static_cast<NodeId>(cmd.optionPositive("k", 10));
        auto layout = transform::EdgeLayout::Coalesced;
        const std::string layout_name =
            cmd.option("layout").value_or("coalesced");
        if (layout_name == "consecutive")
            layout = transform::EdgeLayout::Consecutive;
        else if (layout_name != "coalesced")
            throw std::runtime_error(
                "tigr snapshot: unknown --layout '" + layout_name +
                "' (consecutive|coalesced)");
        transform::VirtualGraph vg(
            snapshot.graph, k, layout,
            par::resolveThreads(threadsOption(cmd)));
        snapshot.hasVirtual = true;
        snapshot.virtualDegreeBound = k;
        snapshot.virtualLayout = layout;
        snapshot.virtualNodes.assign(vg.virtualNodes().begin(),
                                     vg.virtualNodes().end());
    }
    service::saveSnapshotFile(snapshot, output);

    out << "snapshot:        " << output << "\n"
        << "nodes:           " << snapshot.graph.numNodes() << "\n"
        << "edges:           " << snapshot.graph.numEdges() << "\n"
        << "virtual nodes:   " << snapshot.virtualNodes.size() << "\n"
        << "bytes:           "
        << std::filesystem::file_size(output) << "\n";
    return 0;
}

int
cmdServe(const CommandLine &cmd, std::ostream &out)
{
    const auto script = cmd.option("script");
    if (!script)
        throw std::runtime_error(
            "tigr serve: missing --script FILE (see `tigr help`)");
    std::ifstream in(*script);
    if (!in)
        throw std::runtime_error("tigr serve: cannot open " + *script);

    service::ScriptOptions options;
    if (cmd.has("workers"))
        options.workers = par::parseThreadCount(
            cmd.option("workers").value_or(""), "--workers");
    options.maxQueuedQueries =
        cmd.optionPositive("queue", options.maxQueuedQueries);
    options.cacheBytes =
        cmd.optionPositive("cache-mb", options.cacheBytes >> 20) << 20;
    options.maxRetries = static_cast<unsigned>(
        cmd.optionU64("max-retries", options.maxRetries));
    if (cmd.has("fail-fast")) {
        // Strictly a flag: "--fail-fast 1" would silently swallow a
        // script argument, so any attached value is an error.
        if (!cmd.option("fail-fast")->empty())
            throw std::runtime_error(
                "tigr serve: --fail-fast takes no value");
        options.failFast = true;
    }
    options.metrics = strictFlag(cmd, "metrics", "serve");
    if (auto trace = cmd.option("trace"))
        options.tracePath = *trace;
    frontierModeOption(cmd, options.frontier);
    frontierRatioOption(cmd, options.frontierRatio);
    // Durability: --durable DIR arms the write-ahead journal over that
    // directory; --sync-policy picks the ack-vs-disk ordering and is
    // meaningless without a journal to order, so it is rejected alone.
    if (auto durable = cmd.option("durable")) {
        if (durable->empty())
            throw std::runtime_error(
                "tigr serve: --durable needs a directory");
        options.durableDir = *durable;
    }
    if (auto policy = cmd.option("sync-policy")) {
        if (options.durableDir.empty())
            throw std::runtime_error(
                "tigr serve: --sync-policy requires --durable");
        auto parsed = service::parseSyncPolicy(*policy);
        if (!parsed)
            throw std::runtime_error(
                "tigr serve: unknown --sync-policy '" + *policy +
                "' (every-record|group-commit|unsynced)");
        options.syncPolicy = *parsed;
    }
    return service::runScript(in, out, options);
}

/**
 * `tigr recover <dir>`: run crash recovery over a durable directory —
 * quarantine untrusted files, truncate (and preserve) torn journal
 * tails, replay intact records — and print the report. Idempotent:
 * a second run recovers nothing further.
 */
int
cmdRecover(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error(
            "tigr recover: missing directory (see `tigr help`)");
    if (cmd.positional.size() > 1)
        throw std::runtime_error(
            "tigr recover: expected exactly one directory");
    std::error_code ec;
    if (!std::filesystem::is_directory(cmd.positional[0], ec) || ec)
        throw std::runtime_error("tigr recover: '" +
                                 cmd.positional[0] +
                                 "' is not a directory");
    service::GraphStore store;
    const service::RecoveryReport report =
        store.openDurable(cmd.positional[0]);
    out << service::formatRecoveryReport(report);
    return 0;
}

/**
 * `tigr mutate <graph>`: stream seeded (or logged) mutation batches
 * through a DynamicGraph while the arena-addressed incremental
 * virtualizer repairs the virtual node array epoch by epoch. --verify
 * proves each epoch's array byte-identical (after canonicalization) to
 * a from-scratch rebuild (differentialCheck).
 */
int
cmdMutate(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.positional.empty())
        throw std::runtime_error("tigr mutate: missing graph file");
    graph::Csr g = loadGraphFile(cmd.positional[0]);
    if (g.numNodes() == 0)
        throw std::runtime_error("tigr mutate: graph has no nodes");

    const NodeId k = static_cast<NodeId>(cmd.optionPositive("k", 10));
    auto layout = transform::EdgeLayout::Coalesced;
    const std::string layout_name =
        cmd.option("layout").value_or("coalesced");
    if (layout_name == "consecutive")
        layout = transform::EdgeLayout::Consecutive;
    else if (layout_name != "coalesced")
        throw std::runtime_error("tigr mutate: unknown --layout '" +
                                 layout_name +
                                 "' (consecutive|coalesced)");
    const bool verify = strictFlag(cmd, "verify", "mutate");
    const bool want_metrics = strictFlag(cmd, "metrics", "mutate");

    // The repair path's residual sweeps (initial build, canonical
    // copies, post-compaction rebases) run on this pool; results are
    // identical at any width (--threads / TIGR_THREADS / hardware).
    par::ThreadPool pool(par::resolveThreads(threadsOption(cmd)));

    // Batches come from a streamed log (--apply parses and applies one
    // batch at a time, so memory stays bounded by the largest batch,
    // never the log) or the seeded generator; --log saves whichever
    // were applied, so a generated session can be replayed verbatim.
    std::optional<std::ifstream> apply_in;
    std::optional<dynamic::MutationLogReader> reader;
    if (auto apply = cmd.option("apply")) {
        apply_in.emplace(*apply);
        if (!*apply_in)
            throw std::runtime_error(
                "tigr mutate: cannot open --apply file '" + *apply +
                "'");
        reader.emplace(*apply_in);
    }

    dynamic::DynamicGraph dg(g);
    dynamic::IncrementalVirtualizer virt(dg, k, layout, &pool);
    obs::TraceSink sink;
    dynamic::MutationLog log; // retained only when --log asks for it
    const bool keep_log = cmd.has("log");

    const auto batches = cmd.optionPositive("batches", 1);
    const auto seed = cmd.optionU64("seed", 1);
    const bool generated = !reader;
    double repair_ms_total = 0.0;
    std::uint64_t relocated_total = 0;
    for (std::size_t round = 0;; ++round) {
        dynamic::MutationBatch batch;
        if (generated) {
            if (round >= batches)
                break;
            dynamic::GeneratorSpec spec;
            spec.seed = seed + round;
            spec.inserts = cmd.optionU64("inserts", 16);
            spec.deletes = cmd.optionU64("deletes", 8);
            spec.reweights = cmd.optionU64("reweights", 8);
            spec.maxWeight = static_cast<Weight>(
                cmd.optionPositive("max-weight", 64));
            spec.hotSpan = static_cast<NodeId>(
                cmd.optionU64("hot-span", 0));
            batch = dynamic::generateBatch(dg, spec);
        } else {
            std::optional<dynamic::MutationBatch> next = reader->next();
            if (!next)
                break;
            batch = std::move(*next);
        }
        if (keep_log)
            log.append(batch);

        std::size_t inserts = 0, deletes = 0, reweights = 0;
        for (const dynamic::Mutation &m : batch) {
            switch (m.kind) {
              case dynamic::MutationKind::InsertEdge: ++inserts; break;
              case dynamic::MutationKind::DeleteEdge: ++deletes; break;
              case dynamic::MutationKind::UpdateWeight:
                ++reweights;
                break;
            }
        }
        obs::TraceEvent begin;
        begin.kind = obs::EventKind::MutationBegin;
        begin.label[0] = cmd.positional[0];
        begin.arg[0] = dg.epoch() + 1;
        begin.arg[1] = batch.size();
        begin.arg[2] = inserts;
        begin.arg[3] = deletes;
        begin.arg[4] = reweights;
        sink.record(begin);

        const dynamic::EpochDelta delta = dg.apply(batch);
        const auto repair_start = std::chrono::steady_clock::now();
        const dynamic::RepairStats repair = virt.applyDelta(delta);
        double repair_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - repair_start)
                .count();

        obs::TraceEvent applied;
        applied.kind = obs::EventKind::MutationApply;
        applied.arg[0] = delta.epoch;
        applied.arg[1] = delta.touched.size();
        applied.arg[2] = dg.numEdges();
        applied.arg[3] = dg.slackSlots();
        sink.record(applied);
        obs::TraceEvent resplit;
        resplit.kind = obs::EventKind::MutationResplit;
        resplit.arg[0] = repair.epoch;
        resplit.arg[1] = repair.repairedVertices;
        resplit.arg[2] = repair.resplitFamilies;
        resplit.arg[4] = repair.entriesAfter;
        sink.record(resplit);

        if (dg.shouldCompact()) {
            const EdgeIndex reclaimed = dg.compact();
            // Compaction renumbers arena slots: the arena-addressed
            // entries must be rebased before the next read or repair.
            const auto rebase_start = std::chrono::steady_clock::now();
            virt.rebase(&pool);
            repair_ms += std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             rebase_start)
                             .count();
            obs::TraceEvent compact;
            compact.kind = obs::EventKind::MutationCompact;
            compact.arg[0] = delta.epoch;
            compact.arg[1] = reclaimed;
            compact.arg[2] = dg.numEdges();
            sink.record(compact);
            out << "  compacted: reclaimed " << reclaimed
                << " slack slots (entry arena rebased)\n";
        } else if (virt.shouldCompactEntries()) {
            const auto rebase_start = std::chrono::steady_clock::now();
            virt.rebase(&pool);
            repair_ms += std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() -
                             rebase_start)
                             .count();
            out << "  entry arena compacted\n";
        }
        repair_ms_total += repair_ms;
        relocated_total += repair.relocatedFamilies;

        out << "epoch " << delta.epoch << ": " << delta.inserts
            << " inserts, " << delta.deletes << " deletes, "
            << delta.reweights << " reweights; touched "
            << delta.touched.size() << ", repaired "
            << repair.repairedVertices << " (resplit "
            << repair.resplitFamilies << ", relocated "
            << repair.relocatedFamilies << "), entries "
            << repair.entriesAfter << ", repair "
            << std::fixed << std::setprecision(3) << repair_ms
            << " ms\n"
            << std::defaultfloat;
        if (verify) {
            if (auto divergence = dynamic::differentialCheck(dg, virt))
                throw std::runtime_error(
                    "tigr mutate: differential check failed at epoch " +
                    std::to_string(delta.epoch) + ": " + *divergence);
            out << "  verified: virtual array matches full rebuild\n";
        }
    }

    out << "final: " << dg.numNodes() << " nodes, " << dg.numEdges()
        << " edges, epoch " << dg.epoch() << ", " << virt.numEntries()
        << " virtual nodes (K=" << k << ", "
        << (layout == transform::EdgeLayout::Consecutive
                ? "consecutive"
                : "coalesced")
        << ")\n";

    if (auto log_path = cmd.option("log")) {
        std::ofstream log_out(*log_path);
        if (!log_out)
            throw std::runtime_error(
                "tigr mutate: cannot write --log file '" + *log_path +
                "'");
        log.save(log_out);
        out << "mutation log -> " << *log_path << "\n";
    }
    if (auto output = cmd.option("out"))
        saveGraphFile(dg.toCsr(), *output);
    if (want_metrics) {
        obs::MetricsRegistry registry;
        obs::aggregateTrace(sink, registry);
        // A repair stat the trace vocabulary predates: relocations
        // (families that outgrew their reserved entry slots). Host
        // repair time is wall clock, so it stays out of the registry,
        // which is bit-identical across runs and thread counts.
        registry.counter("mutation.relocated").add(relocated_total);
        out << "host repair total: " << std::fixed
            << std::setprecision(3) << repair_ms_total << " ms\n"
            << std::defaultfloat;
        out << "\n" << registry.snapshotText();
    }
    return 0;
}

} // namespace

std::optional<std::string>
CommandLine::option(const std::string &key) const
{
    auto it = options.find(key);
    if (it == options.end())
        return std::nullopt;
    return it->second;
}

std::uint64_t
CommandLine::optionU64(const std::string &key,
                       std::uint64_t fallback) const
{
    auto value = option(key);
    if (!value)
        return fallback;
    // Strict: the whole token must be a plain decimal integer.
    // Trailing garbage ("4x") or signs must not parse silently.
    try {
        std::size_t used = 0;
        const std::uint64_t parsed = std::stoull(*value, &used);
        if (used != value->size() || value->front() == '-' ||
            value->front() == '+')
            throw std::invalid_argument(*value);
        return parsed;
    } catch (const std::exception &) {
        throw std::runtime_error("tigr: invalid --" + key + " '" +
                                 *value +
                                 "': expected a non-negative integer");
    }
}

std::uint64_t
CommandLine::optionPositive(const std::string &key,
                            std::uint64_t fallback) const
{
    auto value = option(key);
    if (!value)
        return fallback;
    return par::parsePositiveInt(*value, "--" + key);
}

bool
CommandLine::has(const std::string &key) const
{
    return options.count(key) > 0;
}

CommandLine
parse(const std::vector<std::string> &args)
{
    if (args.empty())
        throw std::invalid_argument("tigr: missing command");
    CommandLine cmd;
    cmd.command = args[0];
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) == 0) {
            std::string key = arg.substr(2);
            if (i + 1 < args.size() &&
                args[i + 1].rfind("--", 0) != 0) {
                cmd.options[key] = args[++i];
            } else {
                cmd.options[key] = "";
            }
        } else {
            cmd.positional.push_back(arg);
        }
    }
    return cmd;
}

graph::Csr
loadGraphFile(const std::string &path)
{
    const std::string ext = extensionOf(path);
    graph::Csr g;
    if (ext == ".csr") {
        g = graph::loadCsrBinaryFile(path);
    } else if (ext == ".tgs") {
        g = service::loadSnapshotFile(path).graph;
    } else if (ext == ".mtx") {
        g = graph::Csr::fromCoo(graph::loadMatrixMarketFile(path));
    } else if (ext == ".el" || ext == ".txt" || ext == ".snap") {
        g = graph::Csr::fromCoo(graph::loadEdgeListFile(path));
    } else {
        throw std::runtime_error(
            "tigr: unknown graph extension '" + ext +
            "' (.el/.txt/.snap/.mtx/.csr/.tgs)");
    }
    if (auto error = graph::validateCsr(g))
        throw std::runtime_error("tigr: invalid graph: " + *error);
    return g;
}

void
saveGraphFile(const graph::Csr &graph, const std::string &path)
{
    const std::string ext = extensionOf(path);
    if (ext == ".csr") {
        graph::saveCsrBinaryFile(graph, path);
    } else if (ext == ".tgs") {
        service::saveSnapshotFile(graph, path);
    } else if (ext == ".el" || ext == ".txt" || ext == ".snap") {
        graph::saveEdgeListFile(graph.toCoo(), path);
    } else {
        throw std::runtime_error("tigr: cannot write extension '" +
                                 ext + "' (.el/.txt/.snap/.csr/.tgs)");
    }
}

std::string
usage()
{
    return "usage:\n"
           "  tigr stats <graph> [--algo A[,...] [--source N] "
           "[engine flags]]\n"
           "  tigr generate --type rmat|ba|er|ws --nodes N "
           "[--edges M] [--seed S] [--weighted] --out FILE\n"
           "  tigr transform <graph> --out FILE [--k N] "
           "[--topology udt|star|rstar|cliq|circ] "
           "[--dumb zero|inf|one] [--threads N]\n"
           "  tigr run <graph> [--algo bfs|sssp|sswp|cc|pr|bc[,...]] "
           "[--strategy baseline|tigr-udt|tigr-v|tigr-v+|mw|cusha|"
           "gunrock] [--source N] [--k N] [--pull] [--dynamic] "
           "[--no-worklist] [--frontier dense|sparse|adaptive] "
           "[--frontier-ratio F] [--threads N] [--trace FILE] "
           "[--metrics]\n"
           "  tigr trace <graph> --out FILE [--text FILE] "
           "[--algo A[,...]] [--source N] [engine flags]\n"
           "  tigr snapshot <graph> <out.tgs> [--k N] "
           "[--layout consecutive|coalesced] [--threads N]\n"
           "  tigr serve --script FILE [--workers N] [--queue N] "
           "[--cache-mb N] [--max-retries N] [--fail-fast] "
           "[--metrics] [--trace FILE] "
           "[--frontier dense|sparse|adaptive] "
           "[--frontier-ratio F] [--durable DIR "
           "[--sync-policy every-record|group-commit|unsynced]]\n"
           "  tigr recover <dir>\n"
           "  tigr mutate <graph> [--batches N] [--inserts N] "
           "[--deletes N] [--reweights N] [--seed S] [--max-weight W] "
           "[--hot-span N] [--k N] [--layout consecutive|coalesced] "
           "[--verify] [--apply FILE] [--log FILE] [--out FILE] "
           "[--threads N] [--metrics]\n"
           "\n"
           "--algo accepts a comma-separated list; all entries run on "
           "one engine, so later runs reuse the cached transform.\n"
           "--threads accepts an integer in [1, 1024]; omit it to "
           "resolve through TIGR_THREADS or the hardware concurrency. "
           "Results are identical for any value.\n"
           "--frontier picks the worklist representation (default "
           "adaptive: sparse while |frontier| <= F * nodes, F from "
           "--frontier-ratio, default 0.05). Values are identical for "
           "every mode; see docs/frontier.md.\n"
           "--max-retries bounds per-query re-execution after "
           "transient failures (default 2); --fail-fast stops a serve "
           "script at the first batch containing a terminally failed "
           "query and exits nonzero. See docs/resilience.md.\n"
           "--durable opens the store over DIR with crash recovery "
           "plus a write-ahead mutation journal; --sync-policy orders "
           "journal fsyncs against acknowledgments (default "
           "group-commit: one fsync per batch). `tigr recover` runs "
           "the same recovery standalone and prints what it did. "
           "See docs/durability.md.\n"
           "--trace writes structured engine events as Chrome "
           "trace_event JSON (chrome://tracing); --metrics prints the "
           "aggregated counter registry. Both are stamped with "
           "simulated time only, so the output is bit-identical at "
           "any --threads/--workers value. See docs/observability.md."
           "\n"
           "mutate streams seeded edge mutations (or replays --apply "
           "LOG, parsed and applied one batch at a time) through the "
           "dynamic graph while the arena-addressed incremental "
           "virtualizer repairs the virtual node array; --verify "
           "checks every epoch against a full rebuild, --hot-span "
           "concentrates edits on low vertex ids (the suffix-dominated "
           "regime), and --threads parallelizes the repair sweeps. "
           "See docs/dynamic.md.\n";
}

int
runCommand(const CommandLine &cmd, std::ostream &out)
{
    if (cmd.command == "stats")
        return cmdStats(cmd, out);
    if (cmd.command == "generate")
        return cmdGenerate(cmd, out);
    if (cmd.command == "transform")
        return cmdTransform(cmd, out);
    if (cmd.command == "run")
        return cmdRun(cmd, out);
    if (cmd.command == "trace")
        return cmdTrace(cmd, out);
    if (cmd.command == "snapshot")
        return cmdSnapshot(cmd, out);
    if (cmd.command == "serve")
        return cmdServe(cmd, out);
    if (cmd.command == "recover")
        return cmdRecover(cmd, out);
    if (cmd.command == "mutate")
        return cmdMutate(cmd, out);
    if (cmd.command == "help") {
        out << usage();
        return 0;
    }
    throw std::runtime_error("tigr: unknown command '" + cmd.command +
                             "'\n" + usage());
}

} // namespace tigr::cli
