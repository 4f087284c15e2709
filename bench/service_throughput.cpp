/**
 * @file
 * Analytics-service benchmark: snapshot vs text ingest on an RMAT-18
 * stand-in, and scheduler query throughput with a cold vs warm
 * transform cache. The two claims this pins down:
 *
 *  - loading a TIGRSNP2 snapshot is much faster than re-parsing the
 *    same graph from a text edge list (one checksummed bulk read vs
 *    per-line tokenizing plus a COO->CSR rebuild), and
 *  - a warm TransformCache removes the per-query transform cost, so a
 *    repeated batch runs at a visibly higher query rate.
 *
 * Scales with $TIGR_BENCH_SCALE like every other bench binary (CI
 * smoke uses 0.05; 1.0 is the full 2^18-node graph).
 */
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"

namespace tigr {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

graph::Csr
rmat18()
{
    const auto nodes =
        static_cast<NodeId>(double(1u << 18) * bench::benchScale());
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 64;
    options.weightSeed = 18;
    return graph::GraphBuilder(options).build(graph::rmat(
        {.nodes = nodes, .edges = EdgeIndex{nodes} * 16, .seed = 18}));
}

void
writeEdgeListText(const graph::Csr &g, const fs::path &path)
{
    std::ofstream out(path);
    for (NodeId u = 0; u < g.numNodes(); ++u)
        for (EdgeIndex e = g.edgeBegin(u); e < g.edgeEnd(u); ++e)
            out << u << ' ' << g.edgeTarget(e) << ' '
                << g.edgeWeight(e) << '\n';
}

std::vector<service::QuerySpec>
queryBatch(std::size_t count)
{
    const engine::Algorithm algos[] = {
        engine::Algorithm::Bfs, engine::Algorithm::Sssp,
        engine::Algorithm::Sswp, engine::Algorithm::Cc,
        engine::Algorithm::Pr};
    std::vector<service::QuerySpec> batch;
    for (std::size_t i = 0; i < count; ++i) {
        service::QuerySpec spec;
        spec.graph = "rmat18";
        spec.algorithm = algos[i % 5];
        spec.strategy = (i % 2 == 0) ? engine::Strategy::TigrVPlus
                                     : engine::Strategy::TigrV;
        spec.source = static_cast<NodeId>(i * 131);
        spec.degreeBound = 10;
        spec.prIterations = 10;
        batch.push_back(spec);
    }
    return batch;
}

} // namespace
} // namespace tigr

int
main()
{
    using namespace tigr;

    const fs::path dir =
        fs::temp_directory_path() / "tigr_service_bench";
    fs::create_directories(dir);
    const fs::path text = dir / "rmat18.el";
    const fs::path snap = dir / "rmat18.tgs";

    const graph::Csr g = rmat18();
    std::cout << "graph: " << g.numNodes() << " nodes, "
              << g.numEdges() << " edges (scale "
              << bench::benchScale() << ")\n\n";

    writeEdgeListText(g, text);
    service::saveSnapshotFile(g, snap);

    bench::TablePrinter ingest({"ingest path", "ms", "speedup"});
    auto start = Clock::now();
    graph::CooEdges text_edges = graph::loadEdgeListFile(text);
    // An edge list cannot name isolated vertices: pin the node count,
    // or RMAT's trailing isolated ids would make the graphs differ.
    text_edges.ensureNodes(g.numNodes());
    const graph::Csr from_text = graph::Csr::fromCoo(text_edges);
    const double text_ms = msSince(start);

    start = Clock::now();
    const service::Snapshot streamed = service::loadSnapshotFile(
        snap, service::SnapshotLoadMode::Stream);
    const double stream_ms = msSince(start);

    start = Clock::now();
    const service::Snapshot mapped = service::loadSnapshotFile(
        snap, service::SnapshotLoadMode::Mmap);
    const double mmap_ms = msSince(start);

    if (from_text != streamed.graph || from_text != mapped.graph) {
        std::cerr << "FAIL: ingest paths disagree\n";
        return 1;
    }
    ingest.addRow({"text edge list", bench::fmt(text_ms), "1.00x"});
    ingest.addRow({"snapshot (stream)", bench::fmt(stream_ms),
                   bench::fmt(text_ms / stream_ms) + "x"});
    ingest.addRow({"snapshot (mmap)", bench::fmt(mmap_ms),
                   bench::fmt(text_ms / mmap_ms) + "x"});
    ingest.print(std::cout);
    std::cout << '\n';

    service::GraphStore store;
    store.add("rmat18", streamed.graph, snap.string());
    service::TransformCache cache(std::size_t{512} << 20);
    service::SchedulerOptions options;
    options.workers = bench::benchMaxThreads();
    service::QueryScheduler scheduler(store, cache, options);

    const auto batch = queryBatch(30);
    bench::TablePrinter queries(
        {"batch", "ms", "queries/s", "cache hits"});
    for (const char *label : {"cold cache", "warm cache"}) {
        start = Clock::now();
        const auto results = scheduler.runBatch(batch);
        const double ms = msSince(start);
        std::size_t hits = 0;
        for (const auto &r : results) {
            if (r.outcome != service::QueryOutcome::Completed) {
                std::cerr << "FAIL: query error: " << r.message
                          << '\n';
                return 1;
            }
            hits += r.cacheHit ? 1u : 0u;
        }
        queries.addRow({label, bench::fmt(ms),
                        bench::fmt(1000.0 * double(batch.size()) / ms),
                        std::to_string(hits) + "/" +
                            std::to_string(batch.size())});
    }
    queries.print(std::cout);
    std::cout << "\nworkers: " << scheduler.workers()
              << ", cache bytes: " << cache.stats().bytes << "\n";

    const bool ok = stream_ms < text_ms && mmap_ms < text_ms;
    std::cout << (ok ? "PASS" : "WARN")
              << ": snapshot ingest vs text ingest\n";
    fs::remove_all(dir);
    return 0;
}
