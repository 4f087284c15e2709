#include "inputs.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <thread>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "ref/oracles.hpp"
#include "service/snapshot.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::bench {

graph::Csr
makeGraph(std::uint64_t seed, unsigned log_nodes)
{
    const NodeId nodes = NodeId{1} << log_nodes;
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 64;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(graph::rmat(
        {.nodes = nodes, .edges = EdgeIndex{nodes} * 16, .seed = seed}));
}

void
saveServiceSnapshot(const graph::Csr &graph,
                    const std::filesystem::path &path)
{
    const transform::VirtualGraph vg(graph, kServiceK,
                                     transform::EdgeLayout::Coalesced);
    service::saveSnapshotFile(vg, path);
}

std::vector<NodeId>
hubSources(const graph::Csr &graph, std::uint64_t seed)
{
    const NodeId n = graph.numNodes();
    std::vector<NodeId> ids(n);
    std::iota(ids.begin(), ids.end(), NodeId{0});
    const std::size_t count =
        std::min<std::size_t>(n, std::max<std::size_t>(16, n / 100));
    std::partial_sort(ids.begin(), ids.begin() + count, ids.end(),
                      [&](NodeId a, NodeId b) {
                          return graph.degree(a) != graph.degree(b)
                                     ? graph.degree(a) > graph.degree(b)
                                     : a < b;
                      });
    ids.resize(count);
    std::mt19937_64 rng(seed ^ 0x5eed'50c5ULL);
    for (std::size_t i = ids.size(); i > 1; --i)
        std::swap(ids[i - 1], ids[uniform(rng, i)]);
    return ids;
}

MutationStream::MutationStream(const graph::Csr &graph, std::uint64_t seed)
    : rng_(seed ^ 0x3a7a7e5ULL), nodes_(graph.numNodes()),
      batchSize_(3 * std::max<std::size_t>(1, graph.numEdges() / 3000))
{
    for (NodeId v = 0; v < nodes_; ++v)
        for (const NodeId w : graph.outNeighbors(v))
            pools_[v < kHotSpan ? 1 : 0].emplace_back(v, w);
}

dynamic::MutationBatch
MutationStream::next()
{
    dynamic::MutationBatch batch;
    batch.reserve(batchSize_);
    for (std::size_t i = 0; i < batchSize_; ++i) {
        const bool hot = (i / 3) % 2 == 0;
        std::vector<Pair> *pool = &pools_[hot ? 1 : 0];
        if (pool->empty())
            pool = &pools_[hot ? 0 : 1];
        dynamic::Mutation m;
        const unsigned kind = pool->empty() ? 0 : i % 3;
        if (kind == 0) {
            m.kind = dynamic::MutationKind::InsertEdge;
            m.src = static_cast<NodeId>(
                uniform(rng_, hot ? kHotSpan : nodes_));
            m.dst = static_cast<NodeId>(uniform(rng_, nodes_));
            if (m.dst == m.src)
                m.dst = (m.dst + 1) % nodes_;
            m.weight = static_cast<Weight>(1 + uniform(rng_, 64));
            pools_[m.src < kHotSpan ? 1 : 0].emplace_back(m.src, m.dst);
        } else {
            const std::size_t at = uniform(rng_, pool->size());
            m.src = (*pool)[at].first;
            m.dst = (*pool)[at].second;
            if (kind == 1) {
                m.kind = dynamic::MutationKind::DeleteEdge;
                (*pool)[at] = pool->back();
                pool->pop_back();
            } else {
                m.kind = dynamic::MutationKind::UpdateWeight;
                m.weight = static_cast<Weight>(1 + uniform(rng_, 64));
            }
        }
        batch.push_back(m);
    }
    return batch;
}

namespace {

/** The engine options QueryScheduler::runAttempt derives from @p spec
 *  (single-threaded engine). */
engine::EngineOptions
engineOptions(const service::QuerySpec &spec)
{
    engine::EngineOptions opts;
    opts.strategy = spec.strategy;
    opts.direction = spec.direction;
    opts.degreeBound = spec.degreeBound;
    opts.mwVirtualWarp = spec.mwVirtualWarp;
    opts.frontier = spec.frontier;
    opts.frontierRatio = spec.frontierRatio;
    opts.threads = 1;
    return opts;
}

} // namespace

EngineResult
runQuery(const graph::Csr &graph, const service::QuerySpec &spec,
         std::shared_ptr<const engine::SharedSchedule> shared,
         bool dynamic_mapping)
{
    engine::EngineOptions opts = engineOptions(spec);
    opts.dynamicMapping = dynamic_mapping;
    opts.degraded = dynamic_mapping;
    engine::GraphEngine engine(graph, opts,
                               dynamic_mapping ? nullptr
                                               : std::move(shared));
    EngineResult out;
    auto take = [&](const auto &result) {
        out.info = result.info;
        out.digest = digestOf(result.values);
    };
    switch (spec.algorithm) {
      case engine::Algorithm::Bfs: take(engine.bfs(spec.source)); break;
      case engine::Algorithm::Sssp: take(engine.sssp(spec.source)); break;
      case engine::Algorithm::Sswp: take(engine.sswp(spec.source)); break;
      case engine::Algorithm::Cc: take(engine.cc()); break;
      case engine::Algorithm::Pr: {
        engine::PageRankOptions pr;
        pr.iterations = spec.prIterations;
        const auto result = engine.pagerank(pr);
        take(result);
        out.floats.assign(result.values.begin(), result.values.end());
        break;
      }
      case engine::Algorithm::Bc: {
        const std::array<NodeId, 1> sources{spec.source};
        const auto result = engine.bc(sources);
        take(result);
        out.floats = result.values;
        break;
      }
    }
    return out;
}

References::Key
References::keyOf(const service::QuerySpec &spec)
{
    const auto algo = static_cast<std::uint64_t>(spec.algorithm);
    switch (spec.algorithm) {
      case engine::Algorithm::Bfs:
      case engine::Algorithm::Sssp:
      case engine::Algorithm::Sswp:
        return {algo, spec.source};
      case engine::Algorithm::Cc:
        return {algo};
      case engine::Algorithm::Pr:
      case engine::Algorithm::Bc:
        break;
    }
    return {algo,
            spec.algorithm == engine::Algorithm::Bc ? spec.source : 0,
            static_cast<std::uint64_t>(spec.strategy),
            static_cast<std::uint64_t>(spec.direction),
            spec.degreeBound,
            spec.mwVirtualWarp,
            spec.prIterations};
}

void
References::add(const service::QuerySpec &spec)
{
    pending_.emplace(keyOf(spec), spec);
}

namespace {

/** Reference digest of one key's representative @p spec; sets
 *  @p problem when the engine disagrees with the oracle. */
std::uint64_t
referenceOf(const graph::Csr &graph, const service::QuerySpec &spec,
            std::string &problem)
{
    switch (spec.algorithm) {
      case engine::Algorithm::Bfs:
        return digestOf(ref::bfsHops(graph, spec.source));
      case engine::Algorithm::Sssp:
        return digestOf(ref::dijkstra(graph, spec.source));
      case engine::Algorithm::Sswp:
        return digestOf(ref::widestPath(graph, spec.source));
      case engine::Algorithm::Cc: {
        service::QuerySpec baseline = spec;
        baseline.strategy = engine::Strategy::Baseline;
        baseline.direction = engine::Direction::Push;
        return runQuery(graph, baseline).digest;
      }
      case engine::Algorithm::Pr:
      case engine::Algorithm::Bc:
        break;
    }
    const EngineResult run = runQuery(graph, spec);
    const bool pr = spec.algorithm == engine::Algorithm::Pr;
    std::vector<double> oracle;
    if (pr) {
        const auto ranks = ref::pageRank(
            graph, {.damping = 0.85, .iterations = spec.prIterations});
        oracle.assign(ranks.begin(), ranks.end());
    } else {
        const std::array<NodeId, 1> sources{spec.source};
        oracle = ref::betweennessCentrality(graph, sources);
    }
    for (std::size_t v = 0; v < oracle.size(); ++v) {
        // The test suite's tolerances (tests/engine/test_graph_engine.cpp).
        const double tol = pr ? 1e-9 : 1e-6 * (1.0 + std::abs(oracle[v]));
        if (v >= run.floats.size() ||
            !(std::abs(run.floats[v] - oracle[v]) <= tol)) {
            problem = std::string(engine::algorithmName(spec.algorithm)) +
                      " " +
                      std::string(engine::strategyName(spec.strategy)) +
                      " disagrees with the oracle at node " +
                      std::to_string(v);
            break;
        }
    }
    return run.digest;
}

} // namespace

std::vector<std::string>
References::prepare(unsigned threads)
{
    std::vector<std::pair<Key, service::QuerySpec>> tasks;
    for (const auto &[key, spec] : pending_)
        if (!digests_.count(key))
            tasks.emplace_back(key, spec);
    pending_.clear();

    std::vector<std::uint64_t> results(tasks.size());
    std::vector<std::string> problems;
    std::mutex problemsMutex;
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= tasks.size())
                return;
            std::string problem;
            try {
                results[i] = referenceOf(graph_, tasks[i].second, problem);
            } catch (const std::exception &e) {
                problem = e.what();
            }
            if (!problem.empty()) {
                std::lock_guard<std::mutex> lock(problemsMutex);
                problems.push_back(std::move(problem));
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();

    for (std::size_t i = 0; i < tasks.size(); ++i)
        digests_[tasks[i].first] = results[i];
    return problems;
}

std::optional<std::uint64_t>
References::digest(const service::QuerySpec &spec) const
{
    auto it = digests_.find(keyOf(spec));
    if (it == digests_.end())
        return std::nullopt;
    return it->second;
}

} // namespace tigr::bench
