/**
 * @file
 * Seeded inputs of tigr_bench and the correctness references the timed
 * results are checked against. Everything here is a pure function of
 * the seed: the program under test only ever receives what these
 * produce, and nothing here is timed.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "dynamic/mutation.hpp"
#include "engine/graph_engine.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "service/query_scheduler.hpp"

namespace tigr::bench {

/** Store name every workload registers its graph under. */
inline const std::string kGraphName = "g";

/** Degree bound and layout of the snapshot's persisted virtual
 *  section, which is also what the arena-served path repairs. */
inline constexpr NodeId kServiceK = 10;

/** Vertices below this id receive half of every mutation batch. */
inline constexpr NodeId kHotSpan = 64;

/** Uniform integer in [0, bound) from a standard-specified engine, so a
 *  seed names the same inputs on every platform. */
inline std::uint64_t
uniform(std::mt19937_64 &rng, std::uint64_t bound)
{
    return bound == 0 ? 0 : rng() % bound;
}

/** RMAT graph with 2^@p log_nodes nodes and 16 edges per node, weights
 *  uniform in 1..64. */
graph::Csr makeGraph(std::uint64_t seed, unsigned log_nodes);

/** Save @p graph with a persisted TigrV+ virtual section (K=10,
 *  coalesced) — the snapshot every workload serves from. */
void saveServiceSnapshot(const graph::Csr &graph,
                         const std::filesystem::path &path);

/**
 * Query sources: the top 1% of nodes by out-degree (at least 16), in a
 * seeded order. Random RMAT sources are often isolated or leaves, which
 * would make a query trivial; hubs make every query do real work.
 */
std::vector<NodeId> hubSources(const graph::Csr &graph,
                               std::uint64_t seed);

/**
 * The bench-side mutation generator. Each batch holds about m/1000
 * edits, a third each insert/delete/reweight, interleaved, half of them
 * on vertices below kHotSpan. Inserts draw uniform endpoints; deletes
 * and reweights draw from a pool of the live (src, dst) pairs that the
 * generator keeps in step with the batches it emits — so every batch is
 * valid against the graph it will be applied to, by construction.
 */
class MutationStream
{
  public:
    MutationStream(const graph::Csr &graph, std::uint64_t seed);

    /** The next batch of the stream. */
    dynamic::MutationBatch next();

    /** Edits per batch. */
    std::size_t batchSize() const { return batchSize_; }

  private:
    using Pair = std::pair<NodeId, NodeId>;

    std::mt19937_64 rng_;
    NodeId nodes_ = 0;
    std::size_t batchSize_ = 0;
    /** Live pairs by source: [0] = src >= kHotSpan, [1] = src below. */
    std::vector<Pair> pools_[2];
};

/** The same FNV-1a digest QueryResult::digest carries. */
template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values)
{
    return graph::fnv1a64(values.data(), values.size() * sizeof(T));
}

/** What one direct engine call returned. */
struct EngineResult
{
    std::uint64_t digest = 0;
    engine::RunInfo info;
    /** PR/BC values, for oracle comparison (empty otherwise). */
    std::vector<double> floats;
};

/** Run @p spec on a 1-thread GraphEngine over @p graph, the way the
 *  scheduler's execute phase does (optionally with a cached schedule,
 *  or on the dynamic-mapping fallback). */
EngineResult runQuery(const graph::Csr &graph,
                      const service::QuerySpec &spec,
                      std::shared_ptr<const engine::SharedSchedule> shared =
                          nullptr,
                      bool dynamic_mapping = false);

/**
 * Reference digests for a set of query specs over one graph, checked
 * against the ref:: oracles before timing starts:
 *
 *  - BFS/SSSP/SSWP values are integers and identical under every
 *    strategy and direction, so their reference is the oracle's exact
 *    values (keyed by algorithm and source) — a strictly stronger check
 *    than a pre-run of each spec.
 *  - CC labels propagate along directed edges, unlike the undirected
 *    oracle, so the reference is a Baseline-strategy engine run.
 *  - PR/BC are floating point and their summation order depends on the
 *    strategy, so each distinct spec runs once on a 1-thread engine,
 *    its values are checked against the oracle with the test suite's
 *    tolerances, and that run's digest becomes the reference.
 */
class References
{
  public:
    explicit References(const graph::Csr &graph) : graph_(graph) {}

    /** Queue @p spec's reference (duplicates are free). */
    void add(const service::QuerySpec &spec);

    /** Compute every queued reference on @p threads threads. Returns
     *  one message per oracle disagreement (empty = all agree). */
    std::vector<std::string> prepare(unsigned threads);

    /** Reference digest of @p spec; nullopt when never prepared. */
    std::optional<std::uint64_t>
    digest(const service::QuerySpec &spec) const;

  private:
    using Key = std::vector<std::uint64_t>;
    static Key keyOf(const service::QuerySpec &spec);

    const graph::Csr &graph_;
    std::map<Key, service::QuerySpec> pending_;
    std::map<Key, std::uint64_t> digests_;
};

} // namespace tigr::bench
