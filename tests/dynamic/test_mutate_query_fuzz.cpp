/**
 * @file
 * Differential mutate→query fuzz shard: seeded random interleavings of
 * mutation batches and query batches where every arena-served result —
 * pull queries off the reverse arena included — must bit-match a
 * dense-rebuild oracle (a never-mutated store registered over the
 * mutated graph's CSR before every query batch), at 1/2/8 workers and
 * across all frontier modes. Every virtual-strategy query after the
 * first mutation exercises the arena path.
 */
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/mutation.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

graph::Csr
rmatGraph(std::uint64_t seed)
{
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 400, .edges = 3600, .seed = seed}));
}

/** ctest runs each test case as its own process: key the scratch file
 *  on the pid so parallel cases never race on one path. */
std::filesystem::path
tempPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           ("tigr_fuzz_test_" +
            std::to_string(static_cast<std::uint64_t>(::getpid())) +
            "_" + name);
}

/** Store entry with a persisted virtual section (degree bound 8,
 *  coalesced), so mutations maintain the forward AND reverse arena
 *  virtualizers. */
void
addVirtualEntry(GraphStore &store, const std::string &name,
                const graph::Csr &csr)
{
    const auto path = tempPath(name + ".tgs");
    Snapshot snapshot;
    snapshot.graph = csr;
    snapshot.hasVirtual = true;
    snapshot.virtualDegreeBound = 8;
    snapshot.virtualLayout = transform::EdgeLayout::Coalesced;
    {
        const transform::VirtualGraph vg(
            csr, 8, transform::EdgeLayout::Coalesced);
        snapshot.virtualNodes.assign(vg.virtualNodes().begin(),
                                     vg.virtualNodes().end());
    }
    saveSnapshotFile(snapshot, path);
    store.addSnapshot(name, path);
    std::filesystem::remove(path);
}

/** One mutate→query round of the interleaving. */
struct Round
{
    std::vector<MutationSpec> mutations;
    std::vector<QuerySpec> queries;
};

/** The interleaving is a pure function of the fuzz seed, so every
 *  store (arena path, dense oracle) and every worker count replays the
 *  exact same sequence. */
std::vector<Round>
generateRounds(std::uint64_t fuzz_seed, std::size_t rounds)
{
    std::mt19937_64 rng(fuzz_seed);
    const engine::Algorithm algos[] = {
        engine::Algorithm::Bfs, engine::Algorithm::Sssp,
        engine::Algorithm::Sswp, engine::Algorithm::Cc,
        engine::Algorithm::Pr,  engine::Algorithm::Bc};
    const engine::FrontierMode modes[] = {
        engine::FrontierMode::Dense, engine::FrontierMode::Sparse,
        engine::FrontierMode::Adaptive};

    std::vector<Round> plan(rounds);
    for (Round &round : plan) {
        for (const char *name : {"g", "p"}) {
            MutationSpec mutation;
            mutation.graph = name;
            mutation.generate = dynamic::GeneratorSpec{
                .seed = rng() % 10000,
                .inserts = 5 + rng() % 25,
                .deletes = rng() % 15,
                .reweights = rng() % 10};
            round.mutations.push_back(std::move(mutation));
        }
        for (std::size_t i = 0; i < 12; ++i) {
            QuerySpec spec;
            spec.graph = (i % 2 == 0) ? "g" : "p";
            spec.algorithm = algos[rng() % 6];
            spec.source = static_cast<NodeId>(rng() % 400);
            spec.strategy = (rng() % 2 == 0)
                                ? engine::Strategy::TigrVPlus
                                : engine::Strategy::TigrV;
            spec.direction = (rng() % 2 == 0)
                                 ? engine::Direction::Pull
                                 : engine::Direction::Push;
            spec.frontier = modes[rng() % 3];
            spec.degreeBound = 8;
            spec.prIterations = 10;
            round.queries.push_back(std::move(spec));
        }
    }
    return plan;
}

/** Flat per-query record: the bit-identity witness the differential
 *  and worker-invariance passes compare. */
struct Record
{
    QueryOutcome outcome;
    std::uint64_t digest;
    std::size_t values;
    unsigned iterations;
    bool converged;
    bool arenaServed;
};

/** Replay the interleaving against the mutated store: after the first
 *  mutation every virtual-strategy query is arena-served. */
std::vector<Record>
runArenaPath(const std::vector<Round> &plan, unsigned workers,
             std::uint64_t *arena_counter = nullptr)
{
    GraphStore store;
    addVirtualEntry(store, "g", rmatGraph(131));
    store.add("p", rmatGraph(132)); // no virtual section: on-the-fly
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = workers;
    options.metrics = &registry;
    QueryScheduler scheduler(store, cache, options);

    std::vector<Record> records;
    for (const Round &round : plan) {
        const MutationBatchResult result =
            scheduler.runBatch(round.mutations, round.queries);
        for (const MutationResult &m : result.mutations) {
            EXPECT_TRUE(m.applied) << m.message;
            EXPECT_FALSE(m.error.has_value());
        }
        for (const QueryResult &r : result.queries) {
            EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
            // Both graphs mutated in this round's own batch.
            EXPECT_TRUE(r.arenaServed);
            EXPECT_FALSE(r.cacheHit);
            records.push_back({r.outcome, r.digest, r.values,
                               r.info.iterations, r.info.converged,
                               r.arenaServed});
        }
    }
    // Arena serving is observable: one counter tick per served query.
    EXPECT_EQ(registry.counter("scheduler.arena_served").value(),
              records.size());
    if (arena_counter)
        *arena_counter =
            registry.counter("scheduler.arena_served").value();
    return records;
}

/** Replay the same interleaving against the oracle: apply each round's
 *  mutations, register both graphs' pinned dense CSRs in a never-mutated
 *  store, then run the round's queries there on the dense path. */
std::vector<Record>
runDenseOracle(const std::vector<Round> &plan, unsigned workers)
{
    GraphStore store;
    addVirtualEntry(store, "g", rmatGraph(131));
    store.add("p", rmatGraph(132));
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = workers;
    QueryScheduler scheduler(store, cache, options);

    std::vector<Record> records;
    for (const Round &round : plan) {
        const MutationBatchResult applied = scheduler.runBatch(
            round.mutations, std::span<const QuerySpec>{});
        for (const MutationResult &m : applied.mutations)
            EXPECT_TRUE(m.applied) << m.message;
        GraphStore dense;
        addVirtualEntry(dense, "g", store.pin("g")->graph);
        dense.add("p", store.pin("p")->graph);
        TransformCache dense_cache(std::size_t{64} << 20);
        QueryScheduler oracle(dense, dense_cache, options);
        const std::vector<QueryResult> results =
            oracle.runBatch(round.queries);
        for (const QueryResult &r : results) {
            EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
            EXPECT_FALSE(r.arenaServed);
            records.push_back({r.outcome, r.digest, r.values,
                               r.info.iterations, r.info.converged,
                               r.arenaServed});
        }
    }
    return records;
}

void
expectValueIdentical(const std::vector<Record> &got,
                     const std::vector<Record> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        EXPECT_EQ(got[i].outcome, want[i].outcome);
        EXPECT_EQ(got[i].digest, want[i].digest);
        EXPECT_EQ(got[i].values, want[i].values);
        EXPECT_EQ(got[i].iterations, want[i].iterations);
        EXPECT_EQ(got[i].converged, want[i].converged);
    }
}

class MutateQueryFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MutateQueryFuzz, ArenaServedResultsBitMatchTheDenseOracle)
{
    const std::vector<Round> plan = generateRounds(GetParam(), 4);

    const std::vector<Record> arena = runArenaPath(plan, 1);
    const std::vector<Record> oracle = runDenseOracle(plan, 2);
    expectValueIdentical(arena, oracle);

    // And the arena path itself is worker-count-invariant.
    for (const unsigned workers : {2u, 8u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const std::vector<Record> again = runArenaPath(plan, workers);
        ASSERT_EQ(again.size(), arena.size());
        for (std::size_t i = 0; i < arena.size(); ++i) {
            EXPECT_EQ(again[i].digest, arena[i].digest) << i;
            EXPECT_EQ(again[i].iterations, arena[i].iterations) << i;
            EXPECT_EQ(again[i].arenaServed, arena[i].arenaServed) << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutateQueryFuzz,
                         ::testing::Values(std::uint64_t{1},
                                           std::uint64_t{2},
                                           std::uint64_t{3}),
                         [](const auto &info) {
                             return "seed" +
                                    std::to_string(info.param);
                         });

TEST(MutateQueryFuzz, PullUnderUdtIsRejectedAtAdmission)
{
    GraphStore store;
    store.add("g", rmatGraph(131));
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 1;
    QueryScheduler scheduler(store, cache, options);

    QuerySpec spec;
    spec.graph = "g";
    spec.algorithm = engine::Algorithm::Bfs;
    spec.strategy = engine::Strategy::TigrUdt;
    spec.direction = engine::Direction::Pull;
    const auto results =
        scheduler.runBatch(std::vector<QuerySpec>{spec});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].outcome, QueryOutcome::Rejected);
    ASSERT_TRUE(results[0].error.has_value());
    EXPECT_EQ(results[0].error->kind, ServiceErrorKind::InvalidQuery);
}

TEST(MutateQueryFuzz, MidBurstAdmissionNeverMaterializesTheDenseCopy)
{
    // The mid-burst regression the issue pins: a query admitted while
    // the dense copy is stale (arena fresh) must neither materialize
    // the dense entry eagerly nor misreport transformCached.
    GraphStore store;
    addVirtualEntry(store, "g", rmatGraph(131));
    store.add("p", rmatGraph(132));
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 2;
    QueryScheduler scheduler(store, cache, options);

    MutationSpec mutate_g;
    mutate_g.graph = "g";
    mutate_g.generate = dynamic::GeneratorSpec{.seed = 7,
                                               .inserts = 16,
                                               .deletes = 6};
    MutationSpec mutate_p = mutate_g;
    mutate_p.graph = "p";
    const std::vector<MutationSpec> mutations{mutate_g, mutate_p};

    QuerySpec pull;
    pull.graph = "g";
    pull.algorithm = engine::Algorithm::Sssp;
    pull.direction = engine::Direction::Pull;
    pull.strategy = engine::Strategy::TigrVPlus;
    pull.degreeBound = 8;
    QuerySpec push_plain = pull;
    push_plain.graph = "p";
    push_plain.direction = engine::Direction::Push;
    const std::vector<QuerySpec> queries{pull, push_plain};

    const MutationBatchResult result =
        scheduler.runBatch(mutations, queries);
    ASSERT_EQ(result.queries.size(), 2u);
    for (const QueryResult &r : result.queries) {
        EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
        EXPECT_TRUE(r.arenaServed);
        EXPECT_FALSE(r.cacheHit);
    }
    // "g" carries maintained arena virtualizers matched to the spec
    // (K=8, coalesced = TigrV+): the run reuses them, and says so.
    EXPECT_TRUE(result.queries[0].info.transformCached);
    // "p" has no virtual section: the provider enumerates on the fly.
    EXPECT_FALSE(result.queries[1].info.transformCached);

    // The burst is over and neither dense copy materialized: the
    // peeked stored entry still carries the pre-mutation epoch — the
    // direct witness that no eager rebuild happened — while the live
    // epoch advanced.
    ASSERT_NE(store.peek("g"), nullptr);
    EXPECT_EQ(store.peek("g")->epoch, 0u);
    EXPECT_EQ(store.epochOf("g"), 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(MutateQueryFuzz, IngestBurstsNeverMaterializeTheDenseCopy)
{
    // Ingest requests — runBatch({mutation}, {}) — must read only the
    // live arena: existence, epoch and the generated tail never go
    // through find/at/pin, so a burst of them leaves the dense copy at
    // the registered epoch however long it runs.
    GraphStore store;
    addVirtualEntry(store, "g", rmatGraph(131));
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 2;
    QueryScheduler scheduler(store, cache, options);

    const auto mutation = [](std::uint64_t seed) {
        MutationSpec spec;
        spec.graph = "g";
        spec.generate = dynamic::GeneratorSpec{
            .seed = seed, .inserts = 20, .deletes = 8, .reweights = 6};
        return spec;
    };
    for (std::uint64_t burst = 1; burst <= 3; ++burst) {
        const MutationSpec spec = mutation(burst);
        const MutationBatchResult result = scheduler.runBatch(
            std::span(&spec, 1), std::span<const QuerySpec>{});
        ASSERT_EQ(result.mutations.size(), 1u);
        EXPECT_TRUE(result.mutations[0].applied)
            << result.mutations[0].message;
        EXPECT_EQ(result.mutations[0].epoch, burst);
        EXPECT_TRUE(result.queries.empty());
    }

    QuerySpec pull;
    pull.graph = "g";
    pull.algorithm = engine::Algorithm::Bfs;
    pull.direction = engine::Direction::Pull;
    pull.strategy = engine::Strategy::TigrVPlus;
    pull.degreeBound = 8;
    QuerySpec push = pull;
    push.algorithm = engine::Algorithm::Sssp;
    push.direction = engine::Direction::Push;
    const std::vector<QuerySpec> queries{push, pull};
    const MutationSpec fresh = mutation(4);
    const MutationBatchResult result =
        scheduler.runBatch(std::span(&fresh, 1), queries);
    ASSERT_EQ(result.queries.size(), 2u);
    for (const QueryResult &r : result.queries) {
        EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
        EXPECT_TRUE(r.arenaServed);
    }

    ASSERT_NE(store.peek("g"), nullptr);
    EXPECT_EQ(store.peek("g")->epoch, 0u);
    EXPECT_EQ(store.epochOf("g"), 4u);
}

/** Registry digest of a reverse-virtualized store fed the plan's
 *  mutations as ingest-only bursts, then mutate-and-query rounds. */
std::uint64_t
registryDigest(const std::vector<Round> &plan, unsigned workers)
{
    GraphStore store;
    addVirtualEntry(store, "g", rmatGraph(131));
    addVirtualEntry(store, "p", rmatGraph(132));
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = workers;
    options.metrics = &registry;
    QueryScheduler scheduler(store, cache, options);
    for (const Round &round : plan) {
        for (const MutationSpec &burst : round.mutations)
            scheduler.runBatch(std::span(&burst, 1),
                               std::span<const QuerySpec>{});
        scheduler.runBatch(round.mutations, round.queries);
    }
    EXPECT_GT(registry.counter("scheduler.mutations").value(), 0u);
    EXPECT_GT(registry.counter("scheduler.arena_served").value(), 0u);
    return registry.digest();
}

TEST(MutateQueryFuzz, RegistryDigestIsWorkerAndRunInvariant)
{
    // The MetricsRegistry is deterministic by contract: no host timing
    // may reach it, so the digest repeats across runs and worker
    // counts.
    const std::vector<Round> plan = generateRounds(5, 3);
    const std::uint64_t want = registryDigest(plan, 1);
    for (const unsigned workers : {1u, 2u, 8u}) {
        for (int run = 0; run < 2; ++run) {
            SCOPED_TRACE(std::to_string(workers) + " workers, run " +
                         std::to_string(run));
            EXPECT_EQ(registryDigest(plan, workers), want);
        }
    }
}

} // namespace
} // namespace tigr::service
