/**
 * @file
 * The dynamic subsystem wired through the service layer: GraphStore
 * copy-on-write epochs and pins, snapshot epoch round-trips, epoch-
 * keyed TransformCache invalidation, the QueryScheduler's epoch-
 * consistent mutate-then-query batches (bit-identical at 1/2/8
 * workers), fault injection at both mutation sites, and the script
 * driver's `mutate` command.
 */
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation.hpp"
#include "fault/fault.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/script.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

graph::Csr
rmatGraph(std::uint64_t seed = 51)
{
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 400, .edges = 3600, .seed = seed}));
}

/** A hub with 200 out-edges: deleting 150 leaves > 50% slack and
 *  >= 64 dead slots, so the compaction threshold trips. */
graph::Csr
hubGraph()
{
    graph::CooEdges coo(256);
    for (NodeId i = 0; i < 200; ++i)
        coo.add(0, i + 1, (i % 9) + 1);
    return graph::Csr::fromCoo(coo);
}

dynamic::MutationBatch
hubDeletes(NodeId count)
{
    dynamic::MutationBatch batch;
    for (NodeId i = 0; i < count; ++i)
        batch.push_back(
            {dynamic::MutationKind::DeleteEdge, 0, i + 1, 0});
    return batch;
}

std::filesystem::path
tempPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           ("tigr_dyn_test_" + name);
}

TEST(GraphStoreMutation, PublishesNewEpochsAndKeepsPinsAlive)
{
    GraphStore store;
    store.add("g", rmatGraph());
    EXPECT_EQ(store.epochOf("g"), 0u);

    const auto pinned = store.pin("g");
    const EdgeIndex edges_before = pinned->graph.numEdges();

    const MutateResult first = store.mutate(
        "g", dynamic::generateBatch(
                 store.at("g").graph,
                 {.seed = 5, .inserts = 20, .deletes = 8}));
    EXPECT_EQ(first.epoch, 1u);
    EXPECT_EQ(store.epochOf("g"), 1u);
    EXPECT_EQ(first.delta.inserts, 20u);
    EXPECT_EQ(first.delta.deletes, 8u);
    EXPECT_EQ(first.liveEdges, edges_before + 20 - 8);
    EXPECT_EQ(store.at("g").graph.numEdges(), edges_before + 20 - 8);

    // The pinned version still sees the pre-mutation graph.
    EXPECT_EQ(pinned->epoch, 0u);
    EXPECT_EQ(pinned->graph.numEdges(), edges_before);

    const MutateResult second = store.mutate(
        "g", {{dynamic::MutationKind::InsertEdge, 1, 2, 3}});
    EXPECT_EQ(second.epoch, 2u);

    // Pins survive removal, too.
    store.remove("g");
    EXPECT_EQ(pinned->graph.numEdges(), edges_before);
}

TEST(GraphStoreMutation, RejectedBatchLeavesTheEntryUntouched)
{
    GraphStore store;
    store.add("g", rmatGraph());
    const graph::Csr before = store.at("g").graph;
    EXPECT_THROW(
        store.mutate("g", {{dynamic::MutationKind::InsertEdge,
                            9999, 0, 1}}), // src out of range
        dynamic::MutationError);
    EXPECT_EQ(store.epochOf("g"), 0u);
    EXPECT_EQ(store.at("g").graph, before);
    EXPECT_THROW(store.mutate("missing", {}), std::out_of_range);
}

TEST(GraphStoreMutation, SnapshotRoundTripRestoresTheEpoch)
{
    const auto path = tempPath("epoch.tgs");
    GraphStore store;
    store.add("g", rmatGraph());
    store.mutate("g", dynamic::generateBatch(store.at("g").graph,
                                             {.seed = 2, .inserts = 6}));
    store.mutate("g", dynamic::generateBatch(store.at("g").graph,
                                             {.seed = 3, .inserts = 6}));
    ASSERT_EQ(store.epochOf("g"), 2u);

    Snapshot snapshot;
    snapshot.graph = store.at("g").graph;
    snapshot.epoch = store.at("g").epoch;
    saveSnapshotFile(snapshot, path);

    GraphStore restored;
    restored.addSnapshot("g", path);
    EXPECT_EQ(restored.epochOf("g"), 2u);
    EXPECT_EQ(restored.at("g").graph, store.at("g").graph);

    // Mutations continue from the restored base, not from zero.
    restored.mutate("g",
                    {{dynamic::MutationKind::InsertEdge, 0, 1, 1}});
    EXPECT_EQ(restored.epochOf("g"), 3u);
    std::filesystem::remove(path);
}

TEST(GraphStoreMutation, RepairsThePersistedVirtualArray)
{
    const auto path = tempPath("virtual.tgs");
    const graph::Csr csr = rmatGraph(63);
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

    GraphStore store;
    store.addSnapshot("g", path);
    ASSERT_TRUE(store.at("g").hasVirtual);

    const MutateResult result = store.mutate(
        "g", dynamic::generateBatch(
                 store.at("g").graph,
                 {.seed = 9, .inserts = 24, .deletes = 12}));
    EXPECT_TRUE(result.virtualRepaired);
    EXPECT_GT(result.repair.repairedVertices, 0u);

    // The repaired entry array equals a from-scratch rebuild over the
    // published graph.
    const std::vector<transform::VirtualNode> repaired =
        store.arenaView("g").forward->nodesCopy();
    const transform::VirtualGraph rebuilt(
        store.at("g").graph, 8, transform::EdgeLayout::Coalesced);
    ASSERT_EQ(repaired.size(), rebuilt.virtualNodes().size());
    for (std::size_t i = 0; i < repaired.size(); ++i) {
        SCOPED_TRACE(i);
        const transform::VirtualNode &a = repaired[i];
        const transform::VirtualNode &b = rebuilt.virtualNodes()[i];
        EXPECT_EQ(a.physicalId, b.physicalId);
        EXPECT_EQ(a.start, b.start);
        EXPECT_EQ(a.stride, b.stride);
        EXPECT_EQ(a.count, b.count);
    }
    std::filesystem::remove(path);
}

TEST(SchedulerMutation, InvalidatesStaleCacheEntriesByEpoch)
{
    GraphStore store;
    store.add("g", rmatGraph());
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{64} << 20, &registry);
    SchedulerOptions options;
    options.workers = 1;
    QueryScheduler scheduler(store, cache, options);

    QuerySpec query;
    query.graph = "g";
    query.algorithm = engine::Algorithm::Bfs;
    query.source = 1;
    const std::vector<QuerySpec> queries{query};

    const auto cold = scheduler.runBatch({}, queries);
    ASSERT_EQ(cold.queries.size(), 1u);
    EXPECT_FALSE(cold.queries[0].cacheHit);
    const auto warm = scheduler.runBatch({}, queries);
    EXPECT_TRUE(warm.queries[0].cacheHit);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Mutating bumps the epoch: the old schedule is unreachable (its
    // key holds epoch 0) and invalidateStale() has dropped it. The
    // post-mutation query is served straight off the live arena — no
    // dense rebuild, no cache involvement — so the cache is empty.
    MutationSpec mutation;
    mutation.graph = "g";
    mutation.generate =
        dynamic::GeneratorSpec{.seed = 4, .inserts = 12, .deletes = 4};
    const auto mutated =
        scheduler.runBatch(std::vector{mutation}, queries);
    ASSERT_EQ(mutated.mutations.size(), 1u);
    EXPECT_TRUE(mutated.mutations[0].applied);
    EXPECT_EQ(mutated.mutations[0].epoch, 1u);
    EXPECT_FALSE(mutated.queries[0].cacheHit);
    EXPECT_TRUE(mutated.queries[0].arenaServed);
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_GE(cache.stats().evictions, 1u);

    // The arena keeps serving the mutated graph.
    const auto still = scheduler.runBatch({}, queries);
    EXPECT_TRUE(still.queries[0].arenaServed);
    EXPECT_EQ(still.queries[0].digest, mutated.queries[0].digest);

    // A direct-CSR consumer (UDT cannot run off the arena) materializes
    // the dense epoch, and so does a pin. Neither changes the route of
    // the virtual-strategy query: it stays arena-served with the same
    // values and the same metrics.
    QuerySpec direct = query;
    direct.strategy = engine::Strategy::TigrUdt;
    const auto dense =
        scheduler.runBatch({}, std::vector<QuerySpec>{direct});
    EXPECT_EQ(dense.queries[0].outcome, QueryOutcome::Completed);
    EXPECT_FALSE(dense.queries[0].arenaServed);

    const auto expectStillArenaServed = [&] {
        const auto again = scheduler.runBatch({}, queries);
        EXPECT_TRUE(again.queries[0].arenaServed);
        EXPECT_EQ(again.queries[0].digest, still.queries[0].digest);
        EXPECT_EQ(again.queries[0].metricsDigest,
                  still.queries[0].metricsDigest);
    };
    expectStillArenaServed();
    EXPECT_EQ(store.pin("g")->epoch, 1u);
    expectStillArenaServed();
    EXPECT_EQ(cache.stats().entries, 0u);

    // A direct-CSR query that the cache serves re-warms it at the new
    // epoch, with values bit-identical to what the arena served.
    QuerySpec baseline = query;
    baseline.strategy = engine::Strategy::Baseline;
    const std::vector<QuerySpec> baselines{baseline};
    const auto rewarm = scheduler.runBatch({}, baselines);
    EXPECT_FALSE(rewarm.queries[0].arenaServed);
    EXPECT_FALSE(rewarm.queries[0].cacheHit);
    EXPECT_EQ(rewarm.queries[0].digest, mutated.queries[0].digest);
    EXPECT_EQ(cache.stats().entries, 1u);

    const auto hot = scheduler.runBatch({}, baselines);
    EXPECT_TRUE(hot.queries[0].cacheHit);
}

TEST(SchedulerMutation, ReadOnlySchedulerRejectsMutations)
{
    GraphStore store;
    store.add("g", rmatGraph());
    TransformCache cache(std::size_t{64} << 20);
    const GraphStore &read_only = store;
    SchedulerOptions options;
    options.workers = 1;
    QueryScheduler scheduler(read_only, cache, options);

    MutationSpec mutation;
    mutation.graph = "g";
    mutation.generate = dynamic::GeneratorSpec{.seed = 1, .inserts = 4};
    QuerySpec query;
    query.graph = "g";
    const auto result = scheduler.runBatch(
        std::vector{mutation}, std::vector{query});
    ASSERT_EQ(result.mutations.size(), 1u);
    EXPECT_FALSE(result.mutations[0].applied);
    ASSERT_TRUE(result.mutations[0].error.has_value());
    EXPECT_EQ(result.mutations[0].error->kind,
              ServiceErrorKind::InvalidQuery);
    EXPECT_EQ(store.epochOf("g"), 0u);
    // The queries still ran.
    ASSERT_EQ(result.queries.size(), 1u);
    EXPECT_EQ(result.queries[0].outcome, QueryOutcome::Completed);
}

TEST(SchedulerMutation, UnknownGraphIsATypedRejection)
{
    GraphStore store;
    store.add("g", rmatGraph());
    TransformCache cache(std::size_t{64} << 20);
    QueryScheduler scheduler(store, cache, {});
    MutationSpec mutation;
    mutation.graph = "nope";
    mutation.mutations = {{dynamic::MutationKind::InsertEdge, 0, 1, 1}};
    const auto result =
        scheduler.runBatch(std::vector{mutation},
                           std::span<const QuerySpec>{});
    ASSERT_EQ(result.mutations.size(), 1u);
    EXPECT_FALSE(result.mutations[0].applied);
    ASSERT_TRUE(result.mutations[0].error.has_value());
    EXPECT_EQ(result.mutations[0].error->kind,
              ServiceErrorKind::InvalidQuery);
}

/** The acceptance batch: explicit + generated mutations on two graphs,
 *  then a query mix over both, at 1/2/8 workers. */
TEST(SchedulerMutation, MutateThenQueryBatchesAreWorkerInvariant)
{
    const auto run = [](unsigned workers) {
        GraphStore store;
        store.add("a", rmatGraph(71));
        store.add("b", rmatGraph(72));
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options;
        options.workers = workers;
        QueryScheduler scheduler(store, cache, options);

        std::vector<MutationSpec> mutations;
        {
            MutationSpec explicit_batch;
            explicit_batch.graph = "a";
            explicit_batch.mutations = {
                {dynamic::MutationKind::InsertEdge, 3, 4, 9},
                {dynamic::MutationKind::InsertEdge, 4, 3, 9},
            };
            mutations.push_back(explicit_batch);
            MutationSpec generated;
            generated.graph = "a";
            generated.generate = dynamic::GeneratorSpec{
                .seed = 11, .inserts = 18, .deletes = 9, .reweights = 6};
            mutations.push_back(generated);
            MutationSpec other;
            other.graph = "b";
            other.generate = dynamic::GeneratorSpec{
                .seed = 12, .inserts = 10, .deletes = 10};
            mutations.push_back(other);
        }

        std::vector<QuerySpec> queries;
        const engine::Algorithm algos[] = {
            engine::Algorithm::Bfs, engine::Algorithm::Sssp,
            engine::Algorithm::Sswp, engine::Algorithm::Cc,
            engine::Algorithm::Pr, engine::Algorithm::Bc};
        for (std::size_t i = 0; i < 12; ++i) {
            QuerySpec spec;
            spec.graph = (i % 2 == 0) ? "a" : "b";
            spec.algorithm = algos[i % 6];
            spec.source = static_cast<NodeId>((i * 13) % 300);
            spec.degreeBound = 8;
            spec.prIterations = 10;
            queries.push_back(spec);
        }
        return scheduler.runBatch(mutations, queries);
    };

    const MutationBatchResult reference = run(1);
    ASSERT_EQ(reference.mutations.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(reference.mutations[i].applied) << i;
        EXPECT_FALSE(reference.mutations[i].error.has_value()) << i;
    }
    EXPECT_EQ(reference.mutations[0].epoch, 1u);
    EXPECT_EQ(reference.mutations[1].epoch, 2u);
    EXPECT_EQ(reference.mutations[2].epoch, 1u);
    for (const QueryResult &r : reference.queries)
        EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;

    for (unsigned workers : {2u, 8u}) {
        const MutationBatchResult other = run(workers);
        SCOPED_TRACE(workers);
        ASSERT_EQ(other.mutations.size(), reference.mutations.size());
        for (std::size_t i = 0; i < reference.mutations.size(); ++i) {
            const MutationResult &a = reference.mutations[i];
            const MutationResult &b = other.mutations[i];
            EXPECT_EQ(a.epoch, b.epoch);
            EXPECT_EQ(a.inserts, b.inserts);
            EXPECT_EQ(a.deletes, b.deletes);
            EXPECT_EQ(a.reweights, b.reweights);
            EXPECT_EQ(a.touched, b.touched);
            EXPECT_EQ(a.repaired, b.repaired);
            EXPECT_EQ(a.resplits, b.resplits);
        }
        ASSERT_EQ(other.queries.size(), reference.queries.size());
        for (std::size_t i = 0; i < reference.queries.size(); ++i) {
            EXPECT_EQ(other.queries[i].outcome,
                      reference.queries[i].outcome);
            EXPECT_EQ(other.queries[i].digest,
                      reference.queries[i].digest);
            EXPECT_EQ(other.queries[i].values,
                      reference.queries[i].values);
        }
    }
}

TEST(SchedulerMutation, QueriesAfterMutationMatchARebuiltStore)
{
    // Mutate a store, then rebuild a second store from the final
    // materialized graph: the same queries must digest-match — the
    // incremental path introduces no drift. Swept across frontier
    // modes.
    GraphStore mutated;
    mutated.add("g", rmatGraph(81));
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        mutated.mutate(
            "g", dynamic::generateBatch(
                     mutated.at("g").graph,
                     {.seed = seed, .inserts = 20, .deletes = 10}));
    GraphStore rebuilt;
    rebuilt.add("g", mutated.at("g").graph);

    std::vector<QuerySpec> queries;
    const engine::Algorithm algos[] = {
        engine::Algorithm::Bfs, engine::Algorithm::Sssp,
        engine::Algorithm::Sswp, engine::Algorithm::Cc,
        engine::Algorithm::Pr, engine::Algorithm::Bc};
    const engine::FrontierMode modes[] = {
        engine::FrontierMode::Dense, engine::FrontierMode::Sparse,
        engine::FrontierMode::Adaptive};
    for (const engine::Algorithm algo : algos)
        for (const engine::FrontierMode mode : modes) {
            QuerySpec spec;
            spec.graph = "g";
            spec.algorithm = algo;
            spec.frontier = mode;
            spec.source = 2;
            spec.degreeBound = 8;
            spec.prIterations = 10;
            queries.push_back(spec);
        }

    const auto digestsOf = [&](const GraphStore &store) {
        TransformCache cache(std::size_t{64} << 20);
        SchedulerOptions options;
        options.workers = 2;
        QueryScheduler scheduler(store, cache, options);
        return scheduler.runBatch(queries);
    };
    const auto a = digestsOf(mutated);
    const auto b = digestsOf(rebuilt);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].outcome, QueryOutcome::Completed);
        EXPECT_EQ(a[i].digest, b[i].digest);
        EXPECT_EQ(a[i].values, b[i].values);
    }
}

TEST(SchedulerMutation, ApplyFaultLeavesTheEntryUnchanged)
{
    GraphStore store;
    store.add("g", rmatGraph());
    const graph::Csr before = store.at("g").graph;
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 1;
    options.faultPlan = fault::FaultPlan(404).site(
        fault::Site::MutationApply, 1.0);
    QueryScheduler scheduler(store, cache, options);

    MutationSpec mutation;
    mutation.graph = "g";
    mutation.generate = dynamic::GeneratorSpec{.seed = 8, .inserts = 6};
    const auto result =
        scheduler.runBatch(std::vector{mutation},
                           std::span<const QuerySpec>{});
    ASSERT_EQ(result.mutations.size(), 1u);
    const MutationResult &r = result.mutations[0];
    EXPECT_FALSE(r.applied);
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->kind, ServiceErrorKind::Mutation);
    EXPECT_TRUE(r.error->retryable());
    ASSERT_FALSE(r.faultTrace.empty());
    EXPECT_EQ(r.faultTrace.front().site, fault::Site::MutationApply);
    EXPECT_EQ(store.epochOf("g"), 0u);
    EXPECT_EQ(store.at("g").graph, before);
}

TEST(SchedulerMutation, CompactFaultLandsTheMutationWithoutCompaction)
{
    GraphStore store;
    store.add("g", hubGraph());
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 1;
    options.faultPlan = fault::FaultPlan(505).site(
        fault::Site::MutationCompact, 1.0);
    QueryScheduler scheduler(store, cache, options);

    MutationSpec mutation;
    mutation.graph = "g";
    mutation.mutations = hubDeletes(150); // trips the slack threshold
    const auto result =
        scheduler.runBatch(std::vector{mutation},
                           std::span<const QuerySpec>{});
    ASSERT_EQ(result.mutations.size(), 1u);
    const MutationResult &r = result.mutations[0];
    // The batch landed — only slack reclamation was interrupted.
    EXPECT_TRUE(r.applied);
    EXPECT_EQ(r.epoch, 1u);
    EXPECT_FALSE(r.compacted);
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->kind, ServiceErrorKind::Mutation);
    EXPECT_EQ(store.epochOf("g"), 1u);
    EXPECT_EQ(store.at("g").graph.numEdges(), 50u);

    // Without the plan, the same batch compacts cleanly.
    GraphStore clean_store;
    clean_store.add("g", hubGraph());
    const MutateResult clean =
        clean_store.mutate("g", hubDeletes(150));
    EXPECT_TRUE(clean.compacted);
    EXPECT_GT(clean.reclaimed, 0u);
    EXPECT_EQ(clean.slackSlots, 0u);
}

TEST(ScriptMutate, RunsEndToEnd)
{
    const auto graph_path = tempPath("script.el");
    {
        std::ofstream out(graph_path);
        const graph::Csr csr = rmatGraph(91);
        graph::saveEdgeList(csr.toCoo(), out);
    }

    std::istringstream script(
        "load g " + graph_path.string() + "\n"
        "mutate g inserts=8 deletes=4 reweights=2 seed=6\n"
        "query g bfs source=1\n"
        "run\n");
    std::ostringstream out;
    ScriptOptions options;
    options.workers = 1;
    EXPECT_EQ(runScript(script, out, options), 0);
    const std::string text = out.str();
    EXPECT_NE(text.find("mutation 0 g applied=1 epoch=1 inserts=8 "
                        "deletes=4 reweights=2"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("query 0 g BFS outcome=completed"),
              std::string::npos)
        << text;
    std::filesystem::remove(graph_path);
}

TEST(ScriptMutate, RejectsMalformedCommands)
{
    const auto fails = [](const std::string &line) {
        std::istringstream script(line);
        std::ostringstream out;
        EXPECT_THROW(runScript(script, out, {}), std::runtime_error)
            << line;
    };
    fails("mutate\n");
    fails("mutate g inserts\n");
    fails("mutate g bogus=1\n");
    fails("mutate g max-weight=0\n");
}

} // namespace
} // namespace tigr::service
