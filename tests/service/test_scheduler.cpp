/**
 * @file
 * QueryScheduler differential tests: a 50-query mixed batch (5
 * algorithms x 2 graphs, several strategies, a few tight simulated
 * deadlines) must produce bit-identical results at 1, 2, and 8
 * workers, with at least one deterministic deadline-exceeded outcome
 * and at least one transform-cache hit. Plus the admission-rejection
 * taxonomy.
 */
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "ref/oracles.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/transform_cache.hpp"

namespace tigr::service {
namespace {

graph::Csr
rmatGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 24;
    options.weightSeed = 77;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 600, .edges = 6000, .seed = 77}));
}

/** Ring plus a few heavy hubs — exercises the virtual splitting. */
graph::Csr
starHeavyGraph()
{
    const NodeId n = 1200;
    graph::CooEdges coo(n);
    for (NodeId v = 0; v < n; ++v)
        coo.add(v, (v + 1) % n, v % 7 + 1);
    for (NodeId hub : {NodeId{0}, NodeId{3}, NodeId{11}})
        for (NodeId v = 0; v < n; v += 2)
            if (v != hub)
                coo.add(hub, v, (hub + v) % 11 + 1);
    return graph::Csr::fromCoo(coo);
}

GraphStore &
sharedStore()
{
    static GraphStore store;
    static const bool initialized = [] {
        store.add("rmat", rmatGraph());
        store.add("star", starHeavyGraph());
        return true;
    }();
    (void)initialized;
    return store;
}

/** The acceptance-criteria batch: 50 queries, 5 algorithms, 2 graphs,
 *  4 strategies, with two PR queries under a deadline so tight the
 *  first iteration boundary always trips it. */
std::vector<QuerySpec>
mixedBatch()
{
    const engine::Algorithm algos[] = {
        engine::Algorithm::Bfs, engine::Algorithm::Sssp,
        engine::Algorithm::Sswp, engine::Algorithm::Cc,
        engine::Algorithm::Pr};
    const engine::Strategy strategies[] = {
        engine::Strategy::TigrVPlus, engine::Strategy::TigrV,
        engine::Strategy::Baseline, engine::Strategy::MaximumWarp};

    std::vector<QuerySpec> batch;
    for (std::size_t i = 0; i < 50; ++i) {
        QuerySpec spec;
        spec.graph = (i % 2 == 0) ? "rmat" : "star";
        spec.algorithm = algos[i % 5];
        spec.strategy = strategies[(i / 5) % 4];
        spec.source = static_cast<NodeId>((i * 37) % 500);
        spec.degreeBound = 8;
        spec.prIterations = 15;
        // Simulated-time deadlines are thread-count-invariant; one
        // iteration of simulated work always exceeds 1e-7 ms.
        if (i == 14 || i == 39) {
            spec.algorithm = engine::Algorithm::Pr;
            spec.deadlineSimMs = 1e-7;
        }
        batch.push_back(spec);
    }
    return batch;
}

void
expectIdenticalResults(const std::vector<QueryResult> &a,
                       const std::vector<QueryResult> &b,
                       unsigned workers)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i) + " at " +
                     std::to_string(workers) + " workers");
        EXPECT_EQ(a[i].outcome, b[i].outcome);
        EXPECT_EQ(a[i].digest, b[i].digest);
        EXPECT_EQ(a[i].values, b[i].values);
        EXPECT_EQ(a[i].cacheHit, b[i].cacheHit);
        EXPECT_EQ(a[i].info.iterations, b[i].info.iterations);
        EXPECT_EQ(a[i].info.cancelled, b[i].info.cancelled);
        EXPECT_EQ(a[i].info.stats.cycles, b[i].info.stats.cycles);
        EXPECT_EQ(a[i].message, b[i].message);
    }
}

TEST(QuerySchedulerDeterminism, MixedBatchBitIdenticalAcrossWorkers)
{
    const std::vector<QuerySpec> batch = mixedBatch();

    // Reference: strictly sequential execution with a fresh cache.
    std::vector<QueryResult> reference;
    {
        TransformCache cache(std::size_t{256} << 20);
        SchedulerOptions options;
        options.workers = 1;
        QueryScheduler scheduler(sharedStore(), cache, options);
        ASSERT_EQ(scheduler.workers(), 1u);
        reference = scheduler.runBatch(batch);
    }

    std::size_t completed = 0, deadline = 0, hits = 0;
    for (const QueryResult &r : reference) {
        switch (r.outcome) {
          case QueryOutcome::Completed: ++completed; break;
          case QueryOutcome::DeadlineExceeded: ++deadline; break;
          default:
            ADD_FAILURE() << "unexpected outcome: " << r.message;
        }
        hits += r.cacheHit ? 1u : 0u;
        if (r.outcome == QueryOutcome::Completed) {
            EXPECT_NE(r.digest, 0u);
            EXPECT_GT(r.values, 0u);
        }
    }
    EXPECT_EQ(completed + deadline, batch.size());
    EXPECT_GE(deadline, 1u)
        << "tight simulated deadlines must trip deterministically";
    EXPECT_GE(hits, 1u) << "repeated transform keys must hit the cache";

    for (unsigned workers : {2u, 8u}) {
        TransformCache cache(std::size_t{256} << 20);
        SchedulerOptions options;
        options.workers = workers;
        QueryScheduler scheduler(sharedStore(), cache, options);
        expectIdenticalResults(scheduler.runBatch(batch), reference,
                               workers);
    }
}

TEST(QuerySchedulerDeterminism, RepeatedBatchIsAllCacheHits)
{
    TransformCache cache(std::size_t{256} << 20);
    SchedulerOptions options;
    options.workers = 4;
    QueryScheduler scheduler(sharedStore(), cache, options);

    const std::vector<QuerySpec> batch = mixedBatch();
    const auto first = scheduler.runBatch(batch);
    const auto second = scheduler.runBatch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(second[i].outcome, first[i].outcome);
        EXPECT_EQ(second[i].digest, first[i].digest);
        EXPECT_TRUE(second[i].cacheHit)
            << "query " << i << " should reuse the warm cache";
    }
}

TEST(QueryScheduler, RejectionTaxonomy)
{
    TransformCache cache(std::size_t{16} << 20);
    QueryScheduler scheduler(sharedStore(), cache, {});

    std::vector<QuerySpec> batch(4);
    batch[0].graph = "missing";
    batch[1].graph = "rmat";
    batch[1].algorithm = engine::Algorithm::Pr;
    batch[1].strategy = engine::Strategy::TigrUdt;
    batch[2].graph = "rmat";
    batch[2].algorithm = engine::Algorithm::Bfs;
    batch[2].source = 600; // == numNodes, one past the end
    batch[3].graph = "rmat";
    batch[3].strategy = engine::Strategy::TigrV;
    batch[3].degreeBound = 0;

    const auto results = scheduler.runBatch(batch);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].outcome, QueryOutcome::Rejected)
            << "query " << i;
        EXPECT_FALSE(results[i].message.empty());
        EXPECT_EQ(results[i].digest, 0u);
    }
    EXPECT_NE(results[0].message.find("unknown graph"),
              std::string::npos);
    EXPECT_NE(results[2].message.find("out of range"),
              std::string::npos);
}

TEST(QueryScheduler, AdmissionBoundRejectsByBatchPosition)
{
    TransformCache cache(std::size_t{16} << 20);
    SchedulerOptions options;
    options.workers = 4;
    options.maxQueuedQueries = 3;
    QueryScheduler scheduler(sharedStore(), cache, options);

    std::vector<QuerySpec> batch(6);
    for (auto &spec : batch) {
        spec.graph = "star";
        spec.algorithm = engine::Algorithm::Bfs;
        spec.strategy = engine::Strategy::Baseline;
    }
    const auto results = scheduler.runBatch(batch);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(results[i].outcome, QueryOutcome::Completed)
            << "query " << i;
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(results[i].outcome, QueryOutcome::Rejected)
            << "query " << i;
        EXPECT_NE(results[i].message.find("queue full"),
                  std::string::npos);
    }
}

TEST(QueryScheduler, WallClockDeadlineIsBestEffort)
{
    TransformCache cache(std::size_t{16} << 20);
    QueryScheduler scheduler(sharedStore(), cache, {});

    QuerySpec spec;
    spec.graph = "rmat";
    spec.algorithm = engine::Algorithm::Pr;
    spec.prIterations = 200;
    spec.deadlineWallMs = 1e-6; // effectively immediate
    const auto results =
        scheduler.runBatch(std::vector<QuerySpec>{spec});
    ASSERT_EQ(results.size(), 1u);
    // Wall-clock cancellation is explicitly best-effort; either the
    // deadline trips (overwhelmingly likely) or the query completes.
    EXPECT_TRUE(results[0].outcome == QueryOutcome::DeadlineExceeded ||
                results[0].outcome == QueryOutcome::Completed)
        << results[0].message;
}

TEST(QueryScheduler, UdtQueriesRunUncached)
{
    TransformCache cache(std::size_t{64} << 20);
    QueryScheduler scheduler(sharedStore(), cache, {});

    QuerySpec spec;
    spec.graph = "star";
    spec.algorithm = engine::Algorithm::Sssp;
    spec.strategy = engine::Strategy::TigrUdt;
    spec.degreeBound = 16;
    const auto results = scheduler.runBatch(
        std::vector<QuerySpec>{spec, spec});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
        EXPECT_FALSE(r.cacheHit)
            << "UDT schedules over the transformed graph and must "
           "bypass the forward-transform cache";
    }
    EXPECT_EQ(results[0].digest, results[1].digest);
    EXPECT_EQ(cache.stats().entries, 0u);
}

/** Scheduler options wired for observability under a seeded transient
 *  fault sweep (the resilience suite's plan shape). */
SchedulerOptions
observedFaultOptions(unsigned workers, obs::MetricsRegistry *registry)
{
    SchedulerOptions options;
    options.workers = workers;
    options.metrics = registry;
    options.trace = true;
    options.faultPlan = fault::FaultPlan(0xabba);
    options.faultPlan.site(fault::Site::TransformBuild, 0.3)
        .site(fault::Site::CacheInsert, 0.2)
        .site(fault::Site::EngineIteration, 0.01);
    return options;
}

TEST(QuerySchedulerObservability,
     MetricsReconcileExactlyWithResultsUnderFaultSweep)
{
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{256} << 20);
    QueryScheduler scheduler(sharedStore(), cache,
                             observedFaultOptions(1, &registry));
    const std::vector<QuerySpec> batch = mixedBatch();
    const std::vector<QueryResult> results = scheduler.runBatch(batch);
    // Snapshot before the assertions below: counter() lookups create
    // zero-valued instruments, which would perturb the text form.
    const std::string snapshot = registry.snapshotText();

    // Recompute every aggregate from the per-query results; each
    // registry counter must match it exactly — no drift in either
    // direction.
    std::uint64_t completed = 0, deadline = 0, rejected = 0,
                  quarantined = 0, errors = 0, retries = 0,
                  degraded = 0, faults = 0, ran = 0;
    for (const QueryResult &r : results) {
        switch (r.outcome) {
          case QueryOutcome::Completed: ++completed; break;
          case QueryOutcome::DeadlineExceeded: ++deadline; break;
          case QueryOutcome::Rejected: ++rejected; break;
          case QueryOutcome::Quarantined: ++quarantined; break;
          case QueryOutcome::Error: ++errors; break;
        }
        if (r.attempts > 1)
            retries += r.attempts - 1;
        degraded += r.degraded ? 1 : 0;
        faults += r.faultTrace.size();
        ran += r.attempts > 0 ? 1 : 0;
        EXPECT_NE(r.metricsDigest, 0u);
    }
    EXPECT_GE(retries + degraded + faults, 1u)
        << "the seeded sweep should inject at least one fault";

    EXPECT_EQ(registry.counter("scheduler.batches").value(), 1u);
    EXPECT_EQ(registry.counter("scheduler.queries").value(),
              results.size());
    EXPECT_EQ(registry.counter("scheduler.admitted").value(),
              results.size() - rejected);
    EXPECT_EQ(registry.counter("scheduler.completed").value(),
              completed);
    EXPECT_EQ(registry.counter("scheduler.deadline_exceeded").value(),
              deadline);
    EXPECT_EQ(registry.counter("scheduler.rejected").value(), rejected);
    EXPECT_EQ(registry.counter("scheduler.quarantined").value(),
              quarantined);
    EXPECT_EQ(registry.counter("scheduler.errors").value(), errors);
    EXPECT_EQ(registry.counter("scheduler.retries").value(), retries);
    EXPECT_EQ(registry.counter("scheduler.degraded").value(), degraded);
    EXPECT_EQ(registry.counter("scheduler.faults").value(), faults);
    EXPECT_EQ(registry.histogram("scheduler.query.attempts").count(),
              ran);
    EXPECT_EQ(registry.histogram("scheduler.query.iterations").count(),
              ran);

    // The whole registry — counters, histograms, and cache gauges —
    // and every per-query metricsDigest must be worker-count-invariant.
    for (unsigned workers : {2u, 4u}) {
        obs::MetricsRegistry other;
        TransformCache fresh(std::size_t{256} << 20);
        QueryScheduler concurrent(sharedStore(), fresh,
                                  observedFaultOptions(workers,
                                                       &other));
        const std::vector<QueryResult> again =
            concurrent.runBatch(batch);
        ASSERT_EQ(again.size(), results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            EXPECT_EQ(again[i].metricsDigest, results[i].metricsDigest)
                << "query " << i << " at " << workers << " workers";
        EXPECT_EQ(other.snapshotText(), snapshot)
            << "registry drift at " << workers << " workers";
    }
}

TEST(QuerySchedulerObservability, QueryTracesCarryBeginOutcomeDigest)
{
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{256} << 20);
    QueryScheduler scheduler(sharedStore(), cache,
                             observedFaultOptions(4, &registry));
    const std::vector<QuerySpec> batch = mixedBatch();
    const std::vector<QueryResult> results = scheduler.runBatch(batch);

    for (std::size_t i = 0; i < results.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const QueryResult &r = results[i];
        const auto &events = r.trace.events();
        ASSERT_GE(events.size(), 2u);
        EXPECT_EQ(events.front().kind, obs::EventKind::QueryBegin);
        EXPECT_EQ(events.front().arg[0], i);
        const obs::TraceEvent &end = events.back();
        EXPECT_EQ(end.kind, obs::EventKind::QueryEnd);
        EXPECT_EQ(end.label[0], queryOutcomeName(r.outcome));
        EXPECT_EQ(end.arg[0], r.attempts);
        EXPECT_EQ(end.arg[3], r.digest);
        // Every recorded fault must surface as a trace event.
        std::size_t fault_events = 0;
        for (const obs::TraceEvent &event : events)
            fault_events += event.kind == obs::EventKind::Fault;
        EXPECT_EQ(fault_events, r.faultTrace.size());
    }
}

TEST(QuerySchedulerObservability, EngineReuseKeepsSecondRunInfoClean)
{
    // Regression: the warm-up MISS query pays the schedule build, but
    // the engine's shared-schedule path used to stamp its RunInfo with
    // transformCached=true anyway — so a cold query reported a cached
    // transform while cacheHit said otherwise.
    obs::MetricsRegistry registry;
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 2;
    options.metrics = &registry;
    options.trace = true;
    QueryScheduler scheduler(sharedStore(), cache, options);

    QuerySpec spec;
    spec.graph = "star";
    spec.algorithm = engine::Algorithm::Sssp;
    spec.strategy = engine::Strategy::TigrVPlus;
    spec.degreeBound = 8;

    const auto first =
        scheduler.runBatch(std::vector<QuerySpec>{spec});
    const auto second =
        scheduler.runBatch(std::vector<QuerySpec>{spec});
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    ASSERT_EQ(first[0].outcome, QueryOutcome::Completed)
        << first[0].message;
    ASSERT_EQ(second[0].outcome, QueryOutcome::Completed)
        << second[0].message;

    // Cold run: built the transform, must say so consistently.
    EXPECT_FALSE(first[0].cacheHit);
    EXPECT_FALSE(first[0].info.transformCached);
    // Warm run: clean RunInfo, consistent cache flags, same values.
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_TRUE(second[0].info.transformCached);
    EXPECT_EQ(second[0].digest, first[0].digest);
    EXPECT_EQ(second[0].info.iterations, first[0].info.iterations);
    EXPECT_EQ(second[0].info.stats.cycles, first[0].info.stats.cycles);
    EXPECT_EQ(second[0].attempts, 1u);
    EXPECT_FALSE(second[0].degraded);
    EXPECT_TRUE(second[0].faultTrace.empty());
    EXPECT_FALSE(second[0].error.has_value());

    // Same property within one batch: the pair shares the build, only
    // the second query is a hit — and only the first reports a build.
    TransformCache pair_cache(std::size_t{64} << 20);
    QueryScheduler pair_scheduler(sharedStore(), pair_cache, options);
    const auto pair =
        pair_scheduler.runBatch(std::vector<QuerySpec>{spec, spec});
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_FALSE(pair[0].cacheHit);
    EXPECT_FALSE(pair[0].info.transformCached);
    EXPECT_TRUE(pair[1].cacheHit);
    EXPECT_TRUE(pair[1].info.transformCached);
    EXPECT_EQ(pair[0].digest, pair[1].digest);
}

// --------------------------------------------------------------------
// Side-keyed cache entries: pull queries (and CuSha PageRank) key the
// reversed side, whose entry holds the reversed graph and its schedule.

QuerySpec
specOf(std::string graph, engine::Algorithm algorithm,
       engine::Strategy strategy, engine::Direction direction,
       NodeId source = 3)
{
    QuerySpec spec;
    spec.graph = std::move(graph);
    spec.algorithm = algorithm;
    spec.strategy = strategy;
    spec.direction = direction;
    spec.source = source;
    spec.degreeBound = 8;
    spec.prIterations = 6;
    return spec;
}

/** Forward and reversed queries over both graphs: every pull analysis
 *  on both virtual strategies, CuSha PR (reversed whatever the
 *  direction), BFS pushed through the weighted forward entry, and BC
 *  (forward-only) asked to pull. */
std::vector<QuerySpec>
sidedBatch()
{
    using engine::Algorithm;
    using engine::Direction;
    using engine::Strategy;
    std::vector<QuerySpec> batch;
    for (const char *graph : {"rmat", "star"}) {
        for (Strategy strategy : {Strategy::TigrVPlus, Strategy::TigrV}) {
            for (Algorithm algorithm :
                 {Algorithm::Bfs, Algorithm::Sssp, Algorithm::Sswp,
                  Algorithm::Cc, Algorithm::Pr})
                batch.push_back(specOf(graph, algorithm, strategy,
                                       Direction::Pull,
                                       static_cast<NodeId>(
                                           batch.size() * 7)));
            batch.push_back(specOf(graph, Algorithm::Bfs, strategy,
                                   Direction::Push));
            batch.push_back(specOf(graph, Algorithm::Bc, strategy,
                                   Direction::Pull));
        }
        batch.push_back(specOf(graph, Algorithm::Pr, Strategy::Cusha,
                               Direction::Push));
        batch.push_back(specOf(graph, Algorithm::Sssp, Strategy::Cusha,
                               Direction::Push));
    }
    return batch;
}

TEST(QuerySchedulerCache, PullQueryMissesOnItsReversedKeyOnly)
{
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 2;
    QueryScheduler scheduler(sharedStore(), cache, options);

    const QuerySpec pull =
        specOf("rmat", engine::Algorithm::Sssp,
               engine::Strategy::TigrVPlus, engine::Direction::Pull);
    const auto first = scheduler.runBatch(std::vector{pull});
    ASSERT_EQ(first[0].outcome, QueryOutcome::Completed)
        << first[0].message;
    EXPECT_FALSE(first[0].cacheHit);
    EXPECT_FALSE(first[0].info.transformCached);
    TransformCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 1u);

    // The one resident entry is the reversed one, charged for the
    // reversed graph and its schedule.
    const graph::Csr &g = sharedStore().at("rmat").graph;
    const auto reference = engine::SharedSchedule::build(
        g, engine::ScheduleSide::Reversed, pull.strategy,
        pull.degreeBound, pull.mwVirtualWarp);
    EXPECT_EQ(stats.bytes, reference->sizeInBytes());
    EXPECT_EQ(reference->sizeInBytes(),
              reference->schedule.sizeInBytes() +
                  g.reversed().sizeInBytes());
    TransformKey key{"rmat",           &g,
                     pull.strategy,    pull.degreeBound,
                     pull.mwVirtualWarp, 0};
    EXPECT_EQ(cache.get(key), nullptr) << "no forward entry was built";
    key.side = engine::ScheduleSide::Reversed;
    const auto reversed = cache.get(key);
    ASSERT_NE(reversed, nullptr);
    EXPECT_EQ(reversed->side(), engine::ScheduleSide::Reversed);
    EXPECT_EQ(reversed->reversedFrom, &g);

    // Another pull analysis over the same key is a hit that reports a
    // cached transform; a push query misses on the forward key.
    QuerySpec pull_bfs = pull;
    pull_bfs.algorithm = engine::Algorithm::Bfs;
    const QuerySpec push =
        specOf("rmat", engine::Algorithm::Sssp,
               engine::Strategy::TigrVPlus, engine::Direction::Push);
    const auto second = scheduler.runBatch(std::vector{pull_bfs, push});
    EXPECT_TRUE(second[0].cacheHit);
    EXPECT_TRUE(second[0].info.transformCached);
    EXPECT_FALSE(second[1].cacheHit);
    EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(QuerySchedulerCache, SidedBatchIsWorkerInvariant)
{
    const std::vector<QuerySpec> batch = sidedBatch();
    std::vector<QueryResult> reference;
    {
        TransformCache cache(std::size_t{256} << 20);
        SchedulerOptions options;
        options.workers = 1;
        QueryScheduler scheduler(sharedStore(), cache, options);
        reference = scheduler.runBatch(batch);
    }
    std::size_t hits = 0;
    for (const QueryResult &r : reference) {
        ASSERT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
        hits += r.cacheHit ? 1u : 0u;
    }
    // Per graph and virtual strategy, one forward and one reversed
    // miss; per graph, one CuSha miss on each side.
    EXPECT_EQ(batch.size() - hits, 2u * (2u * 2u + 2u));

    for (unsigned workers : {2u, 8u}) {
        TransformCache cache(std::size_t{256} << 20);
        SchedulerOptions options;
        options.workers = workers;
        QueryScheduler scheduler(sharedStore(), cache, options);
        const auto results = scheduler.runBatch(batch);
        expectIdenticalResults(results, reference, workers);
        for (std::size_t i = 0; i < batch.size(); ++i)
            EXPECT_EQ(results[i].metricsDigest,
                      reference[i].metricsDigest)
                << "query " << i << " at " << workers << " workers";
    }
}

TEST(QuerySchedulerCache, PullQueriesAfterMutateAndPinMatchNewEpochOracles)
{
    GraphStore store;
    store.add("g", rmatGraph());
    TransformCache cache(std::size_t{64} << 20);
    SchedulerOptions options;
    options.workers = 2;
    QueryScheduler scheduler(store, cache, options);

    // A direct-CSR strategy: virtual-strategy queries on a mutated
    // graph are arena-served, and only the dense path keys the cache.
    std::vector<QuerySpec> queries;
    for (engine::Algorithm algorithm :
         {engine::Algorithm::Bfs, engine::Algorithm::Sssp})
        queries.push_back(specOf("g", algorithm,
                                 engine::Strategy::Baseline,
                                 engine::Direction::Pull, 5));
    auto expectOracles = [&](const std::vector<QueryResult> &results) {
        const graph::Csr &g = store.at("g").graph;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            SCOPED_TRACE("query " + std::to_string(i));
            ASSERT_EQ(results[i].outcome, QueryOutcome::Completed)
                << results[i].message;
            const std::vector<Dist> oracle =
                queries[i].algorithm == engine::Algorithm::Bfs
                    ? ref::bfsHops(g, queries[i].source)
                    : ref::dijkstra(g, queries[i].source);
            EXPECT_EQ(results[i].digest,
                      graph::fnv1a64(oracle.data(),
                                     oracle.size() * sizeof(Dist)));
        }
    };
    const auto before = scheduler.runBatch({}, queries);
    expectOracles(before.queries);

    // Several epochs, each pinned before the queries take the dense,
    // cached path over the freshly materialized graph.
    for (std::uint64_t round = 1; round <= 3; ++round) {
        SCOPED_TRACE("epoch " + std::to_string(round));
        MutationSpec mutation;
        mutation.graph = "g";
        mutation.generate = dynamic::GeneratorSpec{
            .seed = round, .inserts = 40, .deletes = 25};
        const auto mutated =
            scheduler.runBatch(std::vector{mutation}, {});
        ASSERT_TRUE(mutated.mutations[0].applied)
            << mutated.mutations[0].message;
        store.pin("g");
        const auto after = scheduler.runBatch({}, queries);
        for (const QueryResult &r : after.queries) {
            EXPECT_FALSE(r.arenaServed);
        }
        EXPECT_FALSE(after.queries[0].cacheHit)
            << "a new epoch keys a fresh reversed entry";
        expectOracles(after.queries);
    }
}

// ------------------------------------------------------------ lending

/** Large enough that the engines' chunk loops have several chunks, so
 *  a worker whose claims ran out has loops to join. */
const graph::Csr &
lendingGraph()
{
    static const graph::Csr graph = [] {
        graph::BuildOptions options;
        options.randomizeWeights = true;
        options.maxWeight = 24;
        options.weightSeed = 91;
        return graph::GraphBuilder(options).build(
            graph::rmat({.nodes = 20000, .edges = 120000, .seed = 91}));
    }();
    return graph;
}

GraphStore &
lendingStore()
{
    static GraphStore store;
    static const bool initialized = [] {
        store.add("big", lendingGraph());
        return true;
    }();
    (void)initialized;
    return store;
}

/** Results plus the registry text of one scheduler run. */
struct Observed
{
    std::vector<QueryResult> results;
    std::string registry;
};

SchedulerOptions
lendingOptions(unsigned workers, obs::MetricsRegistry &registry)
{
    SchedulerOptions options;
    options.workers = workers;
    options.metrics = &registry;
    options.trace = true;
    return options;
}

/** Results, per-query traces, metricsDigest and the registry digest
 *  must not depend on the worker count. */
void
expectWorkerInvariant(const Observed &got, const Observed &want,
                      unsigned workers)
{
    expectIdenticalResults(got.results, want.results, workers);
    for (std::size_t i = 0; i < got.results.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i) + " at " +
                     std::to_string(workers) + " workers");
        const QueryResult &a = got.results[i];
        const QueryResult &b = want.results[i];
        EXPECT_EQ(a.metricsDigest, b.metricsDigest);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.arenaServed, b.arenaServed);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.faultTrace.size(), b.faultTrace.size());
        EXPECT_EQ(obs::formatTrace(a.trace), obs::formatTrace(b.trace));
    }
    EXPECT_EQ(graph::fnv1a64(got.registry.data(), got.registry.size()),
              graph::fnv1a64(want.registry.data(), want.registry.size()))
        << "registry drift at " << workers << " workers";
}

TEST(QuerySchedulerLending, FewerQueriesThanWorkersIsWorkerInvariant)
{
    // Two queries on up to eight workers: the idle workers lend
    // themselves from the start.
    const std::vector<QuerySpec> batch = {
        specOf("big", engine::Algorithm::Sssp, engine::Strategy::TigrVPlus,
               engine::Direction::Push),
        specOf("big", engine::Algorithm::Cc, engine::Strategy::TigrV,
               engine::Direction::Push),
    };
    auto observe = [&](unsigned workers) {
        obs::MetricsRegistry registry;
        TransformCache cache(std::size_t{256} << 20);
        QueryScheduler scheduler(lendingStore(), cache,
                                 lendingOptions(workers, registry));
        Observed out{scheduler.runBatch(batch), {}};
        out.registry = registry.snapshotText();
        return out;
    };
    const Observed reference = observe(1);
    for (const QueryResult &r : reference.results)
        ASSERT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
    for (unsigned workers : {2u, 8u})
        expectWorkerInvariant(observe(workers), reference, workers);
}

TEST(QuerySchedulerLending, ArenaServedMutateThenQueryIsWorkerInvariant)
{
    const std::vector<QuerySpec> queries = {
        specOf("big", engine::Algorithm::Sssp, engine::Strategy::TigrVPlus,
               engine::Direction::Push),
        specOf("big", engine::Algorithm::Bfs, engine::Strategy::TigrV,
               engine::Direction::Pull),
        specOf("big", engine::Algorithm::Pr, engine::Strategy::TigrVPlus,
               engine::Direction::Push),
        specOf("big", engine::Algorithm::Cc, engine::Strategy::TigrV,
               engine::Direction::Pull),
        // Direct-CSR strategies in the same batch: the mutated epoch
        // materializes in the serial warm-up while the virtual-strategy
        // slots run off the arena.
        specOf("big", engine::Algorithm::Sssp, engine::Strategy::TigrUdt,
               engine::Direction::Push),
        specOf("big", engine::Algorithm::Bfs, engine::Strategy::Baseline,
               engine::Direction::Pull),
    };
    MutationSpec mutation;
    mutation.graph = "big";
    mutation.generate = dynamic::GeneratorSpec{
        .seed = 5, .inserts = 300, .deletes = 200, .reweights = 50};
    const std::vector<MutationSpec> mutations{mutation};

    auto observe = [&](unsigned workers) {
        GraphStore store;
        store.add("big", lendingGraph());
        obs::MetricsRegistry registry;
        TransformCache cache(std::size_t{256} << 20);
        QueryScheduler scheduler(store, cache,
                                 lendingOptions(workers, registry));
        const MutationBatchResult result =
            scheduler.runBatch(mutations, queries);
        EXPECT_TRUE(result.mutations[0].applied)
            << result.mutations[0].message;
        Observed out{result.queries, registry.snapshotText()};
        return out;
    };
    const Observed reference = observe(1);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const QueryResult &r = reference.results[i];
        ASSERT_EQ(r.outcome, QueryOutcome::Completed) << r.message;
        EXPECT_EQ(r.arenaServed,
                  queries[i].strategy == engine::Strategy::TigrV ||
                      queries[i].strategy == engine::Strategy::TigrVPlus);
    }
    for (unsigned workers : {2u, 8u})
        expectWorkerInvariant(observe(workers), reference, workers);
}

TEST(QuerySchedulerLending, DeadlinesAndIterationFaultsAreWorkerInvariant)
{
    std::vector<QuerySpec> batch;
    for (engine::Algorithm algorithm :
         {engine::Algorithm::Sssp, engine::Algorithm::Bfs,
          engine::Algorithm::Sswp, engine::Algorithm::Cc,
          engine::Algorithm::Pr})
        for (engine::Strategy strategy :
             {engine::Strategy::TigrVPlus, engine::Strategy::Baseline})
            batch.push_back(specOf("big", algorithm, strategy,
                                   engine::Direction::Push));
    // Deadlines at half of each query's undisturbed simulated time, on
    // every other query, trip mid-run.
    {
        TransformCache cache(std::size_t{256} << 20);
        QueryScheduler scheduler(lendingStore(), cache);
        const std::vector<QueryResult> plain = scheduler.runBatch(batch);
        for (std::size_t i = 0; i < batch.size(); i += 2)
            batch[i].deadlineSimMs =
                engine::cyclesToMs(plain[i].info.stats.cycles) / 2;
    }
    auto observe = [&](unsigned workers) {
        obs::MetricsRegistry registry;
        TransformCache cache(std::size_t{256} << 20);
        SchedulerOptions options = lendingOptions(workers, registry);
        options.faultPlan = fault::FaultPlan(0x5eed);
        options.faultPlan.site(fault::Site::EngineIteration, 0.05);
        QueryScheduler scheduler(lendingStore(), cache, options);
        Observed out{scheduler.runBatch(batch), {}};
        out.registry = registry.snapshotText();
        return out;
    };
    const Observed reference = observe(1);
    std::size_t deadlines = 0, faults = 0;
    for (const QueryResult &r : reference.results) {
        deadlines += r.outcome == QueryOutcome::DeadlineExceeded;
        faults += r.faultTrace.size();
    }
    EXPECT_GE(deadlines, 1u);
    EXPECT_GE(faults, 1u) << "the seeded plan should inject a fault";
    for (unsigned workers : {2u, 8u})
        expectWorkerInvariant(observe(workers), reference, workers);
}

TEST(QuerySchedulerLending, ReversedBatchGivesTheSamePerSlotResults)
{
    // The second run claims by the cycles the first one recorded, in
    // a different order; no slot's result may notice.
    std::vector<QuerySpec> batch;
    for (engine::Algorithm algorithm :
         {engine::Algorithm::Bfs, engine::Algorithm::Sssp,
          engine::Algorithm::Cc, engine::Algorithm::Pr})
        batch.push_back(specOf("big", algorithm,
                               engine::Strategy::TigrVPlus,
                               engine::Direction::Push));
    batch.push_back(specOf("big", engine::Algorithm::Sswp,
                           engine::Strategy::TigrV,
                           engine::Direction::Pull));
    const std::vector<QuerySpec> reversed(batch.rbegin(), batch.rend());

    TransformCache cache(std::size_t{256} << 20);
    SchedulerOptions options;
    options.workers = 4;
    QueryScheduler scheduler(lendingStore(), cache, options);
    const std::vector<QueryResult> forward = scheduler.runBatch(batch);
    const std::vector<QueryResult> backward = scheduler.runBatch(reversed);
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t i = 0; i < forward.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const QueryResult &a = forward[i];
        const QueryResult &b = backward[forward.size() - 1 - i];
        ASSERT_EQ(a.outcome, QueryOutcome::Completed) << a.message;
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.values, b.values);
        EXPECT_EQ(a.info.iterations, b.info.iterations);
        EXPECT_EQ(a.info.stats.cycles, b.info.stats.cycles);
    }
}

} // namespace
} // namespace tigr::service
