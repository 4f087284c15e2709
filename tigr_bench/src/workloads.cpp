#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "run.hpp"
#include "service/snapshot.hpp"

#ifndef TIGR_BENCH_BUILD_TYPE
#define TIGR_BENCH_BUILD_TYPE "unknown"
#endif

namespace tigr::bench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using engine::Algorithm;
using engine::Direction;
using engine::Strategy;
using service::QuerySpec;

constexpr std::size_t kSetups = 5;
constexpr std::size_t kCacheBudget = std::size_t{512} << 20;

// Request counts of a full-length run: the traced run replays a quarter
// of each stream, the smoke a tenth of everything.
constexpr std::size_t kReadBatches = 150;
constexpr std::size_t kChurnBatches = 150;
constexpr std::size_t kMutateCycles = 120;
constexpr std::size_t kRecoveries = 30;
constexpr std::size_t kCheckpointEvery = 30; // mutate_query cycles
constexpr std::size_t kDenseCheckEvery = 10; // fresh requests

/** The metrics BENCHMARK.json names; every workload reports each. */
constexpr const char *kListedEndToEnd[] = {
    "setup_s", "latency_p50_ms", "requests_per_s", "peak_rss_mb",
    "sim_mcycles_per_query"};
constexpr const char *kListedLayers[] = {
    "snapshot.load_ms",        "snapshot.file_mb",
    "store.add_ms",            "store.first_mutate_ms",
    "store.mutate_ms",         "store.materialize_ms",
    "store.sync_ms",           "store.checkpoint_ms",
    "store.resident_mb",       "dynamic.apply_ms",
    "dynamic.repair_self_ms",  "dynamic.repaired_vertices",
    "dynamic.resplit_families", "dynamic.relocated_families",
    "dynamic.slack_ratio",     "journal.append_us",
    "journal.sync_ms",         "journal.bytes_per_edit",
    "recovery.scan_ms",        "recovery.recover_ms",
    "recovery.records_per_s",  "cache.miss_ms",
    "cache.hit_us",            "cache.hit_ratio",
    "cache.resident_mb",       "engine.run_ms",
    "engine.local_transform_ms", "engine.arena_ms",
    "engine.iterations",       "engine.sparse_ratio",
    "engine.peak_frontier_ratio", "sim.warp_efficiency",
    "sim.coalescing",          "sim.mem_transactions",
    "scheduler.busy_ratio",    "scheduler.overhead_ms",
    "scheduler.arena_served_ratio"};

// --------------------------------------------------------------------
// Shared steps

void
prepareReferences(Run &run, References &refs)
{
    for (std::string &problem : refs.prepare(run.workers)) {
        ++run.attempted;
        run.fail("reference: " + problem);
    }
}

void
checkDigests(Run &run, std::span<const QuerySpec> specs,
             const std::vector<std::uint64_t> &digests,
             const References &refs)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ++run.attempted;
        const auto want = refs.digest(specs[i]);
        if (!want || *want != digests[i])
            run.fail(describe(specs[i]) +
                     ": engine digest differs from the reference");
    }
}

/** Time @p setups cold set-ups (median reported): @p prepare runs
 *  untimed before each, @p open builds the service. The last one
 *  serves the measured loop. */
template <typename Prepare, typename Open>
Service
timedSetups(Run &run, Prepare prepare, Open open)
{
    Service svc;
    const std::size_t setups = run.traced() ? 1 : kSetups;
    for (std::size_t k = 0; k < setups; ++k) {
        svc.close();
        prepare();
        const auto start = Clock::now();
        Span span(run.rec(), "setup");
        svc = open();
        span.end();
        run.setupS.push_back(secondsSince(start));
    }
    return svc;
}

/** The closed loop: one client issues request i only after request
 *  i - 1 completed, until the run length has passed. */
template <typename Request>
void
measure(Run &run, Request request)
{
    const auto start = Clock::now();
    for (std::size_t i = 0; i < 2 || secondsSince(start) < run.opt.seconds;
         ++i)
        request(i);
}

/** One end-to-end query request through the scheduler. */
std::vector<service::QueryResult>
serveBatch(Run &run, Service &svc, std::span<const QuerySpec> batch,
           std::uint64_t request, const References *check)
{
    Span span(run.rec(), "request", request);
    const auto start = Clock::now();
    auto results = svc.scheduler->runBatch(batch);
    const double ms = msSince(start);
    span.end();
    run.latencyMs["batch"].push_back(ms);
    run.accountBatch(batch, results, ms, run.workers, check, true);
    return results;
}

/** Register the snapshot and warm the cache with one query per
 *  transform key (read_mix, transform_churn). */
Service
openStatic(Run &run, std::span<const QuerySpec> warmup)
{
    SpanRecorder *rec = run.rec();
    Service svc;
    if (rec) {
        Span span(rec, "snapshot.load");
        service::loadSnapshotFile(run.snapshot,
                                  service::SnapshotLoadMode::Mmap);
    }
    svc.store = std::make_unique<service::GraphStore>();
    {
        Span span(rec, "store.add");
        svc.store->addSnapshot(kGraphName, run.snapshot,
                               service::SnapshotLoadMode::Mmap);
    }
    svc.cache = std::make_unique<service::TransformCache>(run.cacheBudget);
    svc.scheduler = std::make_unique<service::QueryScheduler>(
        *svc.store, *svc.cache, schedulerOptions(run.workers));
    if (rec) {
        svc.layerCache =
            std::make_unique<service::TransformCache>(run.cacheBudget);
        checkDigests(run, warmup,
                     replayQueries(run, svc.store->at(kGraphName),
                                   *svc.layerCache, warmup, 0),
                     run.refs);
    }
    const auto start = Clock::now();
    const auto results = svc.scheduler->runBatch(warmup);
    run.accountBatch(warmup, results, msSince(start), run.workers,
                     &run.refs, false);
    return svc;
}

/** Serve @p next() batches: a quarter of @p full layer by layer and end
 *  to end when traced, otherwise end to end for the run length. */
template <typename Next>
void
serveStatic(Run &run, Service &svc, std::size_t full, Next next)
{
    if (!run.traced()) {
        measure(run, [&](std::size_t i) {
            serveBatch(run, svc, next(), i + 1, &run.refs);
        });
    } else {
        const std::size_t replay = std::max<std::size_t>(1, run.count(full) / 4);
        for (std::size_t i = 0; i < replay; ++i) {
            const std::vector<QuerySpec> batch = next();
            checkDigests(run, batch,
                         replayQueries(run, svc.store->at(kGraphName),
                                       *svc.layerCache, batch, i + 1),
                         run.refs);
            serveBatch(run, svc, batch, i + 1, &run.refs);
        }
    }
    run.observe(svc);
}

// --------------------------------------------------------------------
// read_mix: static serving over a warm cache

void
readMix(Run &run)
{
    // One request asks for all six analyses, PR first (the longest, so
    // it starts at once). Batch b runs on TigrV+ or TigrV by parity and
    // pulls one analysis — BFS/SSSP/SSWP/CC in turn, PR every fifth
    // batch — so a fifth of the queries pull (BC has no pull form).
    // Every batch then has the same shape and its wall time one mode,
    // and runs of different seeds (only the graph and the sources
    // change) stay comparable. The stream repeats every ten batches.
    constexpr Algorithm algos[] = {Algorithm::Pr,   Algorithm::Bfs,
                                   Algorithm::Sssp, Algorithm::Sswp,
                                   Algorithm::Cc,   Algorithm::Bc};
    std::vector<QuerySpec> period;
    for (std::size_t b = 0; b < 10; ++b) {
        const std::size_t pulled = b % 5 == 4 ? 0 : 1 + b % 5;
        for (std::size_t slot = 0; slot < 6; ++slot)
            period.push_back(query(
                algos[slot], run.hubs[(6 * b + slot) % run.hubs.size()],
                b % 2 == 0 ? Strategy::TigrVPlus : Strategy::TigrV,
                slot == pulled ? Direction::Pull : Direction::Push));
    }
    const QuerySpec warmup[] = {
        query(Algorithm::Sssp, run.hubs[0], Strategy::TigrVPlus),
        query(Algorithm::Sssp, run.hubs[0], Strategy::TigrV)};
    for (const QuerySpec &spec : period)
        run.refs.add(spec);
    for (const QuerySpec &spec : warmup)
        run.refs.add(spec);
    prepareReferences(run, run.refs);

    run.cacheBudget = kCacheBudget;
    resetPeakRss();
    Service svc = timedSetups(
        run, [] {}, [&] { return openStatic(run, warmup); });
    std::size_t next = 0;
    serveStatic(run, svc, kReadBatches, [&] {
        const std::size_t at = (next++ % 10) * 6;
        return std::vector<QuerySpec>(period.begin() + at,
                                      period.begin() + at + 6);
    });
}

// --------------------------------------------------------------------
// transform_churn: a schedule working set larger than the cache

constexpr NodeId kChurnK[] = {4, 8, 12, 16, 32, 64};

/**
 * Batch @p b of the churn stream. Every batch has the same shape, so
 * runs of different seeds (which change only the graph and the
 * sources) see the same mix: a TigrV query, the same key again (a hit,
 * before the next insertion can evict it), a TigrV+ query with its K
 * half a rotation away — twelve cacheable keys in all — and a TigrUdt
 * query, whose physical transform is never cached and is the slowest
 * query of every batch. MaximumWarp keys are left out: its simulated
 * execution takes four times any other query's, so it would set every
 * batch's latency and hide the cache layer this workload is about.
 */
std::vector<QuerySpec>
churnBatch(const std::vector<NodeId> &sources, std::size_t b)
{
    constexpr Algorithm algos[] = {Algorithm::Bfs, Algorithm::Sssp,
                                   Algorithm::Sswp};
    auto at = [&](std::size_t slot) {
        return std::pair{algos[(b + slot) % 3],
                         sources[(4 * b + slot) % sources.size()]};
    };
    const NodeId kv = kChurnK[b % 6];
    return {query(at(0).first, at(0).second, Strategy::TigrV,
                  Direction::Push, kv),
            query(at(1).first, at(1).second, Strategy::TigrV,
                  Direction::Push, kv),
            query(at(2).first, at(2).second, Strategy::TigrVPlus,
                  Direction::Push, kChurnK[(b + 3) % 6]),
            query(at(3).first, at(3).second, Strategy::TigrUdt)};
}

void
transformChurn(Run &run)
{
    constexpr Algorithm algos[] = {Algorithm::Bfs, Algorithm::Sssp,
                                   Algorithm::Sswp};
    const std::vector<NodeId> sources(
        run.hubs.begin(),
        run.hubs.begin() + std::min<std::size_t>(16, run.hubs.size()));
    for (const Algorithm a : algos)
        for (const NodeId s : sources)
            run.refs.add(query(a, s));
    std::vector<QuerySpec> warmup;
    for (const NodeId k : kChurnK)
        for (const Strategy s : {Strategy::TigrV, Strategy::TigrVPlus})
            warmup.push_back(query(Algorithm::Sssp, sources[0], s,
                                   Direction::Push, k));
    warmup.push_back(query(Algorithm::Sssp, sources[0], Strategy::TigrUdt));
    prepareReferences(run, run.refs);

    // Three K=8 TigrV+ schedules' worth: far below the twelve keys'
    // working set, so misses, evictions and rebuilds dominate.
    {
        service::TransformCache sizing(std::numeric_limits<std::size_t>::max());
        sizing.getOrBuild({kGraphName, &run.graph, Strategy::TigrVPlus, 8,
                           8, 0});
        run.cacheBudget = 3 * sizing.stats().bytes;
    }
    resetPeakRss();
    Service svc = timedSetups(
        run, [] {}, [&] { return openStatic(run, warmup); });

    std::size_t next = 0;
    serveStatic(run, svc, kChurnBatches,
                [&] { return churnBatch(sources, next++); });
}

// --------------------------------------------------------------------
// mutate_query: writes beside reads on a durable store

/** Open a durable store over @p dir, warm it, and apply the first
 *  mutation (which spins up the arena). @p layer builds the traced
 *  run's layer-replay store instead of the end-to-end one. */
Service
openMutable(Run &run, const fs::path &dir,
            std::span<const QuerySpec> warmup,
            const dynamic::MutationBatch &first, bool layer)
{
    SpanRecorder *rec = layer ? run.rec() : nullptr;
    Service svc;
    if (rec) {
        Span span(rec, "snapshot.load");
        service::loadSnapshotFile(run.snapshot,
                                  service::SnapshotLoadMode::Mmap);
    }
    svc.store = std::make_unique<service::GraphStore>();
    {
        Span span(rec, "store.open_durable");
        svc.store->openDurable(dir, durableOptions());
    }
    svc.cache = std::make_unique<service::TransformCache>(run.cacheBudget);
    svc.scheduler = std::make_unique<service::QueryScheduler>(
        *svc.store, *svc.cache, schedulerOptions(layer ? 1 : run.workers));
    if (layer) {
        svc.layerCache =
            std::make_unique<service::TransformCache>(run.cacheBudget);
        checkDigests(run, warmup,
                     replayQueries(run, svc.store->at(kGraphName),
                                   *svc.layerCache, warmup, 0),
                     run.refs);
        {
            Span span(rec, "store.first_mutate");
            run.mutations.add(svc.store->mutate(kGraphName, first));
        }
        Span span(rec, "store.sync");
        svc.store->syncJournals();
        return svc;
    }
    const auto start = Clock::now();
    const auto results = svc.scheduler->runBatch(warmup);
    run.accountBatch(warmup, results, msSince(start), run.workers,
                     &run.refs, false);
    const service::MutationSpec spec = mutationSpec(first);
    run.checkMutation(
        svc.scheduler->runBatch(std::span(&spec, 1), {}).mutations.at(0));
    return svc;
}

void
mutateQuery(Run &run)
{
    const QuerySpec warmup[] = {query(Algorithm::Sssp, run.hubs[0])};
    run.refs.add(warmup[0]);
    prepareReferences(run, run.refs);
    run.cacheBudget = kCacheBudget;
    resetPeakRss();

    // Untraced: one end-to-end store. Traced: the same batches also go,
    // layer call by layer call, to a twin store (`layer`).
    std::unique_ptr<MutationStream> stream;
    Service layer;
    Service svc = timedSetups(
        run,
        [&] {
            freshSnapshotDir(run, run.dir / "durable");
            stream = std::make_unique<MutationStream>(run.graph,
                                                      run.opt.seed);
        },
        [&] {
            const dynamic::MutationBatch first = stream->next();
            if (run.traced()) {
                freshSnapshotDir(run, run.dir / "durable_layer");
                layer = openMutable(run, run.dir / "durable_layer", warmup,
                                    first, true);
            }
            return openMutable(run, run.dir / "durable", warmup, first,
                               false);
        });

    const std::size_t checkpointEvery = run.count(kCheckpointEvery);
    const std::size_t denseEvery = run.count(kDenseCheckEvery);
    std::mt19937_64 rng(run.opt.seed ^ 0xf2e5u);
    auto request = [&](const dynamic::MutationBatch &batch,
                       std::span<const QuerySpec> queries,
                       bool checkpoint, std::uint64_t id) {
        if (layer.store) {
            journalBatch(run, *layer.store, batch, true);
            if (checkpoint) {
                Span span(run.rec(), "store.checkpoint");
                layer.store->checkpoint(kGraphName);
            }
        }
        const service::MutationSpec spec = mutationSpec(batch);
        Span span(run.rec(), "request", id);
        const auto start = Clock::now();
        auto result = svc.scheduler->runBatch(std::span(&spec, 1), queries);
        if (checkpoint)
            svc.store->checkpoint(kGraphName);
        const double ms = msSince(start);
        span.end();
        run.latencyMs[queries.empty() ? "ingest" : "fresh"].push_back(ms);
        run.checkMutation(result.mutations.at(0));
        if (!queries.empty())
            run.accountBatch(queries, result.queries, ms, run.workers,
                             nullptr, true);
        return result.queries;
    };
    auto cycle = [&](std::size_t c) {
        for (int i = 0; i < 4; ++i)
            request(stream->next(), {},
                    i == 3 && (c + 1) % checkpointEvery == 0, 5 * c + i + 1);
        const NodeId source = run.hubs[uniform(rng, run.hubs.size())];
        const QuerySpec queries[] = {
            query(Algorithm::Sssp, source),
            query(Algorithm::Bfs, source, Strategy::TigrVPlus,
                  Direction::Pull)};
        const dynamic::MutationBatch batch = stream->next();
        const auto results = request(batch, queries, false, 5 * c + 5);
        std::vector<service::QueryResult> arena;
        if (layer.store) {
            // The layer store's copy of the fresh request: its queries
            // run off the live arena on a 1-worker scheduler.
            const auto start = Clock::now();
            arena = layer.scheduler->runBatch(queries);
            run.accountBatch(queries, arena, msSince(start), 1, nullptr,
                             false);
        }
        if (c % denseEvery != 0)
            return;
        // Every tenth fresh result must equal a dense engine over the
        // materialized graph of the same epoch.
        Service &checked = layer.store ? layer : svc;
        std::shared_ptr<const service::StoredGraph> pinned;
        {
            Span span(run.rec(), "store.materialize");
            pinned = checked.store->pin(kGraphName);
        }
        service::TransformCache scratch(kCacheBudget);
        const auto dense = replayQueries(
            run, *pinned, layer.layerCache ? *layer.layerCache : scratch,
            queries, 5 * c + 5);
        for (std::size_t i = 0; i < dense.size(); ++i) {
            ++run.attempted;
            if (results[i].digest != dense[i] ||
                (!arena.empty() && arena[i].digest != dense[i]))
                run.fail(describe(queries[i]) +
                         ": fresh result differs from the dense engine");
        }
    };
    if (run.traced()) {
        const std::size_t replay =
            std::max<std::size_t>(1, run.count(kMutateCycles) / 4);
        for (std::size_t c = 0; c < replay; ++c)
            cycle(c);
        run.observe(layer);
    } else {
        measure(run, cycle);
    }
    run.observe(svc);
}

// --------------------------------------------------------------------
// recover: the restart path

void
recover(Run &run)
{
    run.cacheBudget = kCacheBudget;
    resetPeakRss();
    JournaledHistory history;
    if (run.traced()) {
        Span span(run.rec(), "setup");
        const auto start = Clock::now();
        history = probeMutationLayers(run);
        run.setupS.push_back(secondsSince(start));
    } else {
        // Set-up: a durable store over the bare snapshot takes its first
        // journaled batch; the last one then journals the rest.
        history.dir = run.dir / "journaled";
        std::unique_ptr<MutationStream> stream;
        std::unique_ptr<service::GraphStore> store;
        for (std::size_t k = 0; k < kSetups; ++k) {
            store.reset();
            freshSnapshotDir(run, history.dir);
            stream = std::make_unique<MutationStream>(run.graph,
                                                      run.opt.seed);
            const dynamic::MutationBatch first = stream->next();
            const auto start = Clock::now();
            store = openJournaled(run, history.dir, first);
            run.setupS.push_back(secondsSince(start));
        }
        for (std::size_t b = 1; b < journalBatches(run); ++b)
            journalBatch(run, *store, stream->next(), false);
        history.last = store->pin(kGraphName);
    }

    // The checks rotate over the top sixteen hubs, so the simulated
    // cycles a run reports average over sources.
    const std::size_t sources = std::min<std::size_t>(16, run.hubs.size());
    auto checkQueries = [&](std::uint64_t id) {
        const NodeId source = run.hubs[id % sources];
        return std::vector<QuerySpec>{
            query(Algorithm::Sssp, source),
            query(Algorithm::Bfs, source, Strategy::TigrVPlus,
                  Direction::Pull)};
    };
    References refs(history.last->graph);
    for (std::size_t i = 0; i < sources; ++i)
        for (const QuerySpec &spec : checkQueries(i))
            refs.add(spec);
    prepareReferences(run, refs);
    const std::uint64_t epoch = journalBatches(run);

    // Every recovery must land on the journal's last epoch and serve
    // the reference values (arena-served, since replay leaves the dense
    // copy stale).
    auto check = [&](service::GraphStore &store, std::uint64_t id) {
        ++run.attempted;
        if (store.epochOf(kGraphName) != epoch)
            run.fail("recovered epoch " +
                     std::to_string(store.epochOf(kGraphName)) +
                     ", expected " + std::to_string(epoch));
        service::TransformCache cache(kCacheBudget);
        service::QueryScheduler scheduler(store, cache,
                                          schedulerOptions(run.workers));
        const auto queries = checkQueries(id);
        const auto start = Clock::now();
        const auto results = scheduler.runBatch(queries);
        run.accountBatch(queries, results, msSince(start), run.workers,
                         &refs, true);
    };
    auto restart = [&](std::uint64_t id) {
        const fs::path copy = run.dir / "restarted";
        fs::remove_all(copy);
        fs::copy(history.dir, copy, fs::copy_options::recursive);
        auto store = std::make_unique<service::GraphStore>();
        Span span(run.rec(), "request", id);
        const auto start = Clock::now();
        store->openDurable(copy, durableOptions());
        const double ms = msSince(start);
        span.end();
        run.latencyMs["recovery"].push_back(ms);
        check(*store, id);
    };
    if (!run.traced()) {
        measure(run, [&](std::size_t i) { restart(i + 1); });
        return;
    }
    const std::size_t replay =
        std::max<std::size_t>(1, run.count(kRecoveries) / 4);
    for (std::size_t r = 1; r <= replay; ++r) {
        auto recovered = recoverLayers(run, history.dir, r);
        ++run.attempted;
        if (recovered->epochOf(kGraphName) != epoch)
            run.fail("layer recovery landed off the journal's last epoch");
        std::shared_ptr<const service::StoredGraph> pinned;
        {
            Span span(run.rec(), "store.materialize", r);
            pinned = recovered->pin(kGraphName);
        }
        Service observed;
        observed.store = std::move(recovered);
        observed.layerCache =
            std::make_unique<service::TransformCache>(kCacheBudget);
        const auto queries = checkQueries(r);
        checkDigests(run, queries,
                     replayQueries(run, *pinned, *observed.layerCache,
                                   queries, r),
                     refs);
        run.observe(observed);
        restart(r);
    }
}

// --------------------------------------------------------------------
// Result files

Json
metric(double value, const char *unit)
{
    Json m = Json::object();
    m["value"] = value;
    m["unit"] = unit;
    return m;
}

Json
withSamples(Json m, std::size_t samples)
{
    m["samples"] = samples;
    return m;
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

std::vector<double>
pooledLatencies(const Run &run)
{
    std::vector<double> all;
    for (const auto &[kind, samples] : run.latencyMs)
        all.insert(all.end(), samples.begin(), samples.end());
    return all;
}

/** Median, nearest-rank p90, and the tail the sample count supports. */
void
latencyRows(Json &out, const std::string &prefix,
            const std::vector<double> &samples)
{
    if (samples.empty())
        return;
    out[prefix + "_p50_ms"] =
        withSamples(metric(median(samples), "ms"), samples.size());
    out[prefix + "_p90_ms"] =
        withSamples(metric(percentile(samples, 90), "ms"), samples.size());
    if (const auto tail = supportedTail(samples)) {
        Json m = withSamples(metric(tail->value, "ms"), tail->samples);
        m["percentile"] = tail->percentile;
        out[prefix + "_tail_ms"] = std::move(m);
    }
}

Json
schedulerRows(const Run &run)
{
    std::vector<double> busy, overhead;
    for (const BatchSample &b : run.batches) {
        if (b.wallMs <= 0.0)
            continue;
        busy.push_back(b.sumHostMs / (b.workers * b.wallMs));
        overhead.push_back(b.wallMs - b.maxHostMs);
    }
    Json rows = Json::object();
    if (!busy.empty()) {
        rows["scheduler.busy_ratio"] =
            withSamples(metric(median(busy), "ratio"), busy.size());
        rows["scheduler.overhead_ms"] =
            withSamples(metric(median(overhead), "ms"), overhead.size());
    }
    const double queries = static_cast<double>(run.scheduledQueries);
    rows["scheduler.arena_served_ratio"] = withSamples(
        metric(queries ? run.arenaServed / queries : 0.0, "ratio"),
        run.scheduledQueries);
    rows["scheduler.degraded"] =
        metric(static_cast<double>(run.degraded), "count");
    return rows;
}

Json
endToEnd(const Run &run)
{
    const std::vector<double> all = pooledLatencies(run);
    const QueryStats &q = run.engineStats;
    Json e = Json::object();
    e["setup_s"] =
        withSamples(metric(median(run.setupS), "s"), run.setupS.size());
    e["latency_p50_ms"] =
        withSamples(metric(median(all), "ms"), all.size());
    e["latency_p90_ms"] =
        withSamples(metric(percentile(all, 90), "ms"), all.size());
    e["requests_per_s"] = withSamples(
        metric(static_cast<double>(all.size()) / (sum(all) / 1000.0),
               "1/s"),
        all.size());
    e["peak_rss_mb"] = metric(peakRssMb(), "MB");
    e["sim_mcycles_per_query"] = withSamples(
        metric(q.runs ? q.cycles / static_cast<double>(q.runs) / 1e6 : 0.0,
               "Mcycles"),
        q.runs);
    e["error_ratio"] = withSamples(
        metric(run.attempted ? static_cast<double>(run.failed) /
                                   static_cast<double>(run.attempted)
                             : 1.0,
               "ratio"),
        run.attempted);
    for (const auto &[kind, samples] : run.latencyMs)
        latencyRows(e, kind, samples);
    if (const auto it = run.latencyMs.find("batch");
        it != run.latencyMs.end())
        e["query_qps"] = metric(static_cast<double>(run.timedQueries) /
                                    (sum(it->second) / 1000.0),
                                "queries/s");
    return e;
}

Json
layerBlock(Run &run)
{
    const auto spans = run.rec()->summarize();
    Json layers = Json::object();
    auto fromSpan = [&](const char *name, const char *span, double scale,
                        const char *unit) {
        Json m = Json::object();
        m["unit"] = unit;
        m["span"] = span;
        const auto it = spans.find(span);
        m["count"] = it == spans.end() ? 0 : it->second.count;
        if (it != spans.end()) {
            const SpanRecorder::Summary &s = it->second;
            m["value"] = s.p50Ms * scale;
            m["p50_ms"] = s.p50Ms;
            m["p90_ms"] = s.p90Ms;
            m["total_ms"] = s.totalMs;
            m["self_ms"] = s.selfMs;
        }
        layers[name] = std::move(m);
    };
    auto fromSamples = [&](const char *name,
                           const std::vector<double> &samples,
                           const char *unit) {
        Json m = Json::object();
        m["unit"] = unit;
        m["count"] = samples.size();
        if (!samples.empty()) {
            m["value"] = median(samples);
            m["p50"] = median(samples);
            m["p90"] = percentile(samples, 90);
            m["total"] = sum(samples);
        }
        layers[name] = std::move(m);
    };
    auto value = [&](const char *name, double v, const char *unit,
                     std::size_t count) {
        layers[name] = metric(v, unit);
        layers[name]["count"] = count;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

    fromSpan("snapshot.load_ms", "snapshot.load", 1, "ms");
    value("snapshot.file_mb",
          static_cast<double>(fs::file_size(run.snapshot)) / (1 << 20),
          "MB", 1);
    fromSpan("store.add_ms", "store.add", 1, "ms");
    fromSpan("store.first_mutate_ms", "store.first_mutate", 1, "ms");
    fromSpan("store.mutate_ms", "store.mutate", 1, "ms");
    fromSpan("store.materialize_ms", "store.materialize", 1, "ms");
    fromSpan("store.sync_ms", "store.sync", 1, "ms");
    fromSpan("store.checkpoint_ms", "store.checkpoint", 1, "ms");
    value("store.resident_mb", run.storeResidentMb, "MB", 1);

    fromSpan("dynamic.apply_ms", "dynamic.apply", 1, "ms");
    {
        // Batch b's non-durable store mutate minus the standalone apply
        // of the same batch; the first mutate spins the arena up and is
        // left out.
        const auto mutate = run.rec()->durationsMs("dynamic.store_mutate");
        const auto apply = run.rec()->durationsMs("dynamic.apply");
        std::vector<double> repair;
        for (std::size_t i = 0; i < mutate.size() && i + 1 < apply.size();
             ++i)
            repair.push_back(mutate[i] - apply[i + 1]);
        fromSamples("dynamic.repair_self_ms", repair, "ms");
    }
    const MutationStats &m = run.mutations;
    const auto batches = static_cast<double>(m.batches);
    value("dynamic.repaired_vertices", ratio(m.repaired, batches),
          "count/batch", m.batches);
    value("dynamic.resplit_families", ratio(m.resplit, batches),
          "count/batch", m.batches);
    value("dynamic.relocated_families", ratio(m.relocated, batches),
          "count/batch", m.batches);
    value("dynamic.compactions", static_cast<double>(m.compactions),
          "count", m.batches);
    value("dynamic.slack_ratio", m.slackRatio, "ratio", m.batches);

    fromSpan("journal.append_us", "journal.append", 1000, "us");
    fromSpan("journal.sync_ms", "journal.sync", 1, "ms");
    value("journal.bytes_per_edit", run.journalBytesPerEdit, "bytes", 1);
    fromSpan("recovery.scan_ms", "recovery.scan", 1, "ms");
    fromSpan("recovery.recover_ms", "recovery.recover", 1, "ms");
    fromSamples("recovery.records_per_s", run.recordsPerS, "1/s");

    fromSpan("cache.miss_ms", "cache.miss", 1, "ms");
    fromSpan("cache.hit_us", "cache.hit", 1000, "us");
    const service::TransformCacheStats &c = run.layerCacheStats;
    value("cache.hit_ratio",
          ratio(static_cast<double>(c.hits),
                static_cast<double>(c.hits + c.misses)),
          "ratio", c.hits + c.misses);
    value("cache.evictions", static_cast<double>(c.evictions), "count",
          c.hits + c.misses);
    value("cache.resident_mb", static_cast<double>(c.bytes) / (1 << 20),
          "MB", c.entries);

    fromSpan("engine.run_ms", "engine.run", 1, "ms");
    for (const char *algo : {"bfs", "sssp", "sswp", "cc", "pr", "bc"}) {
        const std::string name = std::string("engine.") + algo + "_ms";
        fromSamples(name.c_str(),
                    run.rec()->durationsMs("engine.run",
                                           std::string(algo) + "/"),
                    "ms");
    }
    fromSamples("engine.pull_ms", run.rec()->durationsMs("engine.run", "/pull"),
                "ms");
    fromSamples("engine.local_transform_ms", run.localTransformMs, "ms");
    fromSamples("engine.arena_ms", run.arenaMs, "ms");
    const QueryStats &q = run.engineStats;
    const auto runs = static_cast<double>(q.runs);
    value("engine.iterations", ratio(q.iterations, runs), "count/query",
          q.runs);
    value("engine.sparse_ratio", ratio(q.sparseIterations, q.iterations),
          "ratio", q.runs);
    value("engine.peak_frontier_ratio", ratio(q.frontierRatio, runs),
          "ratio", q.runs);
    value("sim.warp_efficiency", ratio(q.instructions, q.laneSlots),
          "ratio", q.runs);
    value("sim.coalescing", ratio(q.memAccesses, q.memTransactions),
          "ratio", q.runs);
    value("sim.mem_transactions", ratio(q.memTransactions, runs),
          "count/query", q.runs);

    const Json rows = schedulerRows(run);
    for (const auto &[name, row] : *rows.members()) {
        layers[name] = row;
        if (const Json *samples = row.find("samples"))
            layers[name]["count"] = *samples;
    }
    return layers;
}

Json
configBlock(Run &run)
{
    Json c = Json::object();
    c["workload"] = run.opt.workload;
    c["seed"] = run.opt.seed;
    c["nodes"] = run.graph.numNodes();
    c["edges"] = run.graph.numEdges();
    c["workers"] = run.workers;
    c["requests"] = pooledLatencies(run).size();
    c["seconds"] = run.opt.seconds;
    c["cache_budget_bytes"] = run.cacheBudget;
    c["sync_policy"] = "group-commit";
    c["git_sha"] = gitSha();
    c["compiler"] = std::string("g++ ") + __VERSION__;
    c["build_type"] = TIGR_BENCH_BUILD_TYPE;
    c["nproc"] = std::thread::hardware_concurrency();
    c["tmp_fs"] = filesystemType(run.dir);
    c["traced"] = run.traced();
    c["smoke"] = run.opt.smoke;
    return c;
}

} // namespace

RunResult
runWorkload(const RunOptions &options)
{
    void (*body)(Run &) = nullptr;
    if (options.workload == "read_mix")
        body = readMix;
    else if (options.workload == "transform_churn")
        body = transformChurn;
    else if (options.workload == "mutate_query")
        body = mutateQuery;
    else if (options.workload == "recover")
        body = recover;
    else
        throw std::invalid_argument("unknown workload '" +
                                    options.workload + "'");

    Run run(options);
    body(run);
    // recover's traced set-up already is the probe.
    if (run.traced() && body != recover)
        probeMutationLayers(run);

    Json doc = Json::object();
    doc["config"] = configBlock(run);
    doc["attempted"] = run.attempted;
    doc["failed"] = run.failed;
    doc["correct"] = run.failed == 0;
    Json problems = Json::array();
    for (const std::string &p : run.problems)
        problems.push(p);
    doc["problems"] = std::move(problems);

    RunResult result;
    result.attempted = std::max<std::uint64_t>(1, run.attempted);
    result.failed = run.failed;
    result.correct = run.failed == 0 && run.attempted > 0;
    const fs::path base = options.results / ("BENCH_" + options.workload);
    if (!run.traced()) {
        Json e = endToEnd(run);
        for (const char *name : kListedEndToEnd)
            result.metrics[name] = metric(e.find(name)->find("value")->number(),
                                          e.find(name)->find("unit")->string()->c_str());
        doc["end_to_end"] = std::move(e);
        doc["scheduler"] = schedulerRows(run);
        writeJson(base.string() + ".json", doc);
        return result;
    }

    Json layers = layerBlock(run);
    for (const char *name : kListedLayers) {
        const Json *layer = layers.find(name);
        const Json *v = layer ? layer->find("value") : nullptr;
        if (!v || !v->isNumber())
            std::cerr << "tigr_bench: layer " << name
                      << " was not exercised\n";
        result.metrics[name] =
            metric(v ? v->number() : 0.0,
                   layer ? layer->find("unit")->string()->c_str() : "");
    }
    doc["layers"] = std::move(layers);
    Json spanRows = Json::object();
    for (const auto &[name, s] : run.rec()->summarize()) {
        Json row = Json::object();
        row["count"] = s.count;
        row["p50_ms"] = s.p50Ms;
        row["p90_ms"] = s.p90Ms;
        row["total_ms"] = s.totalMs;
        row["self_ms"] = s.selfMs;
        spanRows[name] = std::move(row);
    }
    doc["spans"] = std::move(spanRows);
    // The same requests end to end, timed with only a span around each,
    // beside the untraced run's numbers when that run left its file.
    Json traced = Json::object();
    latencyRows(traced, "latency", pooledLatencies(run));
    doc["end_to_end_traced"] = std::move(traced);
    if (const auto untraced = readJson(base.string() + ".json")) {
        Json side = Json::object();
        if (const Json *e = untraced->find("end_to_end"))
            for (const char *name : {"latency_p50_ms", "latency_p90_ms"})
                if (const Json *row = e->find(name))
                    side[name] = *row;
        doc["end_to_end_untraced"] = std::move(side);
    }
    writeJson(base.string() + ".trace.json", doc);
    writeJson(options.results / ("TRACE_" + options.workload + ".json"),
              run.rec()->chromeTrace());
    return result;
}

} // namespace tigr::bench
