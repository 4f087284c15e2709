#include "run.hpp"

#include <algorithm>
#include <thread>

#include <unistd.h>

#include "dynamic/dynamic_graph.hpp"
#include "service/journal.hpp"
#include "service/snapshot.hpp"

namespace tigr::bench {

namespace fs = std::filesystem;
using service::QuerySpec;

void
QueryStats::add(const engine::RunInfo &info, NodeId nodes)
{
    ++runs;
    cycles += static_cast<double>(info.stats.cycles);
    iterations += info.iterations;
    sparseIterations += info.sparseIterations;
    frontierRatio += nodes ? static_cast<double>(info.peakFrontier) /
                                 static_cast<double>(nodes)
                           : 0.0;
    memTransactions += static_cast<double>(info.stats.memTransactions);
    memAccesses += static_cast<double>(info.stats.memAccesses);
    instructions += static_cast<double>(info.stats.instructions);
    laneSlots += static_cast<double>(info.stats.laneSlots);
}

void
MutationStats::add(const service::MutateResult &result)
{
    ++batches;
    repaired += static_cast<double>(result.repair.repairedVertices +
                                    result.reverseRepair.repairedVertices);
    resplit += static_cast<double>(result.repair.resplitFamilies +
                                   result.reverseRepair.resplitFamilies);
    relocated +=
        static_cast<double>(result.repair.relocatedFamilies +
                            result.reverseRepair.relocatedFamilies);
    compactions += result.compacted ? 1 : 0;
    slackRatio = result.liveEdges
                     ? static_cast<double>(result.slackSlots) /
                           static_cast<double>(result.liveEdges)
                     : 0.0;
}

void
Service::close()
{
    scheduler.reset();
    layerCache.reset();
    cache.reset();
    store.reset();
}

Run::Run(const RunOptions &options)
    : opt(options),
      workers(std::clamp(std::thread::hardware_concurrency(), 1u, 4u)),
      scale(options.smoke ? 0.1 : 1.0),
      dir(options.workDir /
          (options.workload + "-" + std::to_string(::getpid()))),
      snapshot(dir / "g.tgs"),
      graph(makeGraph(options.seed, options.smoke ? 12 : 16)),
      hubs(hubSources(graph, options.seed)), refs(graph)
{
    if (options.trace)
        recorder_ = std::make_unique<SpanRecorder>();
    fs::remove_all(dir);
    fs::create_directories(dir);
    saveServiceSnapshot(graph, snapshot);
}

Run::~Run()
{
    std::error_code ec;
    fs::remove_all(dir, ec);
}

std::size_t
Run::count(std::size_t full) const
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(full) * scale +
                                    0.5));
}

void
Run::fail(std::string what)
{
    ++failed;
    if (problems.size() < 20)
        problems.push_back(std::move(what));
}

void
Run::checkMutation(const service::MutationResult &result)
{
    ++attempted;
    if (!result.applied || result.error)
        fail("mutation not applied: " + result.message);
}

void
Run::checkQuery(const QuerySpec &spec, const service::QueryResult &result,
                std::optional<std::uint64_t> expected)
{
    ++attempted;
    if (result.outcome != service::QueryOutcome::Completed)
        fail(describe(spec) + ": " +
             std::string(service::queryOutcomeName(result.outcome)) +
             " " + result.message);
    else if (expected && result.digest != *expected)
        fail(describe(spec) + ": digest differs from the reference");
}

void
Run::accountBatch(std::span<const QuerySpec> specs,
                  const std::vector<service::QueryResult> &results,
                  double wall_ms, unsigned batch_workers,
                  const References *check, bool measured)
{
    BatchSample sample;
    sample.wallMs = wall_ms;
    sample.workers = batch_workers;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const service::QueryResult &r = results[i];
        std::optional<std::uint64_t> expected;
        if (check) {
            expected = check->digest(specs[i]);
            if (!expected) {
                ++attempted;
                fail(describe(specs[i]) + ": no reference");
                continue;
            }
        }
        checkQuery(specs[i], r, expected);
        sample.sumHostMs += r.info.hostMs;
        sample.maxHostMs = std::max(sample.maxHostMs, r.info.hostMs);
        ++scheduledQueries;
        arenaServed += r.arenaServed ? 1 : 0;
        degraded += r.degraded ? 1 : 0;
        if (r.arenaServed)
            arenaMs.push_back(r.info.hostMs);
        if (!measured)
            continue;
        ++timedQueries;
        if (!traced() && engineStats.runs < kSimulatedQueries)
            engineStats.add(r.info, graph.numNodes());
    }
    batches.push_back(sample);
}

void
Run::observe(const Service &svc)
{
    if (svc.store)
        storeResidentMb =
            std::max(storeResidentMb,
                     static_cast<double>(svc.store->totalBytes()) /
                         (1 << 20));
    if (svc.layerCache)
        layerCacheStats = svc.layerCache->stats();
}

QuerySpec
query(engine::Algorithm algorithm, NodeId source,
      engine::Strategy strategy, engine::Direction direction,
      NodeId degree_bound, unsigned mw_virtual_warp)
{
    QuerySpec spec;
    spec.graph = kGraphName;
    spec.algorithm = algorithm;
    spec.source = source;
    spec.strategy = strategy;
    spec.direction = direction;
    spec.degreeBound = degree_bound;
    spec.mwVirtualWarp = mw_virtual_warp;
    spec.prIterations = 10;
    return spec;
}

std::string
describe(const QuerySpec &spec)
{
    return std::string(engine::algorithmName(spec.algorithm)) + " " +
           std::string(engine::strategyName(spec.strategy)) +
           (spec.direction == engine::Direction::Pull ? " pull" : " push") +
           " K=" + std::to_string(spec.degreeBound) + " w=" +
           std::to_string(spec.mwVirtualWarp) + " source " +
           std::to_string(spec.source);
}

service::SchedulerOptions
schedulerOptions(unsigned workers)
{
    service::SchedulerOptions options;
    options.workers = workers;
    options.buildThreads = 1;
    return options;
}

service::DurableOptions
durableOptions()
{
    service::DurableOptions options;
    options.syncPolicy = service::SyncPolicy::GroupCommit;
    options.loadMode = service::SnapshotLoadMode::Mmap;
    return options;
}

service::MutationSpec
mutationSpec(dynamic::MutationBatch batch)
{
    service::MutationSpec spec;
    spec.graph = kGraphName;
    spec.mutations = std::move(batch);
    return spec;
}

void
freshSnapshotDir(const Run &run, const fs::path &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy_file(run.snapshot, dir / run.snapshot.filename());
}

namespace {

bool
virtualStrategy(engine::Strategy strategy)
{
    return strategy == engine::Strategy::TigrV ||
           strategy == engine::Strategy::TigrVPlus;
}

std::string
tagOf(const QuerySpec &spec)
{
    std::string tag(engine::algorithmName(spec.algorithm));
    std::transform(tag.begin(), tag.end(), tag.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return tag +
           (spec.direction == engine::Direction::Pull ? "/pull" : "/push");
}

} // namespace

std::vector<std::uint64_t>
replayQueries(Run &run, const service::StoredGraph &entry,
              service::TransformCache &cache,
              std::span<const QuerySpec> batch, std::uint64_t request)
{
    SpanRecorder *rec = run.rec();
    std::vector<std::shared_ptr<const engine::SharedSchedule>> schedules(
        batch.size());
    std::vector<bool> degrade(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const QuerySpec &spec = batch[i];
        if (spec.strategy == engine::Strategy::TigrUdt)
            continue; // never cached: the engine builds UDT itself
        const service::TransformKey key{spec.graph,       &entry.graph,
                                        spec.strategy,    spec.degreeBound,
                                        spec.mwVirtualWarp, entry.epoch};
        bool hit = false;
        bool retained = false;
        Span span(rec, "cache.lookup", request);
        auto shared = cache.getOrBuild(key, nullptr, &hit, &retained);
        span.end(hit ? "cache.hit" : "cache.miss");
        // The scheduler's degradation ladder: a schedule the cache could
        // not keep is dropped for the zero-memory dynamic mapping.
        if (!retained && virtualStrategy(spec.strategy))
            degrade[i] = true;
        else
            schedules[i] = std::move(shared);
    }
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Span span(rec, "engine.run", request);
        const EngineResult result =
            runQuery(entry.graph, batch[i], schedules[i], degrade[i]);
        span.end({}, tagOf(batch[i]));
        digests.push_back(result.digest);
        if (run.traced()) {
            run.engineStats.add(result.info, entry.graph.numNodes());
            if (!result.info.transformCached)
                run.localTransformMs.push_back(result.info.transformMs);
        }
    }
    return digests;
}

std::unique_ptr<service::GraphStore>
openJournaled(Run &run, const fs::path &dir,
              const dynamic::MutationBatch &first)
{
    auto store = std::make_unique<service::GraphStore>();
    {
        Span span(run.rec(), "store.open_durable");
        store->openDurable(dir, durableOptions());
    }
    {
        Span span(run.rec(), "store.first_mutate");
        run.mutations.add(store->mutate(kGraphName, first));
    }
    {
        Span span(run.rec(), "store.sync");
        store->syncJournals();
    }
    return store;
}

void
journalBatch(Run &run, service::GraphStore &store,
             const dynamic::MutationBatch &batch, bool pin)
{
    if (pin) {
        Span span(run.rec(), "store.materialize");
        store.pin(kGraphName);
    }
    {
        Span span(run.rec(), "store.mutate");
        run.mutations.add(store.mutate(kGraphName, batch));
    }
    Span span(run.rec(), "store.sync");
    store.syncJournals();
}

std::unique_ptr<service::GraphStore>
recoverLayers(Run &run, const fs::path &dir, std::uint64_t request)
{
    const fs::path copy = run.dir / "recovering";
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    const fs::path snapshot = copy / run.snapshot.filename();
    {
        Span span(run.rec(), "snapshot.load", request);
        service::loadSnapshotFile(snapshot, service::SnapshotLoadMode::Mmap);
    }
    {
        Span span(run.rec(), "recovery.scan", request);
        service::scanJournal(service::journalPathFor(snapshot));
    }
    auto store = std::make_unique<service::GraphStore>();
    const auto start = std::chrono::steady_clock::now();
    Span span(run.rec(), "recovery.recover", request);
    const service::RecoveryReport report =
        service::RecoveryManager(copy, durableOptions()).recover(*store);
    span.end();
    run.recordsPerS.push_back(static_cast<double>(report.epochsReplayed()) /
                              secondsSince(start));
    return store;
}

std::size_t
journalBatches(const Run &run)
{
    return run.count(200);
}

JournaledHistory
probeMutationLayers(Run &run)
{
    SpanRecorder *rec = run.rec();
    MutationStream stream(run.graph, run.opt.seed);
    std::vector<dynamic::MutationBatch> batches(journalBatches(run));
    for (auto &batch : batches)
        batch = stream.next();

    // The durable store, fed the way the scheduler's mutation phase
    // feeds it: materialize the previous epoch, mutate, group-commit.
    JournaledHistory history;
    history.dir = run.dir / "journaled";
    const fs::path live = run.dir / "probe_durable";
    freshSnapshotDir(run, live);
    {
        auto store = openJournaled(run, live, batches.front());
        for (std::size_t b = 1; b < batches.size(); ++b)
            journalBatch(run, *store, batches[b], true);

        // Queries on the stale entry are served off the live arena.
        service::TransformCache cache(std::size_t{512} << 20);
        service::QueryScheduler scheduler(*store, cache,
                                          schedulerOptions(1));
        const QuerySpec fresh[] = {
            query(engine::Algorithm::Sssp, run.hubs.front()),
            query(engine::Algorithm::Bfs, run.hubs.front(),
                  engine::Strategy::TigrVPlus, engine::Direction::Pull)};
        const auto start = std::chrono::steady_clock::now();
        const auto results = scheduler.runBatch(fresh);
        run.accountBatch(fresh, results, msSince(start), 1, nullptr, false);
        {
            Span span(rec, "store.materialize");
            history.last = store->pin(kGraphName);
        }
        const auto dense =
            replayQueries(run, *history.last, cache, fresh, 0);
        for (std::size_t i = 0; i < dense.size(); ++i)
            if (results[i].digest != dense[i])
                run.fail(describe(fresh[i]) +
                         ": arena-served result differs from the dense "
                         "engine");
        fs::remove_all(history.dir);
        fs::copy(live, history.dir, fs::copy_options::recursive);
        Span span(rec, "store.checkpoint");
        store->checkpoint(kGraphName);
    }
    fs::remove_all(live);

    for (std::uint64_t r = 1; r <= 3; ++r)
        recoverLayers(run, history.dir, r);

    // DynamicGraph::apply on a standalone arena, then GraphStore::mutate
    // on a non-durable store fed the same batches: their difference is
    // the virtual-array repair the store adds.
    {
        dynamic::DynamicGraph arena(run.graph);
        for (const auto &batch : batches) {
            Span span(rec, "dynamic.apply");
            arena.apply(batch);
        }
    }
    {
        service::GraphStore store;
        {
            Span span(rec, "store.add");
            store.addSnapshot(kGraphName, run.snapshot,
                              service::SnapshotLoadMode::Mmap);
        }
        for (std::size_t b = 0; b < batches.size(); ++b) {
            Span span(rec, b == 0 ? "dynamic.store_first_mutate"
                                  : "dynamic.store_mutate");
            store.mutate(kGraphName, batches[b]);
        }
    }

    // The journal on its own: one append and one group-commit fsync per
    // request.
    {
        const fs::path path = run.dir / "probe.twj";
        auto writer = service::JournalWriter::create(
            path, 0, service::SyncPolicy::GroupCommit);
        std::size_t edits = 0;
        for (std::size_t b = 0; b < batches.size(); ++b) {
            {
                Span span(rec, "journal.append");
                writer.append(b + 1, batches[b]);
            }
            Span span(rec, "journal.sync");
            writer.sync();
            edits += batches[b].size();
        }
        run.journalBytesPerEdit = static_cast<double>(writer.bytes()) /
                                  static_cast<double>(edits);
    }
    return history;
}

} // namespace tigr::bench
