/**
 * @file
 * State shared by the workloads of one tigr_bench run: the seeded
 * inputs, the correctness accounting, and the samples the metrics are
 * computed from. Private to the bench (workloads.cpp, run.cpp).
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/recovery.hpp"
#include "service/transform_cache.hpp"
#include "workloads.hpp"

namespace tigr::bench {

/** Engine counters summed over the queries a run measured. */
struct QueryStats
{
    std::size_t runs = 0;
    double cycles = 0.0;
    double iterations = 0.0;
    double sparseIterations = 0.0;
    double frontierRatio = 0.0;
    double memTransactions = 0.0;
    double memAccesses = 0.0;
    double instructions = 0.0;
    double laneSlots = 0.0;

    void add(const engine::RunInfo &info, NodeId nodes);
};

/** One runBatch as the scheduler rows see it. */
struct BatchSample
{
    double wallMs = 0.0;
    unsigned workers = 1;
    double sumHostMs = 0.0;
    double maxHostMs = 0.0;
};

/** Repair counters summed over the durable mutations of a run. */
struct MutationStats
{
    std::size_t batches = 0;
    double repaired = 0.0;
    double resplit = 0.0;
    double relocated = 0.0;
    std::size_t compactions = 0;
    double slackRatio = 0.0;

    void add(const service::MutateResult &result);
};

/** A served graph: store, schedule cache and scheduler. The traced run
 *  adds a second cache for the layer-by-layer replay, so the replay
 *  and the end-to-end requests see identical cache histories. */
struct Service
{
    std::unique_ptr<service::GraphStore> store;
    std::unique_ptr<service::TransformCache> cache;
    std::unique_ptr<service::TransformCache> layerCache;
    std::unique_ptr<service::QueryScheduler> scheduler;

    /** Tear down in dependency order (scheduler before its store). */
    void close();
};

class Run
{
  public:
    explicit Run(const RunOptions &options);
    ~Run();
    Run(const Run &) = delete;
    Run &operator=(const Run &) = delete;

    const RunOptions &opt;
    /** Scheduler workers: min(4, nproc). */
    unsigned workers = 1;
    /** Fraction of the default request counts (0.1 for the smoke). */
    double scale = 1.0;
    /** Private scratch directory, removed at exit. */
    std::filesystem::path dir;
    std::filesystem::path snapshot;
    graph::Csr graph;
    std::vector<NodeId> hubs;
    References refs;
    std::size_t cacheBudget = 0;

    /** The traced run's span recorder; null when untraced. */
    SpanRecorder *rec() { return recorder_.get(); }
    bool traced() const { return recorder_ != nullptr; }

    /** @p full scaled to this run, at least 1. */
    std::size_t count(std::size_t full) const;

    // Correctness accounting ------------------------------------------
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void fail(std::string what);
    void checkMutation(const service::MutationResult &result);
    /** Check one query result: Completed, and equal to @p expected
     *  when given. */
    void checkQuery(const service::QuerySpec &spec,
                    const service::QueryResult &result,
                    std::optional<std::uint64_t> expected);
    /** Check a batch against @p refs (null: outcomes only) and record
     *  its scheduler row; @p measured feeds the engine counters of the
     *  untraced run. */
    void accountBatch(std::span<const service::QuerySpec> specs,
                      const std::vector<service::QueryResult> &results,
                      double wall_ms, unsigned workers,
                      const References *refs, bool measured);

    // Samples ---------------------------------------------------------
    std::vector<double> setupS;
    /** Request wall times by kind ("batch", "ingest", ...). */
    std::map<std::string, std::vector<double>> latencyMs;
    /** Engine counters: of the direct engine calls when traced,
     *  otherwise of the first kSimulatedQueries timed queries — a fixed
     *  prefix of the deterministic request stream, so the simulated
     *  cycles a seed reports do not depend on how many requests fit in
     *  the run. */
    QueryStats engineStats;
    static constexpr std::size_t kSimulatedQueries = 40;
    /** Timed queries, all of them. */
    std::size_t timedQueries = 0;
    std::vector<double> localTransformMs;
    std::vector<double> arenaMs;
    std::vector<BatchSample> batches;
    std::size_t scheduledQueries = 0;
    std::size_t arenaServed = 0;
    std::size_t degraded = 0;
    MutationStats mutations;
    std::vector<double> recordsPerS;
    double journalBytesPerEdit = 0.0;
    double storeResidentMb = 0.0;
    service::TransformCacheStats layerCacheStats;

    /** Record @p svc's store size (keeping the largest seen) and its
     *  layer cache's counters. */
    void observe(const Service &svc);

  private:
    std::unique_ptr<SpanRecorder> recorder_;
};

/** A query spec over the bench graph. */
service::QuerySpec query(engine::Algorithm algorithm, NodeId source,
                         engine::Strategy strategy =
                             engine::Strategy::TigrVPlus,
                         engine::Direction direction =
                             engine::Direction::Push,
                         NodeId degree_bound = kServiceK,
                         unsigned mw_virtual_warp = 8);

/** "SSSP tigr-v+ push K=10 source 7". */
std::string describe(const service::QuerySpec &spec);

service::SchedulerOptions schedulerOptions(unsigned workers);
service::DurableOptions durableOptions();

/** A mutation request for the bench graph. */
service::MutationSpec mutationSpec(dynamic::MutationBatch batch);

/** Empty @p dir and put a copy of the run's snapshot in it (the state
 *  of a service that has only ever been given the snapshot). */
void freshSnapshotDir(const Run &run, const std::filesystem::path &dir);

/**
 * The scheduler's warm-up and execute phases for @p batch, called
 * directly — getOrBuild in batch order, then one 1-thread engine call
 * per query — with a span around each call. Returns the digests.
 */
std::vector<std::uint64_t>
replayQueries(Run &run, const service::StoredGraph &entry,
              service::TransformCache &cache,
              std::span<const service::QuerySpec> batch,
              std::uint64_t request);

/** Open a durable store over @p dir and journal @p first through it. */
std::unique_ptr<service::GraphStore>
openJournaled(Run &run, const std::filesystem::path &dir,
              const dynamic::MutationBatch &first);

/** One journaled mutation: pin (materialize the previous epoch, as the
 *  scheduler's mutation phase does) when @p pin, mutate, sync. */
void journalBatch(Run &run, service::GraphStore &store,
                  const dynamic::MutationBatch &batch, bool pin);

/** loadSnapshotFile, scanJournal and RecoveryManager::recover over a
 *  fresh copy of @p dir, each in a span; returns the recovered store. */
std::unique_ptr<service::GraphStore>
recoverLayers(Run &run, const std::filesystem::path &dir,
              std::uint64_t request);

/** The journaled history the recover workload restarts from. */
struct JournaledHistory
{
    /** Snapshot plus journal, never checkpointed. */
    std::filesystem::path dir;
    /** The dense graph at the journal's last epoch. */
    std::shared_ptr<const service::StoredGraph> last;
};

/**
 * Every traced run drives the mutation-side layers — store mutate,
 * materialize, sync and checkpoint; DynamicGraph::apply; the journal;
 * recovery — standalone on the seed's first journal batches, so each
 * workload's traced result names every layer metric. The durable part
 * is exactly the recover workload's set-up.
 */
JournaledHistory probeMutationLayers(Run &run);

/** Batches in the recover workload's journal. */
std::size_t journalBatches(const Run &run);

} // namespace tigr::bench
