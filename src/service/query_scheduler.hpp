/**
 * @file
 * QueryScheduler: bounded-admission, deadline-aware, fault-resilient
 * batch execution of analytics queries over the GraphStore, sharing
 * transforms through the TransformCache.
 *
 * Determinism contract (the property the differential tests pin): for
 * a fixed store, cache state, batch, and fault plan, runBatch()
 * produces bit-identical per-query values, outcomes, attempt counts,
 * fault traces, and cache-hit flags at ANY worker count. The design
 * choices that make that hold:
 *
 *  1. Scheduler workers run queries concurrently, and inside them:
 *     each query's engine borrows the scheduler's pool, so a worker
 *     whose claims ran out joins the chunk loops of queries still
 *     running. Engines are bit-identical by the repo's chunk-
 *     determinism contract whichever threads run their chunks, so
 *     neither the claim order (longest first, by the simulated cycles
 *     last recorded for the same kind of query) nor who helps whom can
 *     change a result. Fault points, the cancel hook and the trace
 *     sink run only on the query's own worker.
 *  2. Transform warm-up is serial and in batch order: each admitted
 *     query's schedule is built (or found) in the cache before any
 *     worker starts, so which query is the miss and which are hits is
 *     a function of the batch alone, not of worker interleaving.
 *  3. Deterministic deadlines are expressed in *simulated* time
 *     (QuerySpec::deadlineSimMs): the engine's cancel hook compares
 *     the simulated cycle counter — thread-count-invariant — so a
 *     query exceeds its deadline identically everywhere. Wall-clock
 *     deadlines (deadlineWallMs) are available but explicitly
 *     best-effort.
 *  4. Injected faults (SchedulerOptions::faultPlan) are decided by a
 *     pure function of (seed, site, scope key, attempt, hit counter),
 *     with scope keys assigned by batch position — never by timing.
 *     Retry backoff is charged in simulated milliseconds against the
 *     query's deadlineSimMs budget, so no thread sleeps and a retried
 *     query times out identically everywhere. The circuit breaker
 *     advances only at batch boundaries and from a batch-ordered
 *     post-pass, so quarantine decisions are a function of batch
 *     history alone.
 *
 * Failure handling is layered (docs/resilience.md):
 *
 *  - Admission rejects invalid specs and quarantined graphs with a
 *    typed ServiceError; nothing invalid ever reaches a worker.
 *  - Warm-up failures (transform build faults, cache-insert faults,
 *    budget exhaustion) never fail a query — they push it down the
 *    degradation ladder: virtual-strategy queries fall back to the
 *    zero-memory dynamic mapping, everything else to an engine-local
 *    build; the result is flagged `degraded` and remains value-
 *    identical.
 *  - Execute-phase failures are retried up to RetryPolicy::maxRetries
 *    with deterministic simulated-time backoff; only an exhausted
 *    retry budget (or a non-retryable failure) surfaces as Error.
 *  - runBatch() itself never throws: every query gets a terminal
 *    typed outcome.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "dynamic/mutation.hpp"
#include "engine/strategy.hpp"
#include "engine/graph_engine.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/graph_store.hpp"
#include "service/resilience.hpp"
#include "service/transform_cache.hpp"

namespace tigr::service {

/** One analytics job. */
struct QuerySpec
{
    /** Store name of the graph to analyze. */
    std::string graph;
    /** Which analysis to run. */
    engine::Algorithm algorithm = engine::Algorithm::Bfs;
    /** Source node for BFS/SSSP/SSWP/BC (ignored by CC/PR). */
    NodeId source = 0;
    /** Scheduling strategy (Table 2). */
    engine::Strategy strategy = engine::Strategy::TigrVPlus;
    /** Push or pull value propagation. Pull is rejected at admission
     *  under TigrUdt (like the engine itself). */
    engine::Direction direction = engine::Direction::Push;
    /** Degree bound K for the virtual strategies. */
    NodeId degreeBound = 10;
    /** Virtual-warp width for MaximumWarp. */
    unsigned mwVirtualWarp = 8;
    /** PageRank rounds (PR only). */
    unsigned prIterations = 20;
    /** Frontier representation of worklist iterations (dense, sparse,
     *  or the adaptive switch); values are identical for every mode. */
    engine::FrontierMode frontier = engine::FrontierMode::Adaptive;
    /** Occupancy threshold of the adaptive frontier switch. */
    double frontierRatio = engine::kDefaultFrontierRatio;
    /**
     * Deterministic deadline in *simulated* milliseconds: the query is
     * cancelled before the first BSP iteration whose accumulated
     * simulated kernel time is >= this. Retry backoff is charged
     * against the same budget. 0 = no deadline. Identical at any
     * worker count.
     */
    double deadlineSimMs = 0.0;
    /**
     * Best-effort wall-clock deadline in host milliseconds, measured
     * from when a worker picks the query up. 0 = none. NOT
     * deterministic — use deadlineSimMs when reproducibility matters.
     */
    double deadlineWallMs = 0.0;
};

/** One mutation job: an explicit batch, a generated one, or both
 *  (explicit mutations first, then the generated tail — applied as a
 *  single epoch). */
struct MutationSpec
{
    /** Store name of the graph to mutate. */
    std::string graph;
    /** Explicit mutations, applied in order. */
    dynamic::MutationBatch mutations;
    /** When set, a seeded batch generated against the graph's state at
     *  apply time (dynamic::generateBatch) is appended. */
    std::optional<dynamic::GeneratorSpec> generate;
};

/** Result of one mutation, in batch order. */
struct MutationResult
{
    /** True when the epoch advanced. A `mutation.compact` fault can
     *  leave applied=true alongside an error: the mutation landed and
     *  only slack reclamation was interrupted. */
    bool applied = false;
    /** Diagnostic for failures. */
    std::string message;
    /** Typed failure detail (empty on clean success). */
    std::optional<ServiceError> error;
    /** The graph's epoch after this mutation (unchanged on a clean
     *  rejection). */
    std::uint64_t epoch = 0;
    /** Mutations applied, by kind. */
    std::size_t inserts = 0;
    std::size_t deletes = 0;
    std::size_t reweights = 0;
    /** Distinct vertices the batch touched. */
    std::size_t touched = 0;
    /** Incremental virtual-array repair counters (0 when the entry has
     *  no virtual section). */
    std::size_t repaired = 0;
    std::size_t resplits = 0;
    /** Repair counters of the mirrored In-side array (0 without a
     *  virtual section). */
    std::size_t reverseRepaired = 0;
    std::size_t reverseResplits = 0;
    /** True when the slack threshold triggered a compaction. */
    bool compacted = false;
    /** Arena slots the compaction reclaimed. */
    std::uint64_t reclaimed = 0;
    /** Every fault injected into this mutation, in firing order. */
    fault::FaultTrace faultTrace;
    /** Structured trace (empty unless SchedulerOptions::trace). */
    obs::TraceSink trace;
};

/** How a query ended. Every outcome is terminal: runBatch() never
 *  throws and never leaves a query undecided. */
enum class QueryOutcome
{
    Completed,        ///< Ran to convergence / iteration budget.
    DeadlineExceeded, ///< Cancelled by a deadline; partial values are
                      ///< the well-defined state at cancellation.
    Rejected,         ///< Never ran (admission queue full, invalid
                      ///< spec, unsupported strategy/algorithm pair).
    Quarantined,      ///< Never ran: the target graph's circuit
                      ///< breaker is open.
    Error,            ///< Failed terminally after exhausting the retry
                      ///< budget (or a non-retryable failure).
};

/** Display name ("completed", "deadline-exceeded", ...). */
std::string_view queryOutcomeName(QueryOutcome outcome);

/** Result of one query, in batch order. */
struct QueryResult
{
    QueryOutcome outcome = QueryOutcome::Rejected;
    /** Diagnostic for Rejected / Quarantined / Error outcomes (the
     *  last failure's message for Error). */
    std::string message;
    /** Typed failure detail accompanying non-Completed terminal
     *  failures; also set for queries that eventually succeeded after
     *  degradation at warm-up (kind of the absorbed failure). Empty
     *  for clean completions. */
    std::optional<ServiceError> error;
    /** Engine metadata (iterations, counters, transform timing). */
    engine::RunInfo info;
    /** FNV-1a 64 digest over the raw result-value bytes — the compact
     *  bit-identity witness the differential tests compare. 0 for
     *  queries that never ran. */
    std::uint64_t digest = 0;
    /** Number of result values behind the digest. */
    std::size_t values = 0;
    /** True when the query's transform came out of the TransformCache
     *  (deterministic: decided by the serial warm-up phase). */
    bool cacheHit = false;
    /** True when the query was served straight off the live arena:
     *  a TigrV / TigrV+ query on a graph that has mutated. No dense
     *  materialization and no cache involvement; values are
     *  bit-identical to the dense path (decided serially by strategy,
     *  see docs/service.md). */
    bool arenaServed = false;
    /** True when the query ran on the degradation ladder (dynamic
     *  mapping or engine-local build after a warm-up failure). The
     *  values are bit-identical to a non-degraded run. */
    bool degraded = false;
    /** Execution attempts consumed (1 = no retry; 0 = never ran). */
    unsigned attempts = 0;
    /** Total simulated-ms backoff charged against the query's
     *  deadlineSimMs budget by retries. */
    double backoffSimMs = 0.0;
    /** Every fault the plan injected into this query (warm-up and all
     *  attempts), in firing order. Bit-identical across runs of the
     *  same seeded plan over the same batch at any worker count. */
    fault::FaultTrace faultTrace;
    /** FNV-1a 64 digest over the query's canonical integer outcome
     *  record (outcome, attempts, iterations, simulated cycles, value
     *  digest, cache/degraded flags, simulated backoff, fault count —
     *  no wall-clock field participates). Always computed; the compact
     *  witness that metrics can reconcile against results. */
    std::uint64_t metricsDigest = 0;
    /** Per-query structured trace (empty unless SchedulerOptions::
     *  trace): engine iteration events plus the scheduler's cache /
     *  fault / retry / outcome events, in deterministic order. */
    obs::TraceSink trace;
};

/** Combined result of a mutation-then-query batch. */
struct MutationBatchResult
{
    std::vector<MutationResult> mutations;
    std::vector<QueryResult> queries;
};

/** Scheduler tuning. */
struct SchedulerOptions
{
    /** Concurrent query workers: 0 = the TIGR_THREADS / hardware
     *  default, N >= 1 = exactly N (at most par::kMaxThreads). The
     *  scheduler keeps one pool of this many threads for its lifetime;
     *  queries borrow it. */
    unsigned workers = 0;
    /** Admission bound: queries beyond this many in one batch are
     *  Rejected (deterministically, by batch position). */
    std::size_t maxQueuedQueries = 1024;
    /** Host threads for cache-miss transform builds during warm-up
     *  (builds are bit-identical at any value). 0 = default; at most
     *  par::kMaxThreads. */
    unsigned buildThreads = 1;
    /** Deterministic fault schedule; inert by default. */
    fault::FaultPlan faultPlan;
    /** Retry budget and simulated-time backoff for execute-phase
     *  failures. */
    RetryPolicy retry;
    /** Per-graph circuit-breaker tuning. */
    BreakerOptions breaker;
    /** Optional metrics registry: runBatch() folds per-batch counters
     *  (admitted/rejected/quarantined/completed/errors/retries/...)
     *  into it from a serial post-pass, so the counts are exact and
     *  worker-count-invariant. Null = no metrics. */
    obs::MetricsRegistry *metrics = nullptr;
    /** Record a structured trace into every QueryResult::trace. */
    bool trace = false;
};

/**
 * Executes query batches against a GraphStore + TransformCache. The
 * store must not be mutated during runBatch(); the cache is safe to
 * share (internally synchronized). runBatch() itself is not reentrant
 * (the circuit breaker advances per batch) — serialize callers.
 */
class QueryScheduler
{
  public:
    QueryScheduler(const GraphStore &store, TransformCache &cache,
                   SchedulerOptions options = {});

    /** A scheduler over a mutable store can additionally run mutation
     *  batches (the two-span runBatch overload). */
    QueryScheduler(GraphStore &store, TransformCache &cache,
                   SchedulerOptions options = {});

    ~QueryScheduler();

    /** Worker count batches actually run with. */
    unsigned workers() const { return workers_; }

    /**
     * Run @p batch to completion and return per-query results in batch
     * order. Admission, warm-up, execution, breaker post-pass — see
     * the file comment for the determinism argument. Never throws:
     * every query gets a terminal typed outcome.
     */
    std::vector<QueryResult> runBatch(std::span<const QuerySpec> batch);

    /**
     * Epoch-consistent mutate-then-query batch: every mutation is
     * applied serially, in batch order, BEFORE any query runs, so all
     * queries observe the final epoch of this batch — and, since the
     * query phase inherits the plain runBatch() contract over a store
     * that no longer changes, per-query results are bit-identical at
     * any worker count. Requires the mutable-store constructor:
     * mutations on a read-only scheduler are rejected with a typed
     * error (and the queries still run). Never throws.
     */
    MutationBatchResult
    runBatch(std::span<const MutationSpec> mutations,
             std::span<const QuerySpec> queries);

    /** The per-graph circuit breaker (inspection / manual reset). */
    CircuitBreaker &breaker() { return breaker_; }
    const CircuitBreaker &breaker() const { return breaker_; }

  private:
    /** What a claim-order estimate is keyed by: (graph, strategy, K,
     *  algorithm, direction). */
    using CostKey = std::tuple<std::string, engine::Strategy, NodeId,
                               engine::Algorithm, engine::Direction>;
    static CostKey costKey(const QuerySpec &spec);

    /** Validate @p spec against the store; fills result on rejection.
     *  Reads only epoch-invariant metadata (GraphStore::peek), so
     *  admission never materializes a stale dense entry. */
    bool admit(const QuerySpec &spec, QueryResult &result) const;

    /** Execute one admitted query (on an engine borrowing the pool)
     *  with the retry loop. @p entry is the dense StoredGraph Phase 2
     *  resolved, or null for an arena-served query, which runs off the
     *  live arena and never touches the dense copy. @p scope_key keys
     *  the fault scope; @p shared is the warm-up's schedule (null =
     *  degraded, uncacheable, or arena-served). */
    void execute(const QuerySpec &spec, const StoredGraph *entry,
                 QueryResult &result,
                 std::shared_ptr<const engine::SharedSchedule> shared,
                 std::uint64_t scope_key) const;

    /** One engine run (attempt body); throws on failure. A null
     *  @p entry runs the query off the live arena. */
    void runAttempt(const QuerySpec &spec, const StoredGraph *entry,
                    const std::shared_ptr<const engine::SharedSchedule>
                        &shared,
                    double backoff_sim_ms, QueryResult &result) const;

    /** Apply one mutation (serial phase of the two-span runBatch). */
    void applyMutation(const MutationSpec &spec, MutationResult &result,
                       std::uint64_t scope_key,
                       obs::MetricsRegistry &metrics);

    const GraphStore &store_;
    /** Non-null only for the mutable-store constructor. */
    GraphStore *mutableStore_ = nullptr;
    TransformCache &cache_;
    SchedulerOptions options_;
    unsigned workers_;
    /** options_.buildThreads, resolved once. */
    unsigned buildThreads_;
    /** The scheduler-lifetime pool queries borrow (null at 1 worker). */
    std::unique_ptr<par::ThreadPool> pool_;
    CircuitBreaker breaker_;
    /** Simulated cycles of the last completed query per cost key,
     *  written by the serial Phase 5: Phase 3's longest-first order. */
    std::map<CostKey, std::uint64_t> lastCycles_;
    /** Monotonic batch counter: the high half of every scope key, so
     *  fault decisions differ across batches under one seed. */
    std::uint64_t batchSeq_ = 0;
};

} // namespace tigr::service
