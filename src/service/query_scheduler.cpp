#include "service/query_scheduler.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include "graph/io.hpp"
#include "par/thread_pool.hpp"

namespace tigr::service {

namespace {

/** FNV-1a digest of a result-value vector's raw bytes. */
template <typename T>
std::uint64_t
digestOf(const std::vector<T> &values)
{
    return graph::fnv1a64(values.data(), values.size() * sizeof(T));
}

/** True when a cached schedule can ever apply to this spec: TigrUdt
 *  engines schedule over the physically transformed graph, so a
 *  schedule over the original could never be reused. */
bool
cacheable(const QuerySpec &spec)
{
    return spec.strategy != engine::Strategy::TigrUdt;
}

/** True for the strategies with a zero-memory dynamic-mapping
 *  fallback (Section 4.1's second design). */
bool
hasDynamicFallback(engine::Strategy strategy)
{
    return strategy == engine::Strategy::TigrV ||
           strategy == engine::Strategy::TigrVPlus;
}

bool
needsSource(engine::Algorithm algorithm)
{
    switch (algorithm) {
      case engine::Algorithm::Bfs:
      case engine::Algorithm::Sssp:
      case engine::Algorithm::Sswp:
      case engine::Algorithm::Bc:
        return true;
      case engine::Algorithm::Cc:
      case engine::Algorithm::Pr:
        return false;
    }
    return false;
}

/** Deterministic fault-scope key: batch sequence over batch position. */
std::uint64_t
scopeKey(std::uint64_t batch_seq, std::size_t index)
{
    return (batch_seq << 32) | static_cast<std::uint64_t>(index);
}

/** Simulated backoff in whole microseconds. RetryPolicy backoff values
 *  are exact sums of exact doubles, so the rounding — like everything
 *  else in the digest — is deterministic. */
std::uint64_t
backoffMicros(double backoff_sim_ms)
{
    return static_cast<std::uint64_t>(
        std::llround(backoff_sim_ms * 1000.0));
}

/** The canonical integer outcome record behind
 *  QueryResult::metricsDigest. Only worker-count-invariant fields
 *  participate — never hostMs/transformMs. */
std::uint64_t
metricsDigestOf(const QueryResult &r)
{
    const std::uint64_t record[] = {
        static_cast<std::uint64_t>(r.outcome),
        r.attempts,
        r.info.iterations,
        r.info.stats.cycles,
        r.digest,
        r.values,
        r.cacheHit ? 1u : 0u,
        r.degraded ? 1u : 0u,
        r.arenaServed ? 1u : 0u,
        backoffMicros(r.backoffSimMs),
        r.faultTrace.size(),
        r.info.sparseIterations,
        r.info.peakFrontier,
        r.info.cancelled ? 1u : 0u,
    };
    return graph::fnv1a64(record, sizeof(record));
}

/** Convert fault records [from, end) of @p faults into Fault trace
 *  events (scheduler-phase events carry tick 0). */
void
traceFaults(obs::TraceSink &trace, const fault::FaultTrace &faults,
            std::size_t from)
{
    for (std::size_t i = from; i < faults.size(); ++i) {
        const fault::FaultRecord &record = faults[i];
        obs::TraceEvent event;
        event.kind = obs::EventKind::Fault;
        event.label[0] = fault::siteName(record.site);
        event.arg[0] = record.scope;
        event.arg[1] = record.attempt;
        event.arg[2] = record.hit;
        trace.record(event);
    }
}

void
traceNewFaults(QueryResult &result, std::size_t from)
{
    traceFaults(result.trace, result.faultTrace, from);
}

} // namespace

std::string_view
queryOutcomeName(QueryOutcome outcome)
{
    switch (outcome) {
      case QueryOutcome::Completed: return "completed";
      case QueryOutcome::DeadlineExceeded: return "deadline-exceeded";
      case QueryOutcome::Rejected: return "rejected";
      case QueryOutcome::Quarantined: return "quarantined";
      case QueryOutcome::Error: return "error";
    }
    return "unknown";
}

QueryScheduler::QueryScheduler(const GraphStore &store,
                               TransformCache &cache,
                               SchedulerOptions options)
    : store_(store), cache_(cache), options_(options),
      workers_(par::resolveThreads(options.workers)),
      buildThreads_(par::resolveThreads(options.buildThreads)),
      pool_(workers_ > 1 ? std::make_unique<par::ThreadPool>(workers_)
                         : nullptr),
      breaker_(options.breaker)
{
}

QueryScheduler::QueryScheduler(GraphStore &store, TransformCache &cache,
                               SchedulerOptions options)
    : QueryScheduler(static_cast<const GraphStore &>(store), cache,
                     std::move(options))
{
    mutableStore_ = &store;
}

QueryScheduler::~QueryScheduler() = default;

QueryScheduler::CostKey
QueryScheduler::costKey(const QuerySpec &spec)
{
    return {spec.graph, spec.strategy, spec.degreeBound, spec.algorithm,
            spec.direction};
}

bool
QueryScheduler::admit(const QuerySpec &spec, QueryResult &result) const
{
    auto reject = [&](std::string why) {
        result.outcome = QueryOutcome::Rejected;
        result.error = ServiceError{ServiceErrorKind::InvalidQuery,
                                    std::nullopt, why};
        result.message = std::move(why);
        return false;
    };
    // peek(): admission reads only epoch-invariant metadata (the node
    // set never changes under mutation), so a query admitted mid-burst
    // never forces the stale dense entry to materialize here.
    const StoredGraph *entry = store_.peek(spec.graph);
    if (!entry)
        return reject("unknown graph '" + spec.graph + "'");
    if (entry->graph.numNodes() == 0)
        return reject("graph '" + spec.graph + "' has no nodes");
    if (spec.strategy == engine::Strategy::TigrUdt &&
        (spec.algorithm == engine::Algorithm::Pr ||
         spec.algorithm == engine::Algorithm::Bc))
        return reject(std::string(algorithmName(spec.algorithm)) +
                      " is unsupported under the UDT strategy");
    if (spec.strategy == engine::Strategy::TigrUdt &&
        spec.direction == engine::Direction::Pull)
        return reject("pull direction is unsupported under the UDT "
                      "strategy");
    if (needsSource(spec.algorithm) &&
        spec.source >= entry->graph.numNodes())
        return reject("source " + std::to_string(spec.source) +
                      " out of range for graph '" + spec.graph + "'");
    if ((spec.strategy == engine::Strategy::TigrV ||
         spec.strategy == engine::Strategy::TigrVPlus) &&
        spec.degreeBound == 0)
        return reject("degree bound 0 under a virtual strategy");
    if (spec.strategy == engine::Strategy::MaximumWarp &&
        spec.mwVirtualWarp == 0)
        return reject("virtual warp width 0 under the maximum-warp "
                      "strategy");
    if (!(spec.frontierRatio >= 0.0 && spec.frontierRatio <= 1.0))
        return reject("frontier ratio outside [0, 1]"); // NaN too
    return true;
}

void
QueryScheduler::runAttempt(
    const QuerySpec &spec, const StoredGraph *entry,
    const std::shared_ptr<const engine::SharedSchedule> &shared,
    double backoff_sim_ms, QueryResult &result) const
{
    engine::EngineOptions opts;
    opts.strategy = spec.strategy;
    opts.direction = spec.direction;
    opts.degreeBound = spec.degreeBound;
    opts.mwVirtualWarp = spec.mwVirtualWarp;
    opts.frontier = spec.frontier;
    opts.frontierRatio = spec.frontierRatio;
    // The engine borrows the scheduler's pool: workers whose claims ran
    // out join its chunk loops. Without one (a 1-worker scheduler) it
    // runs serially.
    opts.pool = pool_.get();
    opts.threads = 1;
    opts.degraded = result.degraded;
    // Per-query sink: the engine records only on this thread (no chunk
    // body does), so the unsynchronized sink is safe and the recorded
    // ticks (simulated cycles) are worker-count-invariant.
    opts.trace = options_.trace ? &result.trace : nullptr;
    // Degraded virtual-strategy queries run the zero-memory dynamic
    // mapping instead of a stored schedule — bit-identical values,
    // no transform memory (the ladder's whole point).
    if (result.degraded && hasDynamicFallback(spec.strategy))
        opts.dynamicMapping = true;

    const auto wall_start = std::chrono::steady_clock::now();
    // Retry backoff is charged against the simulated-time budget:
    // this attempt starts with the deadline moved that much closer.
    const double sim_limit = spec.deadlineSimMs > 0.0
                                 ? spec.deadlineSimMs - backoff_sim_ms
                                 : 0.0;
    const bool sim_deadline = spec.deadlineSimMs > 0.0;
    const double wall_limit = spec.deadlineWallMs;
    const bool inject = fault::armed();
    if (sim_deadline || wall_limit > 0.0 || inject) {
        opts.cancel = [sim_deadline, sim_limit, wall_limit, wall_start,
                       inject](unsigned, std::uint64_t cycles) {
            // The engine calls the hook on this thread, never from a
            // chunk body, so the armed fault scope is visible here; a
            // fired engine.iteration site throws out of the analysis
            // into the retry loop.
            if (inject)
                fault::check(fault::Site::EngineIteration);
            if (sim_deadline &&
                engine::cyclesToMs(cycles) >= sim_limit)
                return true;
            if (wall_limit > 0.0) {
                const double elapsed =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
                if (elapsed >= wall_limit)
                    return true;
            }
            return false;
        };
    }

    // Exercises real allocation-failure paths (raises bad_alloc).
    TIGR_FAULT_POINT(fault::Site::Alloc);

    // Arena-served queries (no dense entry) run straight off the live
    // arena: no cached schedule, and values bit-identical to the dense
    // path (the differential fuzz suite's invariant).
    std::optional<engine::GraphEngine> engine;
    if (!entry) {
        const ArenaView view = store_.arenaView(spec.graph);
        engine.emplace(*view.graph, view.forward, view.reverse, opts);
    } else {
        engine.emplace(entry->graph, opts, shared);
    }
    auto take = [&result](const auto &r) {
        result.info = r.info;
        result.digest = digestOf(r.values);
        result.values = r.values.size();
    };
    switch (spec.algorithm) {
      case engine::Algorithm::Bfs: take(engine->bfs(spec.source)); break;
      case engine::Algorithm::Sssp: take(engine->sssp(spec.source)); break;
      case engine::Algorithm::Sswp: take(engine->sswp(spec.source)); break;
      case engine::Algorithm::Cc: take(engine->cc()); break;
      case engine::Algorithm::Pr: {
        engine::PageRankOptions pr;
        pr.iterations = spec.prIterations;
        take(engine->pagerank(pr));
        break;
      }
      case engine::Algorithm::Bc: {
        const std::array<NodeId, 1> sources{spec.source};
        take(engine->bc(sources));
        break;
      }
    }
}

void
QueryScheduler::execute(
    const QuerySpec &spec, const StoredGraph *entry, QueryResult &result,
    std::shared_ptr<const engine::SharedSchedule> shared,
    std::uint64_t scope_key) const
{
    const RetryPolicy &retry = options_.retry;
    // A warm-up degradation error survives a successful run (the
    // result self-reports what it absorbed); attempt failures that a
    // retry outlasted do not.
    const std::optional<ServiceError> warmup_error = result.error;

    for (unsigned attempt = 0;; ++attempt) {
        result.attempts = attempt + 1;
        // Each attempt starts from clean output state so a partial
        // failed attempt can never leak into the result.
        result.info = {};
        result.digest = 0;
        result.values = 0;
        const std::size_t faults_before = result.faultTrace.size();

        fault::FaultScope scope(options_.faultPlan, scope_key, attempt,
                                &result.faultTrace);
        try {
            runAttempt(spec, entry, shared, result.backoffSimMs,
                       result);
            // The warm-up miss query paid the shared schedule's build
            // (TransformCache::getOrBuild): it must not report the
            // transform as cached just because the engine reused the
            // injected schedule object. Hits keep reporting true.
            if (shared && !result.cacheHit)
                result.info.transformCached = false;
            if (options_.trace)
                traceNewFaults(result, faults_before);
            result.outcome = result.info.cancelled
                                 ? QueryOutcome::DeadlineExceeded
                                 : QueryOutcome::Completed;
            result.error = warmup_error;
            result.message.clear();
            return;
        } catch (const std::exception &e) {
            if (options_.trace)
                traceNewFaults(result, faults_before);
            ServiceError error = classifyFailure(e);
            const bool give_up = !error.retryable() ||
                                 attempt >= retry.maxRetries;
            result.message = error.message;
            result.error = std::move(error);
            if (give_up) {
                result.outcome = QueryOutcome::Error;
                result.digest = 0;
                result.values = 0;
                return;
            }
            // Deterministic backoff in simulated time: the next
            // attempt's deadline budget shrinks by this much.
            result.backoffSimMs += retry.backoffSimMs(attempt);
            if (options_.trace) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::Retry;
                event.label[0] =
                    serviceErrorKindName(result.error->kind);
                event.arg[0] = attempt + 1;
                event.arg[1] = backoffMicros(result.backoffSimMs);
                result.trace.record(event);
            }
        }
    }
}

std::vector<QueryResult>
QueryScheduler::runBatch(std::span<const QuerySpec> batch)
{
    const std::uint64_t batch_seq = batchSeq_++;
    breaker_.beginBatch();
    // All metric updates happen in the serial phases (warm-up and the
    // final post-pass), in batch order — exact and worker-invariant.
    obs::MetricsRegistry &metrics =
        options_.metrics ? *options_.metrics
                         : obs::MetricsRegistry::disabled();

    std::vector<QueryResult> results(batch.size());
    std::vector<bool> admitted(batch.size(), false);

    // Phase 1 — admission, in batch order: the queue bound rejects by
    // position, never by timing, and quarantined graphs are refused
    // before any work is spent on them.
    std::size_t queued = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (queued >= options_.maxQueuedQueries) {
            results[i].outcome = QueryOutcome::Rejected;
            results[i].message =
                "admission queue full (" +
                std::to_string(options_.maxQueuedQueries) + " queries)";
            results[i].error =
                ServiceError{ServiceErrorKind::InvalidQuery,
                             std::nullopt, results[i].message};
            continue;
        }
        if (!admit(batch[i], results[i]))
            continue;
        if (!breaker_.admits(batch[i].graph)) {
            results[i].outcome = QueryOutcome::Quarantined;
            results[i].message = "graph '" + batch[i].graph +
                                 "' is quarantined (circuit breaker "
                                 "open)";
            results[i].error =
                ServiceError{ServiceErrorKind::Quarantined,
                             std::nullopt, results[i].message};
            continue;
        }
        admitted[i] = true;
        ++queued;
        if (options_.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::QueryBegin;
            event.label[0] = algorithmName(batch[i].algorithm);
            event.label[1] = engine::strategyName(batch[i].strategy);
            event.arg[0] = i;
            results[i].trace.record(event);
        }
    }

    // Phase 2 — serial routing and transform warm-up, in batch order.
    // A TigrV / TigrV+ query on a mutated graph is served off the live
    // arena (push over the forward side, pull over the reverse one) and
    // skips the cache. Every other query looks its dense entry up here,
    // so a stale epoch materializes in this loop, never in Phase 3. The
    // first cacheable query of each (graph, strategy, K, warp, side)
    // key is the miss that builds, every later one is a hit, so worker
    // interleaving cannot influence hit attribution or who pays the
    // build. Warm-up failures never fail a query: they push it down the
    // degradation ladder (dynamic mapping for the virtual strategies,
    // an engine-local build otherwise) and the result self-reports
    // `degraded`.
    std::vector<const StoredGraph *> entries(batch.size(), nullptr);
    std::vector<std::shared_ptr<const engine::SharedSchedule>>
        schedules(batch.size());
    std::unique_ptr<par::ThreadPool> build_pool;
    if (queued > 0 && buildThreads_ > 1)
        build_pool = std::make_unique<par::ThreadPool>(buildThreads_);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!admitted[i])
            continue;
        const QuerySpec &spec = batch[i];
        const ArenaView view = store_.arenaView(spec.graph);
        if (view.graph && hasDynamicFallback(spec.strategy)) {
            results[i].arenaServed = true;
            if (options_.trace) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::ArenaServe;
                event.label[0] =
                    spec.direction == engine::Direction::Pull
                        ? "pull"
                        : "push";
                event.arg[0] = view.epoch;
                event.arg[1] = view.forward ? 1 : 0;
                event.arg[2] = view.reverse ? 1 : 0;
                results[i].trace.record(event);
            }
            continue;
        }
        const StoredGraph &entry = store_.at(spec.graph);
        entries[i] = &entry;
        if (!cacheable(spec))
            continue;
        const TransformKey key{
            spec.graph,         &entry.graph,
            spec.strategy,      spec.degreeBound,
            spec.mwVirtualWarp, entry.epoch,
            engine::scheduleSide(spec.algorithm, spec.strategy,
                                 spec.direction)};
        const std::size_t faults_before = results[i].faultTrace.size();
        fault::FaultScope scope(options_.faultPlan,
                                scopeKey(batch_seq, i), 0,
                                &results[i].faultTrace);
        bool hit = false;
        bool retained = false;
        try {
            auto shared =
                cache_.getOrBuild(key, build_pool.get(), &hit,
                                  &retained);
            results[i].cacheHit = hit;
            metrics
                .counter(hit ? "scheduler.cache.hits"
                             : "scheduler.cache.misses")
                .add();
            if (options_.trace) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::CacheLookup;
                event.arg[0] = hit ? 1 : 0;
                event.arg[1] = retained ? 1 : 0;
                results[i].trace.record(event);
            }
            if (!retained && hasDynamicFallback(spec.strategy)) {
                // The cache could not keep the schedule (budget or an
                // injected cache.insert fault): drop our copy too and
                // run the zero-memory dynamic fallback instead of
                // holding an uncached schedule per query.
                results[i].degraded = true;
                results[i].error = ServiceError{
                    ServiceErrorKind::CacheInsert, std::nullopt,
                    "schedule not retained; degraded to dynamic "
                    "mapping"};
            } else {
                schedules[i] = std::move(shared);
            }
        } catch (const std::exception &e) {
            results[i].cacheHit = false;
            results[i].degraded = true;
            results[i].error = classifyFailure(e);
        }
        if (options_.trace) {
            traceNewFaults(results[i], faults_before);
            if (results[i].degraded) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::Degrade;
                event.label[0] =
                    serviceErrorKindName(results[i].error->kind);
                results[i].trace.record(event);
            }
        }
    }
    build_pool.reset();

    // Phase 3 — concurrent execution: workers claim admitted slots via
    // an atomic ticket, longest first — descending simulated cycles last
    // recorded for the slot's cost key, unknown keys first, ties in
    // batch order. A worker whose claims ran out lends itself to the
    // chunk loops of the queries still running (par::ThreadPool). Claim
    // order and who helps whom vary; each slot's result does not
    // (fault decisions are keyed by slot, the breaker is untouched
    // until the post-pass, engines are chunk-deterministic).
    std::vector<std::pair<std::uint64_t, std::size_t>> claims;
    claims.reserve(queued);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!admitted[i])
            continue;
        const auto known = lastCycles_.find(costKey(batch[i]));
        claims.emplace_back(known == lastCycles_.end()
                                ? std::numeric_limits<std::uint64_t>::max()
                                : known->second,
                            i);
    }
    std::stable_sort(claims.begin(), claims.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::atomic<std::size_t> next{0};
    auto drain = [&](unsigned) {
        for (std::size_t t = next.fetch_add(1, std::memory_order_relaxed);
             t < claims.size();
             t = next.fetch_add(1, std::memory_order_relaxed)) {
            const std::size_t i = claims[t].second;
            execute(batch[i], entries[i], results[i], schedules[i],
                    scopeKey(batch_seq, i));
        }
    };
    // An ingest-only request (no admitted query) has nothing to drain.
    if (pool_ && !claims.empty())
        pool_->run(drain);
    else
        drain(0);

    // Phase 4 — breaker post-pass, in batch order over terminal
    // outcomes: deterministic because it never runs concurrently with
    // anything. Quarantine takes effect at admission of later batches.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        switch (results[i].outcome) {
          case QueryOutcome::Error:
            breaker_.recordFault(batch[i].graph);
            break;
          case QueryOutcome::Completed:
          case QueryOutcome::DeadlineExceeded:
            breaker_.recordSuccess(batch[i].graph);
            break;
          case QueryOutcome::Rejected:
          case QueryOutcome::Quarantined:
            break; // never ran; says nothing about graph health
        }
    }

    // Phase 5 — serial observability pass, in batch order: every query
    // gets its metricsDigest and QueryEnd event, and each counter is
    // bumped exactly once per query from the terminal outcomes, so the
    // registry can never drift from the results it describes. Completed
    // queries also leave the cost estimate later batches claim by.
    metrics.counter("scheduler.batches").add();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        QueryResult &r = results[i];
        r.metricsDigest = metricsDigestOf(r);
        if (r.outcome == QueryOutcome::Completed)
            lastCycles_[costKey(batch[i])] = r.info.stats.cycles;
        if (options_.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::QueryEnd;
            event.label[0] = queryOutcomeName(r.outcome);
            event.arg[0] = r.attempts;
            event.arg[1] = r.info.iterations;
            event.arg[2] = r.info.stats.cycles;
            event.arg[3] = r.digest;
            event.arg[4] = backoffMicros(r.backoffSimMs);
            event.arg[5] = r.degraded ? 1 : 0;
            event.arg[6] = r.cacheHit ? 1 : 0;
            r.trace.record(event);
        }
        metrics.counter("scheduler.queries").add();
        if (admitted[i])
            metrics.counter("scheduler.admitted").add();
        switch (r.outcome) {
          case QueryOutcome::Completed:
            metrics.counter("scheduler.completed").add();
            break;
          case QueryOutcome::DeadlineExceeded:
            metrics.counter("scheduler.deadline_exceeded").add();
            break;
          case QueryOutcome::Rejected:
            metrics.counter("scheduler.rejected").add();
            break;
          case QueryOutcome::Quarantined:
            metrics.counter("scheduler.quarantined").add();
            break;
          case QueryOutcome::Error:
            metrics.counter("scheduler.errors").add();
            break;
        }
        if (r.attempts > 1)
            metrics.counter("scheduler.retries").add(r.attempts - 1);
        if (r.degraded)
            metrics.counter("scheduler.degraded").add();
        if (r.arenaServed)
            metrics.counter("scheduler.arena_served").add();
        if (!r.faultTrace.empty())
            metrics.counter("scheduler.faults")
                .add(r.faultTrace.size());
        if (r.attempts > 0) {
            metrics.histogram("scheduler.query.attempts")
                .observe(r.attempts);
            metrics.histogram("scheduler.query.iterations")
                .observe(r.info.iterations);
            metrics.histogram("scheduler.query.sim_cycles")
                .observe(r.info.stats.cycles);
        }
    }
    if (options_.metrics) {
        const TransformCacheStats cache_stats = cache_.stats();
        metrics.gauge("scheduler.cache.bytes").set(cache_stats.bytes);
        metrics.gauge("scheduler.cache.entries")
            .set(cache_stats.entries);
    }
    return results;
}

void
QueryScheduler::applyMutation(const MutationSpec &spec,
                              MutationResult &result,
                              std::uint64_t scope_key,
                              obs::MetricsRegistry &metrics)
{
    auto reject = [&](ServiceErrorKind kind, std::string why) {
        result.error = ServiceError{kind, std::nullopt, why};
        result.message = std::move(why);
        metrics.counter("scheduler.mutation_errors").add();
    };
    if (!mutableStore_) {
        reject(ServiceErrorKind::InvalidQuery,
               "mutations require a scheduler over a mutable store");
        return;
    }
    // Nothing on the mutation path materializes the dense entry: the
    // existence check, the epoch and the generated tail all read the
    // live arena (or, before the first mutation, the dense entry that
    // is current by definition).
    if (!mutableStore_->contains(spec.graph)) {
        reject(ServiceErrorKind::InvalidQuery,
               "unknown graph '" + spec.graph + "'");
        return;
    }
    const std::uint64_t epoch_before = mutableStore_->epochOf(spec.graph);
    result.epoch = epoch_before;

    // Generated tails are drawn against the graph's state *now*, so a
    // MutationSpec sequence is deterministic batch-by-batch even when
    // earlier specs in the same call mutated the graph.
    dynamic::MutationBatch batch = spec.mutations;
    if (spec.generate) {
        const ArenaView view = mutableStore_->arenaView(spec.graph);
        dynamic::MutationBatch tail =
            view.graph
                ? dynamic::generateBatch(*view.graph, *spec.generate)
                : dynamic::generateBatch(
                      mutableStore_->peek(spec.graph)->graph,
                      *spec.generate);
        batch.insert(batch.end(), tail.begin(), tail.end());
    }

    if (options_.trace) {
        std::size_t inserts = 0, deletes = 0, reweights = 0;
        for (const dynamic::Mutation &m : batch) {
            switch (m.kind) {
              case dynamic::MutationKind::InsertEdge: ++inserts; break;
              case dynamic::MutationKind::DeleteEdge: ++deletes; break;
              case dynamic::MutationKind::UpdateWeight:
                ++reweights;
                break;
            }
        }
        obs::TraceEvent event;
        event.kind = obs::EventKind::MutationBegin;
        event.label[0] = spec.graph; // owned by the caller's spec
        event.arg[0] = epoch_before + 1;
        event.arg[1] = batch.size();
        event.arg[2] = inserts;
        event.arg[3] = deletes;
        event.arg[4] = reweights;
        result.trace.record(event);
    }

    fault::FaultScope scope(options_.faultPlan, scope_key, 0,
                            &result.faultTrace);
    try {
        const MutateResult applied =
            mutableStore_->mutate(spec.graph, batch);
        result.applied = true;
        result.epoch = applied.epoch;
        result.inserts = applied.delta.inserts;
        result.deletes = applied.delta.deletes;
        result.reweights = applied.delta.reweights;
        result.touched = applied.delta.touched.size();
        result.repaired = applied.repair.repairedVertices;
        result.resplits = applied.repair.resplitFamilies;
        result.reverseRepaired = applied.reverseRepair.repairedVertices;
        result.reverseResplits = applied.reverseRepair.resplitFamilies;
        result.compacted = applied.compacted;
        result.reclaimed = applied.reclaimed;
        if (options_.trace) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::MutationApply;
            event.arg[0] = applied.epoch;
            event.arg[1] = result.touched;
            event.arg[2] = applied.liveEdges;
            event.arg[3] = applied.slackSlots;
            result.trace.record(event);
            if (applied.virtualRepaired) {
                obs::TraceEvent resplit;
                resplit.kind = obs::EventKind::MutationResplit;
                resplit.arg[0] = applied.epoch;
                resplit.arg[1] = applied.repair.repairedVertices;
                resplit.arg[2] = applied.repair.resplitFamilies;
                resplit.arg[4] = applied.repair.entriesAfter;
                resplit.arg[5] =
                    applied.reverseRepair.repairedVertices;
                resplit.arg[6] = applied.reverseRepair.resplitFamilies;
                result.trace.record(resplit);
            }
            if (applied.compacted) {
                obs::TraceEvent compact;
                compact.kind = obs::EventKind::MutationCompact;
                compact.arg[0] = applied.epoch;
                compact.arg[1] = applied.reclaimed;
                compact.arg[2] = applied.liveEdges;
                result.trace.record(compact);
            }
        }
        metrics.counter("scheduler.mutations").add();
    } catch (const fault::InjectedCrash &) {
        // A simulated process death is not a query failure: nothing
        // between here and the torture harness may absorb it.
        throw;
    } catch (const std::exception &e) {
        if (options_.trace)
            traceFaults(result.trace, result.faultTrace, 0);
        ServiceError error = classifyFailure(e);
        result.message = error.message;
        result.error = std::move(error);
        // A mutation.compact fault fires after the new epoch was
        // published: the mutation landed, only reclamation failed.
        result.epoch = mutableStore_->epochOf(spec.graph);
        result.applied = result.epoch != epoch_before;
        metrics.counter("scheduler.mutation_errors").add();
    }
    // Drop schedules built over superseded epochs — stale keys can
    // never be served again; this just releases their memory early.
    if (result.applied)
        cache_.invalidateStale(spec.graph, result.epoch);
}

MutationBatchResult
QueryScheduler::runBatch(std::span<const MutationSpec> mutations,
                         std::span<const QuerySpec> queries)
{
    obs::MetricsRegistry &metrics =
        options_.metrics ? *options_.metrics
                         : obs::MetricsRegistry::disabled();
    MutationBatchResult out;
    out.mutations.resize(mutations.size());
    // Mutations share the upcoming query batch's sequence number (the
    // query phase increments it); their fault sites are disjoint from
    // the query-phase sites, so scope keys cannot collide in effect.
    const std::uint64_t mutation_seq = batchSeq_;
    for (std::size_t i = 0; i < mutations.size(); ++i)
        applyMutation(mutations[i], out.mutations[i],
                      scopeKey(mutation_seq, i), metrics);
    // The group-commit barrier: under SyncPolicy::GroupCommit the
    // batch's journal records hit the disk here, once, before any
    // result of the batch is acknowledged. No-op for non-durable
    // stores (and for EveryRecord, which synced inside each append).
    if (mutableStore_ && !mutations.empty())
        mutableStore_->syncJournals();
    out.queries = runBatch(queries);
    return out;
}

} // namespace tigr::service
