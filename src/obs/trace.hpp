/**
 * @file
 * TraceSink: the structured, deterministic event stream behind the
 * observability layer (docs/observability.md).
 *
 * Events are fixed-size records — a simulated-time tick, a kind, up to
 * four static-string labels, and up to eight integer arguments. The
 * determinism contract:
 *
 *  - Ticks are *simulated* cycles from the warp simulator, never
 *    wall-clock: the engine's cycle counter is thread-count-invariant,
 *    so a trace is bit-identical at 1, 2, or 8 host threads.
 *  - Every argument is an integer. Nothing float-derived and nothing
 *    host-timing-derived (RunInfo::hostMs / transformMs are explicitly
 *    excluded) may enter an event.
 *  - Labels must point at static storage (strategyName(),
 *    algorithmName(), siteName(), string literals): events never own
 *    or allocate strings.
 *
 * formatTrace() renders the canonical text form the golden-trace tests
 * check in (tests/obs/golden/); diffTraces() reports the *first*
 * diverging line and field instead of a blob comparison.
 *
 * A TraceSink is not internally synchronized: each engine run or
 * scheduler query records into its own sink (the scheduler keeps one
 * sink per QueryResult, so concurrent workers never share one).
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tigr::obs {

class MetricsRegistry;

/** What one TraceEvent describes. */
enum class EventKind : std::uint8_t
{
    RunBegin,    ///< An engine analysis starts.
    Transform,   ///< The run's schedule context resolved (built/reused).
    Iteration,   ///< One BSP iteration (or PR round) completed.
    RunEnd,      ///< The analysis finished.
    CacheLookup, ///< Transform-cache warm-up decision for a query.
    QueryBegin,  ///< Scheduler picked up a query.
    QueryEnd,    ///< Scheduler finalized a query outcome.
    Fault,       ///< An injected fault fired.
    Retry,       ///< The scheduler scheduled another attempt.
    Degrade,     ///< A query dropped down the degradation ladder.
    MutationBegin,   ///< A mutation batch entered apply.
    MutationApply,   ///< A batch finished applying to the graph.
    MutationCompact, ///< The slack arena was compacted.
    MutationResplit, ///< One batch's incremental virtual repair.
    ArenaServe,      ///< Scheduler served a query off the live arena
                     ///< (no dense materialization).
    JournalAppend,     ///< One WAL record framed and written.
    JournalCheckpoint, ///< Snapshot written, journal rotated.
    RecoverGraph,      ///< One graph recovered at startup.
};

/** Display name ("run.begin", "iter", "fault", ...). */
std::string_view eventKindName(EventKind kind);

/**
 * One structured event. Field meaning per kind (unused slots stay 0 /
 * empty and are omitted by the formatter):
 *
 *   RunBegin    label: algo, strategy, direction, frontier-mode
 *               arg:   n, worklist, dynamic-mapping
 *   Transform   arg:   cached, units
 *   Iteration   arg:   index (1-based), frontier size, sparse,
 *                      units launched, cycles delta, instructions
 *                      delta, lane-slot delta, mem-transaction delta
 *   RunEnd      arg:   iterations, converged, cancelled, peak
 *                      frontier, sparse iterations, total cycles
 *   CacheLookup arg:   hit, retained
 *   QueryBegin  label: algo, strategy;  arg: batch index
 *   QueryEnd    label: outcome
 *               arg:   attempts, iterations, total cycles, value
 *                      digest, backoff (simulated microseconds),
 *                      degraded, cache hit
 *   Fault       label: site;  arg: scope key, attempt, hit counter
 *   Retry       label: error kind
 *               arg:   next attempt, total backoff (simulated us)
 *   Degrade     label: error kind
 *   MutationBegin   label: graph
 *                   arg: target epoch, mutations, inserts, deletes,
 *                        reweights
 *   MutationApply   arg: epoch, touched vertices, live edges, slack
 *                        slots
 *   MutationCompact arg: epoch, reclaimed slots, live edges
 *   MutationResplit arg: epoch, repaired vertices, resplit families,
 *                        retired slot (always 0), entries after,
 *                        reverse repaired vertices, reverse resplit
 *                        families. arg[3] still prints as `shifted=0`
 *                        so golden traces stay byte-identical until
 *                        their next re-bless drops it
 *   ArenaServe      label: direction
 *                   arg: arena epoch, maintained forward array,
 *                        maintained reverse array
 *   JournalAppend   label: sync policy
 *                   arg: epoch, record seq, frame bytes, synced inline
 *   JournalCheckpoint arg: epoch, retired records, journal bytes after
 *   RecoverGraph    arg: snapshot epoch, recovered epoch, records
 *                        replayed, records retired, bytes truncated,
 *                        torn tail
 */
struct TraceEvent
{
    /** Simulated cycles at the event (0 for scheduler-phase events,
     *  which happen outside simulated kernel time). */
    std::uint64_t tick = 0;
    EventKind kind = EventKind::Iteration;
    /** Static-storage names only; never owned. */
    std::array<std::string_view, 4> label{};
    std::array<std::uint64_t, 8> arg{};
};

/** An append-only event buffer. */
class TraceSink
{
  public:
    void record(const TraceEvent &event) { events_.push_back(event); }

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }
    void clear() { events_.clear(); }

    /** Append every event of @p other (trace merging). */
    void append(const TraceSink &other);

  private:
    std::vector<TraceEvent> events_;
};

/** Canonical one-line text form of @p event (no trailing newline). */
std::string formatEvent(const TraceEvent &event);

/** formatEvent() per event, one per line, each newline-terminated —
 *  the byte-identity witness the golden tests compare. */
std::string formatTrace(const TraceSink &sink);

/** Result of comparing two formatted traces line by line. */
struct TraceDiff
{
    bool identical = true;
    /** First diverging line (0-based); lines beyond the shorter trace
     *  count as divergences. */
    std::size_t line = 0;
    /** First diverging whitespace-separated field on that line. */
    std::size_t field = 0;
    std::string expectedLine;
    std::string actualLine;
    /** BSP iteration context: value of the nearest preceding (or
     *  containing) `i=` field in the expected trace, empty if none. */
    std::string iteration;

    /** Human-readable "first divergence at ..." message. */
    std::string describe() const;
};

/** First-divergence comparison of two formatted traces. */
TraceDiff diffTraces(std::string_view expected, std::string_view actual);

/**
 * Fold a trace into aggregate metrics: iteration counts, per-iteration
 * frontier/unit/cycle histograms, run and fault counters. This is how
 * `tigr stats --algo` and `tigr run --metrics` derive a registry from
 * the event stream (the trace is the source of truth; metrics are a
 * projection of it).
 */
void aggregateTrace(const TraceSink &sink, MetricsRegistry &registry);

} // namespace tigr::obs
