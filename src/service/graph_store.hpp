/**
 * @file
 * GraphStore: the service's registry of named graphs, versioned by
 * mutation epoch.
 *
 * Each entry is heap-pinned, so the `const graph::Csr &` a lookup
 * returns stays valid until the entry is removed or mutated — engines,
 * schedules, and cache entries all hold pointers into it. Entries
 * loaded from snapshots keep the persisted virtual node array as
 * loaded, so callers can rebind it with VirtualGraph::fromArrays
 * instead of rebuilding.
 *
 * Mutation is copy-on-write: mutate() applies a batch to the entry's
 * DynamicGraph and incrementally repairs its arena-addressed virtual
 * arrays — O(touched) work, no dense materialization. From the first
 * mutation on, the live virtual array is the maintained forward
 * virtualizer (arenaView), which serves TigrV / TigrV+ queries and
 * snapshot save. The dense StoredGraph for the new epoch holds the
 * CSR only; it is built lazily, on the first find/at/pin after a
 * mutation (double-checked against a private atomic staleness flag),
 * and swapped in whole. The previous version stays alive for exactly
 * as long as someone pin()ned it, so a reader holding a pinned
 * snapshot never observes a mutation. Cache entries keyed by
 * (graph id, epoch) go stale rather than wrong — see
 * TransformCache::invalidateStale.
 *
 * Which calls may materialize a stale dense entry (an O(n + m)
 * toCsr): find, at, pin, and checkpoint (which snapshots through
 * pin). Which never do: contains, peek, epochOf, arenaView and
 * mutate — so the whole mutation path, from QueryScheduler::runBatch
 * down to DynamicGraph::apply, reads only the live arena, and so does
 * every arena-served query.
 */
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "graph/csr.hpp"
#include "service/journal.hpp"
#include "service/recovery.hpp"
#include "service/snapshot.hpp"

namespace tigr::service {

/** One registered graph and where it came from. */
struct StoredGraph
{
    /** Registry name (unique within the store). */
    std::string name;
    /** The graph itself; address is stable until the entry is mutated
     *  or removed (pin() extends that across mutations). */
    graph::Csr graph;
    /** True when the source snapshot carried a virtual node array. */
    bool hasVirtual = false;
    /** Degree bound / layout the persisted array was built with. */
    NodeId virtualDegreeBound = 0;
    transform::EdgeLayout virtualLayout =
        transform::EdgeLayout::Coalesced;
    /** The persisted virtual node array as loaded (empty without one,
     *  and in every version materialized after a mutation): the live
     *  array of a mutated entry is `arenaView(name).forward`. */
    std::vector<transform::VirtualNode> virtualNodes;
    /** Provenance string for stats output ("memory", a file path). */
    std::string source = "memory";
    /** Host milliseconds spent loading/registering. */
    double loadMs = 0.0;
    /** Mutation epoch this version reflects (0 = as registered; a
     *  snapshot restores the epoch it was saved at). */
    std::uint64_t epoch = 0;
};

/** What one GraphStore::mutate() call did. */
struct MutateResult
{
    /** The applied batch's delta (epoch is store-relative). */
    dynamic::EpochDelta delta;
    /** Incremental virtual-array repair stats (zero-initialized when
     *  the entry has no virtual section). */
    dynamic::RepairStats repair;
    /** Repair stats of the mirrored In-side virtual array (zero when
     *  the entry has no virtual section). */
    dynamic::RepairStats reverseRepair;
    /** True when the entry carries a virtual array that was repaired. */
    bool virtualRepaired = false;
    /** The entry's epoch after the mutation. */
    std::uint64_t epoch = 0;
    /** Live edges after the mutation. */
    EdgeIndex liveEdges = 0;
    /** Dead arena slots after the mutation (and compaction, if any). */
    EdgeIndex slackSlots = 0;
    /** True when the slack threshold triggered a compaction. */
    bool compacted = false;
    /** Arena slots the compaction reclaimed. */
    EdgeIndex reclaimed = 0;
};

/**
 * Borrowed view of a mutated entry's live arena state, for serving
 * queries with no dense materialization (see docs/service.md,
 * arena-served queries). `graph` is null when the entry has never been
 * mutated — there is no arena to serve from, and the dense StoredGraph
 * is current by definition. Once set it stays set: the arena, not the
 * dense copy, is the entry's live state. The pointers borrow the
 * entry's DynamicState and stay valid until the next mutate() or
 * remove() of that entry; like find/at, valid to read only while no
 * mutation is running.
 */
struct ArenaView
{
    /** The slack-arena graph, or null (entry never mutated). */
    const dynamic::DynamicGraph *graph = nullptr;
    /** Maintained Out-side virtualizer (null without a virtual
     *  section): the entry's live virtual array. */
    const dynamic::IncrementalVirtualizer *forward = nullptr;
    /** Maintained In-side virtualizer over the reverse arena (null
     *  without a virtual section). */
    const dynamic::IncrementalVirtualizer *reverse = nullptr;
    /** Absolute epoch the arena reflects. */
    std::uint64_t epoch = 0;
};

/** What one GraphStore::checkpoint() call did. */
struct CheckpointResult
{
    /** Epoch the snapshot persisted. */
    std::uint64_t epoch = 0;
    /** Journal records the snapshot folded in (now retired). */
    std::uint64_t retiredRecords = 0;
    std::filesystem::path snapshot;
    std::filesystem::path journal;
};

/**
 * Name -> graph registry. Not internally synchronized: the service
 * mutates it only between query batches (the scheduler reads it
 * concurrently but never during add/remove).
 */
class GraphStore
{
  public:
    GraphStore() = default;
    GraphStore(const GraphStore &) = delete;
    GraphStore &operator=(const GraphStore &) = delete;

    /**
     * Register @p graph under @p name.
     * @throws std::invalid_argument if the name is taken or empty.
     */
    const StoredGraph &add(std::string name, graph::Csr graph,
                           std::string source = "memory");

    /**
     * Load the snapshot at @p path and register it under @p name,
     * keeping any persisted virtual section.
     * @throws SnapshotError on load failure, std::invalid_argument on
     *         a duplicate name.
     */
    const StoredGraph &
    addSnapshot(std::string name, const std::filesystem::path &path,
                SnapshotLoadMode mode = SnapshotLoadMode::Auto);

    /**
     * Audit @p dir (see auditSnapshotDirectory: partial "*.tgs.tmp"
     * leftovers and corrupt ".tgs" files are quarantined aside) and
     * register every intact snapshot under its file stem. A service
     * opening its snapshot directory through this never trips over a
     * half-written file from a crashed writer. A stem that collides
     * with an already-registered name is not re-registered (the store
     * keeps its existing entry); the file still counts as intact.
     * @throws SnapshotError (Io) only when @p dir is unreadable.
     */
    SnapshotAuditReport
    addSnapshotDirectory(const std::filesystem::path &dir,
                         SnapshotLoadMode mode = SnapshotLoadMode::Auto);

    /** Entry for @p name, or null. */
    const StoredGraph *find(std::string_view name) const;

    /** Entry for @p name. @throws std::out_of_range with the name. */
    const StoredGraph &at(std::string_view name) const;

    /**
     * Entry for @p name WITHOUT materializing a stale dense version,
     * or null. The returned StoredGraph may lag the entry's epoch
     * after a mutation (compare `epoch` against epochOf()); use it for
     * admission-time metadata (name, virtual section, strategy hints)
     * that is epoch-invariant, and find/at/pin when the dense graph
     * itself is needed.
     */
    const StoredGraph *peek(std::string_view name) const;

    /**
     * Live arena state of @p name, for serving queries straight off
     * the mutated graph. `graph` is null when the entry was never
     * mutated (no arena exists; the dense entry is current).
     * @throws std::out_of_range for an unknown name.
     */
    ArenaView arenaView(std::string_view name) const;

    /** True when @p name is registered. Never materializes. */
    bool contains(std::string_view name) const
    {
        return peek(name) != nullptr;
    }

    /**
     * Apply @p batch to the graph named @p name and publish the next
     * epoch: the entry's DynamicGraph absorbs the batch and its
     * arena-addressed virtual array (when present) is incrementally
     * repaired — O(touched vertices), with no dense CSR or virtual
     * array materialized here. The dense StoredGraph is rebuilt lazily
     * by the next find/at/pin. Readers holding a pin() of the old
     * version are unaffected.
     *
     * Strong guarantee on rejection: a dynamic::MutationError (or an
     * injected `mutation.apply` fault) propagates with the entry
     * unchanged. A `mutation.compact` fault propagates AFTER the new
     * epoch is published — the mutation is applied and the entry
     * consistent; only slack reclamation was skipped.
     *
     * On a durable store (openDurable) the batch is appended to the
     * graph's write-ahead journal BEFORE it is applied; a rejected
     * batch's record is rolled back (JournalWriter::abortLast). Under
     * SyncPolicy::EveryRecord the record is fsync'd inside this call;
     * under GroupCommit durability arrives at the next syncJournals().
     *
     * @throws std::out_of_range for an unknown name.
     */
    MutateResult mutate(std::string_view name,
                        const dynamic::MutationBatch &batch);

    /**
     * Make this store durable over @p dir: run crash recovery over the
     * directory's snapshots and journals (see RecoveryManager —
     * corrupt files quarantined, torn tails truncated and preserved,
     * intact records replayed), then arm write-ahead journaling for
     * every subsequent mutate(). The directory is created when
     * missing. Each graph's journal is opened lazily on its first
     * durable mutation, writing the base ".tgs" snapshot first when
     * the graph has none — a journal always extends a durable
     * snapshot.
     * @throws std::logic_error when already durable, SnapshotError
     *         (Io) when the directory is unusable.
     */
    RecoveryReport openDurable(const std::filesystem::path &dir,
                               DurableOptions options = {});

    /** True once openDurable() succeeded. */
    bool durable() const { return durable_.has_value(); }

    /** The durable directory. @throws std::logic_error when the store
     *  is not durable. */
    const std::filesystem::path &durableDir() const;

    /**
     * Fold the journal of @p name into its snapshot: fsync the
     * journal, write the current epoch's snapshot crash-consistently
     * (tmp + atomic rename), then rotate in a fresh journal based at
     * that epoch the same way. A crash at any point leaves a
     * recoverable directory: either the old snapshot + full journal,
     * or the new snapshot with the old journal's records retiring on
     * recovery. @throws std::logic_error when not durable,
     * std::out_of_range for an unknown name, SnapshotError /
     * JournalError (Io) on write failure.
     */
    CheckpointResult checkpoint(std::string_view name);

    /** Group-commit barrier: fsync every journal with unsynced
     *  appends. The scheduler calls this at each batch boundary under
     *  SyncPolicy::GroupCommit; no-op when the store is not durable. */
    void syncJournals();

    /** Shared ownership of the current version of @p name: stays valid
     *  across later mutations and removes. @throws std::out_of_range. */
    std::shared_ptr<const StoredGraph> pin(std::string_view name) const;

    /** Current mutation epoch of @p name, straight off the dynamic
     *  state — never materializes a stale entry.
     *  @throws std::out_of_range. */
    std::uint64_t epochOf(std::string_view name) const;

    /**
     * Stream-apply a persisted mutation log (see
     * mutationLogPathFor / docs/service.md) to the graph named
     * @p name: batches are applied while parsing — memory stays
     * bounded by the largest batch — until the log ends or, when
     * @p target_epoch is set, until epochOf(name) reaches it. Replay
     * composes with snapshot restore: a `.tgs` saved at epoch E plus
     * the log of later batches replays to any recorded epoch > E
     * byte-identically (tests/dynamic/test_mutation_stream.cpp).
     *
     * @return Batches applied.
     * @throws std::out_of_range for an unknown name,
     *         dynamic::MutationError on a malformed or inapplicable
     *         log (already-applied batches leave their epochs
     *         published, like any other mutate sequence).
     */
    std::size_t replayLog(std::string_view name, std::istream &log,
                          std::optional<std::uint64_t> target_epoch =
                              std::nullopt);

    /** Drop @p name; returns false when it was not registered. The
     *  entry's graph memory is freed (unless pinned) — callers must
     *  not hold engines or cache entries over it across a remove. */
    bool remove(std::string_view name);

    /** Number of registered graphs. */
    std::size_t size() const { return entries_.size(); }

    /** Registered names in ascending order (deterministic stats). */
    std::vector<std::string> names() const;

    /** Total heap bytes of all stored CSR arrays. */
    std::size_t totalBytes() const;

  private:
    /** Lazily created mutable state behind an entry: the slack-arena
     *  graph plus its incrementally repaired virtual array. Epochs in
     *  here are relative to `base` (the entry's epoch when the state
     *  was created — nonzero for snapshot-restored entries). */
    struct DynamicState
    {
        dynamic::DynamicGraph graph;
        std::optional<dynamic::IncrementalVirtualizer> virtualizer;
        /** Mirrored In-side virtual array over the reverse arena,
         *  repaired in the same mutate() as `virtualizer` (from
         *  EpochDelta::touchedIn) so pull queries can be served with
         *  no dense reversed rebuild. */
        std::optional<dynamic::IncrementalVirtualizer>
            reverseVirtualizer;
        std::uint64_t base = 0;
        /** True when `graph` moved past the entry's dense StoredGraph:
         *  the lazy-materialization flag. Set by mutate() (which runs
         *  only between query batches), cleared by the double-checked
         *  materialization in find/at/pin — the release/acquire pair
         *  on this flag is what lets concurrent readers race on the
         *  first post-mutation read safely. */
        std::atomic<bool> staleDense{false};
    };

    /** One registry slot. shared_ptr pins each version: map
     *  rebalancing moves pointers, not the StoredGraph (whose Csr
     *  address clients capture), and the lazy materialization swaps
     *  `stored` without disturbing pinned readers. */
    struct Entry
    {
        /** Mutable: find/at/pin are logically const but may swap in
         *  the lazily materialized epoch. */
        mutable std::shared_ptr<StoredGraph> stored;
        std::shared_ptr<DynamicState> dynamic;
    };

    /** The entry for @p name. @throws std::out_of_range. */
    const Entry &entryAt(std::string_view name) const;

    /** Materialize the entry's current epoch if it is stale, and
     *  return the dense StoredGraph. */
    const std::shared_ptr<StoredGraph> &
    materialized(const Entry &entry) const;

    /** Write-ahead state, armed by openDurable(). */
    struct Durable
    {
        std::filesystem::path dir;
        DurableOptions options;
        std::map<std::string, JournalWriter, std::less<>> journals;
    };

    /** The journal for @p name, opened lazily (resume an existing
     *  file, or write the base snapshot + a fresh journal). */
    JournalWriter &ensureJournal(const std::string &name);

    /** Snapshot the current version of @p name to @p path
     *  (crash-consistently, through saveSnapshotFile): the dense CSR
     *  plus the live virtual array (see StoredGraph::virtualNodes). */
    void writeSnapshot(std::string_view name,
                       const std::filesystem::path &path);

    std::map<std::string, Entry, std::less<>> entries_;
    std::optional<Durable> durable_;
    /** Serializes lazy materialization (never held on the fast
     *  path). */
    mutable std::mutex materializeMutex_;
};

} // namespace tigr::service
