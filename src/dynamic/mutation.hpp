/**
 * @file
 * Streaming graph mutations: the typed edge-mutation vocabulary, the
 * deterministic seeded batch generator, and the replayable MutationLog
 * behind the dynamic-graph subsystem (docs/dynamic.md).
 *
 * A mutation batch is the unit of change: the DynamicGraph applies one
 * batch per epoch, and everything downstream (incremental virtual
 * repair, store versioning, cache invalidation) is keyed by the epoch
 * the batch produced. Batches are plain vectors so tests and tools can
 * construct them directly; generateBatch() produces seeded batches
 * that are a pure function of (graph, spec) — the differential tests
 * lean on that to replay identical mutation streams at 1/2/8 workers.
 */
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "graph/csr.hpp"
#include "graph/types.hpp"

namespace tigr::dynamic {

/** What one mutation does to the edge set. */
enum class MutationKind : std::uint8_t
{
    InsertEdge,   ///< Append (src, dst, weight) to src's edge list.
    DeleteEdge,   ///< Remove the first (src, dst) occurrence.
    UpdateWeight, ///< Reweight the first (src, dst) occurrence.
};

/** Display name ("insert", "delete", "reweight"). */
std::string_view mutationKindName(MutationKind kind);

/** One edge mutation. The node set is fixed: mutations change edges,
 *  never add or remove vertices (the store's entry geometry — and the
 *  engines' value arrays — stay n-sized across epochs). */
struct Mutation
{
    MutationKind kind = MutationKind::InsertEdge;
    NodeId src = 0;
    NodeId dst = 0;
    /** New weight for InsertEdge / UpdateWeight; ignored by delete. */
    Weight weight = 1;

    friend bool operator==(const Mutation &, const Mutation &) = default;
};

/** One epoch's worth of mutations, applied in order. */
using MutationBatch = std::vector<Mutation>;

/** Why a batch was rejected. */
enum class MutationErrorKind
{
    SourceOutOfRange, ///< src >= numNodes.
    TargetOutOfRange, ///< dst >= numNodes.
    MissingEdge,      ///< Delete/reweight of a nonexistent (src, dst).
    Parse,            ///< Malformed mutation-log text.
};

/** Display name ("source-out-of-range", "missing-edge", ...). */
std::string_view mutationErrorKindName(MutationErrorKind kind);

/** Typed batch-validation failure. Validation happens before any state
 *  is touched, so a thrown MutationError always leaves the graph
 *  exactly as it was (see DynamicGraph::apply). */
class MutationError : public std::runtime_error
{
  public:
    MutationError(MutationErrorKind kind, std::size_t index,
                  const std::string &message)
        : std::runtime_error(message), kind_(kind), index_(index)
    {
    }

    MutationErrorKind kind() const { return kind_; }

    /** Batch position of the offending mutation (line number for
     *  Parse errors). */
    std::size_t index() const { return index_; }

  private:
    MutationErrorKind kind_;
    std::size_t index_;
};

/** Shape of a seeded batch. */
struct GeneratorSpec
{
    std::uint64_t seed = 1;
    std::size_t inserts = 0;
    std::size_t deletes = 0;
    std::size_t reweights = 0;
    /** Generated weights are uniform in [1, maxWeight]. */
    Weight maxWeight = 64;
    /** When nonzero, concentrate every edit on vertices with id <
     *  hotSpan: inserts draw their source there, deletes/reweights
     *  sample only edges those vertices own. This is the
     *  suffix-dominated regime: a full rebuild still pays for every
     *  vertex, while arena repair stays O(touched)
     *  (bench/mutation_throughput). 0 = uniform over all vertices. */
    NodeId hotSpan = 0;
};

/**
 * Deterministically generate a valid mutation batch against @p graph:
 * inserts draw uniform (src, dst) pairs, deletes sample distinct
 * existing edges, reweights sample existing edges whose (src, dst)
 * pair no delete in the same batch targets — so the batch always
 * passes typed validation. The result is a pure function of
 * (graph, spec): same seed, same graph, same batch, bit for bit. The
 * three kinds are interleaved by a seeded shuffle, so a batch
 * exercises mixed apply paths rather than sorted runs.
 *
 * On a graph with fewer edges than requested deletes the batch holds
 * as many as could be sampled (deterministically), never an invalid
 * mutation.
 */
MutationBatch generateBatch(const graph::Csr &graph,
                            const GeneratorSpec &spec);

class DynamicGraph;

/**
 * The same generator read straight off a live slack arena: dense slot
 * positions come from a prefix sum of the live degrees (O(n) integers,
 * no edge copy), so the batch is byte-identical to
 * generateBatch(graph.toCsr(), spec) without materializing it.
 */
MutationBatch generateBatch(const DynamicGraph &graph,
                            const GeneratorSpec &spec);

/**
 * An ordered record of mutation batches with a text round-trip, so a
 * mutation stream can be captured once (tigr mutate --log) and
 * replayed elsewhere byte-identically (tigr mutate --apply).
 *
 * Format: `batch <index> <count>` introduces each batch, followed by
 * one line per mutation — `+ src dst weight`, `- src dst`,
 * `= src dst weight`. '#' starts a comment.
 */
class MutationLog
{
  public:
    /** Append one batch (empty batches are recorded too: an epoch with
     *  no changes is still an epoch). */
    void append(MutationBatch batch);

    const std::vector<MutationBatch> &batches() const
    {
        return batches_;
    }

    std::size_t size() const { return batches_.size(); }

    /** Total mutations across all batches. */
    std::size_t totalMutations() const;

    /** Write the canonical text form. */
    void save(std::ostream &out) const;

    /** Parse the text form (whole-log convenience over
     *  MutationLogReader). @throws MutationError (Parse) naming the
     *  offending line. */
    static MutationLog load(std::istream &in);

  private:
    std::vector<MutationBatch> batches_;
};

/**
 * Streaming parser over the MutationLog text form: yields one batch at
 * a time so a long-lived mutation stream can be applied while parsing
 * — memory stays bounded by the largest single batch, never the log.
 * Parsing rules, typed Parse errors, and line numbering are exactly
 * MutationLog::load's (which is now implemented over this reader).
 */
class MutationLogReader
{
  public:
    explicit MutationLogReader(std::istream &in) : in_(&in) {}

    /**
     * Parse and return the next batch, or std::nullopt at a clean end
     * of stream. @throws MutationError (Parse) naming the offending
     * line.
     */
    std::optional<MutationBatch> next();

    /** Batches returned so far. */
    std::size_t batchesRead() const { return started_; }

  private:
    std::istream *in_;
    std::size_t lineNo_ = 0;
    /** Batch headers consumed so far (= index expected next). */
    std::size_t started_ = 0;
    /** A `batch` header has been consumed whose batch has not been
     *  returned yet; pendingDeclared_ is its declared count. */
    bool haveHeader_ = false;
    std::size_t pendingDeclared_ = 0;
};

/**
 * Drop mutations whose effect cannot survive to the end of their own
 * batch, preserving batch boundaries (epoch numbering) and the exact
 * graph state after every batch.
 *
 * Only the provably state-independent rewrite is applied: a reweight
 * is dead when a later same-batch mutation of the same (src, dst) pair
 * supersedes it — another reweight (both write the pair's first
 * occurrence, and nothing between them can change which edge that is:
 * inserts only append, and an intervening delete of the pair clears
 * the pending reweight) or a delete (which removes the occurrence the
 * reweight wrote). Insert/delete elimination is deliberately *not*
 * attempted: a delete removes the pair's first occurrence while an
 * insert appends a new one, so whether they cancel depends on how many
 * occurrences the graph already holds — unknowable from the log alone.
 *
 * Replaying the compacted log therefore reaches a byte-identical
 * DynamicGraph state at every epoch (proved by
 * tests/dynamic/test_mutation_stream.cpp).
 */
MutationLog compactLog(const MutationLog &log);

} // namespace tigr::dynamic
