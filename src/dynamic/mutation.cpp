#include "dynamic/mutation.hpp"

#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <utility>

#include "dynamic/dynamic_graph.hpp"

namespace tigr::dynamic {

namespace {

/** splitmix64: the repo's standard bit mixer (fault.cpp uses the same
 *  constants). Used here as a counter-based PRNG so generated batches
 *  are bit-for-bit portable across standard libraries — unlike
 *  std::uniform_int_distribution, whose sequences are
 *  implementation-defined. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Counter-based stream: draw i of stream (seed, tag). */
std::uint64_t
draw(std::uint64_t seed, std::uint64_t tag, std::uint64_t i)
{
    return mix(mix(seed ^ 0x7469677264796e61ull) ^ mix(tag) ^ i);
}

/** Map a 64-bit draw into [0, bound) without modulo bias mattering for
 *  correctness (the multiply-shift reduction is uniform enough for
 *  test workloads and, unlike rejection sampling, consumes exactly one
 *  draw — keeping the stream position a pure function of i). */
std::uint64_t
bounded(std::uint64_t value, std::uint64_t bound)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(value) * bound) >> 64);
}

[[noreturn]] void
parseFail(std::size_t line_no, const std::string &why)
{
    throw MutationError(MutationErrorKind::Parse, line_no,
                        "tigr: mutation log line " +
                            std::to_string(line_no) + ": " + why);
}

} // namespace

std::string_view
mutationKindName(MutationKind kind)
{
    switch (kind) {
      case MutationKind::InsertEdge: return "insert";
      case MutationKind::DeleteEdge: return "delete";
      case MutationKind::UpdateWeight: return "reweight";
    }
    return "unknown";
}

std::string_view
mutationErrorKindName(MutationErrorKind kind)
{
    switch (kind) {
      case MutationErrorKind::SourceOutOfRange:
        return "source-out-of-range";
      case MutationErrorKind::TargetOutOfRange:
        return "target-out-of-range";
      case MutationErrorKind::MissingEdge: return "missing-edge";
      case MutationErrorKind::Parse: return "parse";
    }
    return "unknown";
}

namespace {

/**
 * The one generator implementation, over any edge source laid out as a
 * dense CSR: @p offsets are the row offsets (size n + 1, n > 0) and
 * @p target_at(src, slot) is the destination of dense slot @p slot,
 * which @p src owns.
 */
template <typename TargetAt>
MutationBatch
generateOver(std::span<const EdgeIndex> offsets, TargetAt target_at,
             const GeneratorSpec &spec)
{
    MutationBatch batch;
    const NodeId n = static_cast<NodeId>(offsets.size() - 1);
    const EdgeIndex m = offsets[n];
    const Weight max_weight = spec.maxWeight == 0 ? 1 : spec.maxWeight;
    // The suffix-dominated regime: a nonzero hotSpan restricts insert
    // sources to [0, hot) and delete/reweight samples to the edge
    // slots those vertices own. hotSpan == 0 leaves every stream
    // bit-identical to the historical uniform draw.
    const NodeId hot =
        spec.hotSpan == 0 ? n : std::min<NodeId>(spec.hotSpan, n);
    const EdgeIndex slot_bound =
        spec.hotSpan == 0 ? m : offsets[hot];

    // Deletes: sample distinct existing edge positions (so two deletes
    // never race for the same edge instance), in ascending order, then
    // map them to (src, dst) pairs. A Floyd-style distinct sample
    // would need a set; sorting a plain sample and deduplicating is
    // deterministic and just as portable.
    std::vector<EdgeIndex> delete_slots;
    if (spec.deletes > 0 && slot_bound > 0) {
        const std::size_t want =
            std::min<std::size_t>(spec.deletes, slot_bound);
        std::vector<EdgeIndex> sample;
        sample.reserve(want * 2);
        for (std::uint64_t i = 0; sample.size() < want; ++i) {
            const EdgeIndex slot =
                bounded(draw(spec.seed, 1, i), slot_bound);
            if (std::find(sample.begin(), sample.end(), slot) ==
                sample.end())
                sample.push_back(slot);
            // The stream is infinite and m >= want, so this always
            // terminates; bound the scan anyway for tiny graphs where
            // duplicates dominate.
            if (i > 64 * static_cast<std::uint64_t>(want) + 1024)
                break;
        }
        delete_slots = std::move(sample);
        std::sort(delete_slots.begin(), delete_slots.end());
    }

    // Resolve delete slots to pairs; remember the pairs so reweights
    // can avoid them (a reweight of a pair a delete also targets could
    // fail validation when the delete removes the last occurrence).
    std::vector<Mutation> deletes;
    deletes.reserve(delete_slots.size());
    std::vector<std::pair<NodeId, NodeId>> deleted_pairs;
    {
        NodeId src = 0;
        for (EdgeIndex slot : delete_slots) {
            while (offsets[src + 1] <= slot)
                ++src;
            Mutation mutation;
            mutation.kind = MutationKind::DeleteEdge;
            mutation.src = src;
            mutation.dst = target_at(src, slot);
            deletes.push_back(mutation);
            deleted_pairs.emplace_back(mutation.src, mutation.dst);
        }
    }
    std::sort(deleted_pairs.begin(), deleted_pairs.end());
    const auto is_deleted = [&](NodeId src, NodeId dst) {
        return std::binary_search(deleted_pairs.begin(),
                                  deleted_pairs.end(),
                                  std::make_pair(src, dst));
    };

    // Reweights: existing edges whose (src, dst) no delete targets.
    std::vector<Mutation> reweights;
    if (spec.reweights > 0 && slot_bound > 0) {
        for (std::uint64_t i = 0;
             reweights.size() < spec.reweights &&
             i < 64 * static_cast<std::uint64_t>(spec.reweights) + 1024;
             ++i) {
            const EdgeIndex slot =
                bounded(draw(spec.seed, 2, i), slot_bound);
            // Binary search the offset array for the owning node.
            const NodeId src = static_cast<NodeId>(
                std::upper_bound(offsets.begin(), offsets.end(), slot) -
                offsets.begin() - 1);
            const NodeId dst = target_at(src, slot);
            if (is_deleted(src, dst))
                continue;
            Mutation mutation;
            mutation.kind = MutationKind::UpdateWeight;
            mutation.src = src;
            mutation.dst = dst;
            mutation.weight = static_cast<Weight>(
                1 + bounded(draw(spec.seed, 3, i), max_weight));
            reweights.push_back(mutation);
        }
    }

    // Inserts: uniform (src, dst) pairs; self-loops and duplicates are
    // legal edges in this repo, so no rejection is needed.
    std::vector<Mutation> inserts;
    inserts.reserve(spec.inserts);
    for (std::uint64_t i = 0; i < spec.inserts; ++i) {
        Mutation mutation;
        mutation.kind = MutationKind::InsertEdge;
        mutation.src =
            static_cast<NodeId>(bounded(draw(spec.seed, 4, i), hot));
        mutation.dst =
            static_cast<NodeId>(bounded(draw(spec.seed, 5, i), n));
        mutation.weight = static_cast<Weight>(
            1 + bounded(draw(spec.seed, 6, i), max_weight));
        inserts.push_back(mutation);
    }

    batch.reserve(inserts.size() + deletes.size() + reweights.size());
    batch.insert(batch.end(), inserts.begin(), inserts.end());
    batch.insert(batch.end(), deletes.begin(), deletes.end());
    batch.insert(batch.end(), reweights.begin(), reweights.end());

    // Seeded Fisher-Yates interleave so a batch exercises mixed apply
    // paths rather than sorted kind runs. Deletes of the same (src,
    // dst) pair commute ("first occurrence" is first occurrence either
    // way), so shuffling never invalidates the batch.
    for (std::size_t i = batch.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(
            bounded(draw(spec.seed, 7, i), i));
        std::swap(batch[i - 1], batch[j]);
    }
    return batch;
}

} // namespace

MutationBatch
generateBatch(const graph::Csr &graph, const GeneratorSpec &spec)
{
    if (graph.numNodes() == 0)
        return {};
    return generateOver(
        graph.rowOffsets(),
        [&](NodeId, EdgeIndex slot) { return graph.edgeTarget(slot); },
        spec);
}

MutationBatch
generateBatch(const DynamicGraph &graph, const GeneratorSpec &spec)
{
    const NodeId n = graph.numNodes();
    if (n == 0)
        return {};
    // Dense slot positions are a prefix sum of the live degrees: O(n)
    // integers, no edge copy. Dense slot `slot` of `src` lives at the
    // same offset inside src's arena segment.
    std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
    for (NodeId v = 0; v < n; ++v)
        offsets[v + 1] = offsets[v] + graph.degree(v);
    return generateOver(
        offsets,
        [&](NodeId src, EdgeIndex slot) {
            return graph.outNeighbors(src)[slot - offsets[src]];
        },
        spec);
}

void
MutationLog::append(MutationBatch batch)
{
    batches_.push_back(std::move(batch));
}

std::size_t
MutationLog::totalMutations() const
{
    std::size_t total = 0;
    for (const MutationBatch &batch : batches_)
        total += batch.size();
    return total;
}

void
MutationLog::save(std::ostream &out) const
{
    for (std::size_t b = 0; b < batches_.size(); ++b) {
        out << "batch " << b << ' ' << batches_[b].size() << '\n';
        for (const Mutation &m : batches_[b]) {
            switch (m.kind) {
              case MutationKind::InsertEdge:
                out << "+ " << m.src << ' ' << m.dst << ' ' << m.weight
                    << '\n';
                break;
              case MutationKind::DeleteEdge:
                out << "- " << m.src << ' ' << m.dst << '\n';
                break;
              case MutationKind::UpdateWeight:
                out << "= " << m.src << ' ' << m.dst << ' ' << m.weight
                    << '\n';
                break;
            }
        }
    }
}

MutationLog
MutationLog::load(std::istream &in)
{
    MutationLog log;
    MutationLogReader reader(in);
    while (std::optional<MutationBatch> batch = reader.next())
        log.append(std::move(*batch));
    return log;
}

std::optional<MutationBatch>
MutationLogReader::next()
{
    std::string line;
    std::string head;
    // Tokenize one line: comment-stripped head + field stream. Returns
    // false for blank/comment-only lines (skip), true otherwise.
    std::istringstream fields;
    const auto tokenize = [&]() {
        ++lineNo_;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        fields.clear();
        fields.str(line);
        return static_cast<bool>(fields >> head);
    };
    const auto want_trailing_clean = [&]() {
        std::string extra;
        if (fields >> extra)
            parseFail(lineNo_,
                      "unexpected trailing '" + extra + "'");
    };
    // Parse the header on `line` (head == "batch" already seen).
    const auto take_header = [&]() {
        std::size_t index = 0;
        if (!(fields >> index >> pendingDeclared_))
            parseFail(lineNo_, "batch needs: batch INDEX COUNT");
        want_trailing_clean();
        if (index != started_)
            parseFail(lineNo_,
                      "batch index " + std::to_string(index) +
                          " out of order (expected " +
                          std::to_string(started_) + ")");
        haveHeader_ = true;
        ++started_;
    };

    if (!haveHeader_) {
        // Scan to the first batch header (or a clean end of stream).
        for (;;) {
            if (!std::getline(*in_, line))
                return std::nullopt;
            if (!tokenize())
                continue;
            if (head == "batch") {
                take_header();
                break;
            }
            if (head != "+" && head != "-" && head != "=")
                parseFail(lineNo_, "unknown record '" + head + "'");
            parseFail(lineNo_, "mutation before any batch header");
        }
    }

    MutationBatch batch;
    const std::size_t declared = pendingDeclared_;
    const auto check_count = [&](const char *which) {
        if (batch.size() != declared)
            parseFail(lineNo_,
                      std::string(which) + " batch declared " +
                          std::to_string(declared) +
                          " mutations, recorded " +
                          std::to_string(batch.size()));
    };
    while (std::getline(*in_, line)) {
        if (!tokenize())
            continue;
        if (head == "batch") {
            // The next header closes this batch; keep it pending so
            // the following next() call starts from it.
            check_count("previous");
            take_header();
            return batch;
        }
        if (head != "+" && head != "-" && head != "=")
            parseFail(lineNo_, "unknown record '" + head + "'");
        Mutation mutation;
        // A negative id must not wrap into a huge unsigned; stream
        // extraction into unsigned already rejects '-', and anything
        // non-numeric fails the stream.
        if (head == "+") {
            mutation.kind = MutationKind::InsertEdge;
            if (!(fields >> mutation.src >> mutation.dst >>
                  mutation.weight))
                parseFail(lineNo_, "insert needs: + SRC DST WEIGHT");
        } else if (head == "-") {
            mutation.kind = MutationKind::DeleteEdge;
            if (!(fields >> mutation.src >> mutation.dst))
                parseFail(lineNo_, "delete needs: - SRC DST");
        } else {
            mutation.kind = MutationKind::UpdateWeight;
            if (!(fields >> mutation.src >> mutation.dst >>
                  mutation.weight))
                parseFail(lineNo_,
                          "reweight needs: = SRC DST WEIGHT");
        }
        want_trailing_clean();
        batch.push_back(mutation);
    }
    check_count("final");
    haveHeader_ = false;
    return batch;
}

MutationLog
compactLog(const MutationLog &log)
{
    MutationLog compacted;
    for (const MutationBatch &batch : log.batches()) {
        std::vector<bool> dead(batch.size(), false);
        // Last not-yet-superseded reweight per (src, dst) pair.
        std::map<std::pair<NodeId, NodeId>, std::size_t> pending;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mutation &m = batch[i];
            const auto pair = std::make_pair(m.src, m.dst);
            switch (m.kind) {
              case MutationKind::UpdateWeight: {
                // Supersedes any pending reweight of the pair: both
                // write the pair's first occurrence, and nothing
                // between them can retarget it (inserts only append;
                // a delete would have cleared the pending slot).
                const auto it = pending.find(pair);
                if (it != pending.end())
                    dead[it->second] = true;
                pending[pair] = i;
                break;
              }
              case MutationKind::DeleteEdge: {
                // Removes the occurrence the pending reweight wrote.
                const auto it = pending.find(pair);
                if (it != pending.end()) {
                    dead[it->second] = true;
                    pending.erase(it);
                }
                break;
              }
              case MutationKind::InsertEdge:
                // Appends a new occurrence; never changes which edge
                // is "first (src, dst)", so pending reweights stand.
                break;
            }
        }
        MutationBatch kept;
        kept.reserve(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            if (!dead[i])
                kept.push_back(batch[i]);
        compacted.append(std::move(kept));
    }
    return compacted;
}

} // namespace tigr::dynamic
