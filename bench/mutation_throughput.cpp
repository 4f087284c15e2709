/**
 * @file
 * Dynamic-graph maintenance benchmark: the mutation hot path, measured
 * and gated four ways (docs/dynamic.md).
 *
 *   1. Uniform regime — dense-addressed incremental repair
 *      (IncrementalVirtualizer::applyDelta) versus a from-scratch
 *      VirtualGraph retransform after each batch, across K in
 *      {2, 8, 32} and both edge layouts. Gate: >= 5x at <= 1% of the
 *      edge set mutated per epoch.
 *   2. Suffix-dominated regime — every edit lands on low vertex ids
 *      (GeneratorSpec::hotSpan), so a dense-addressed repair must
 *      shift (nearly) the whole start suffix while the arena-addressed
 *      repair touches only the mutated families. Batches are <= 0.1%
 *      of the edge set. Gate: arena repair >= 20x the full rebuild;
 *      the old (dense) and new (arena) repair cost per batch is
 *      reported side by side.
 *   3. O(touched) gate — the same explicit insert/delete batches (all
 *      ids < 64) applied to structurally identical graphs of size n
 *      and 4n must produce identical RepairStats counters: work
 *      tracked by the repair is a function of the touched set, never
 *      the graph size. Counter equality is deterministic — no timer
 *      noise can flip it.
 *   4. Parallel rebase — the one residual whole-array sweep left
 *      (after DynamicGraph::compact or entry-arena compaction), timed
 *      at 1 thread versus --threads (default 8). Gate: >= 2x, asserted
 *      only when the hardware has >= 4 threads (reported either way).
 *   5. Pull after mutate — time-to-pull-ready on the suffix-dominated
 *      stream: repairing BOTH maintained arena arrays (forward +
 *      reverse) versus what the dense pull path must do instead
 *      (materialize the dense CSR, reverse it, re-split it). Every
 *      round also runs SSSP pull through both paths — GraphEngine over
 *      the live arenas against GraphEngine over the dense rebuild —
 *      and any value divergence fails the gate, so the speedup is
 *      never bought with drift. Gate: arena >= 10x.
 *
 * Every timed round also runs the differential check, so no speedup is
 * ever bought with drift. Exits 1 when any asserted gate misses.
 * Scales with $TIGR_BENCH_SCALE like every other bench binary.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/incremental_virtualizer.hpp"
#include "dynamic/mutation.hpp"
#include "engine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "par/parse_int.hpp"
#include "par/thread_pool.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr {
namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

graph::Csr
benchGraph()
{
    const auto nodes =
        static_cast<NodeId>(double(1u << 15) * bench::benchScale());
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 32;
    options.weightSeed = 19;
    return graph::GraphBuilder(options).build(graph::rmat(
        {.nodes = nodes, .edges = EdgeIndex{nodes} * 16, .seed = 19}));
}

const char *
layoutName(transform::EdgeLayout layout)
{
    return layout == transform::EdgeLayout::Coalesced ? "coalesced"
                                                      : "consecutive";
}

// ---------------------------------------------------------------- 1.

struct RowResult
{
    std::vector<double> incrementalMs;
    std::vector<double> rebuildMs;
    bool diverged = false;
    std::size_t mutationsPerRound = 0;
};

/** Run @p rounds uniform mutation epochs at (K, layout), timing
 *  dense-addressed incremental repair against a full retransform of
 *  the same post-batch graph. */
RowResult
runUniformRow(const graph::Csr &start, NodeId k,
              transform::EdgeLayout layout, std::size_t rounds)
{
    dynamic::DynamicGraph dg(start);
    dynamic::IncrementalVirtualizer virt(dg, k, layout);
    RowResult row;

    // <= 1% of the edge set per epoch: 0.125% inserts+deletes+reweights
    // split evenly, the streaming-batch regime the subsystem targets.
    const std::size_t budget = std::max<std::size_t>(
        30, static_cast<std::size_t>(start.numEdges()) / 800);
    dynamic::GeneratorSpec spec;
    spec.inserts = budget / 3;
    spec.deletes = budget / 3;
    spec.reweights = budget / 3;
    row.mutationsPerRound = spec.inserts + spec.deletes + spec.reweights;

    for (std::size_t round = 0; round < rounds; ++round) {
        spec.seed = 1000 + round;
        const dynamic::MutationBatch batch =
            dynamic::generateBatch(dg.toCsr(), spec);
        const dynamic::EpochDelta delta = dg.apply(batch);

        const Clock::time_point repair_start = Clock::now();
        virt.applyDelta(delta);
        row.incrementalMs.push_back(msSince(repair_start));

        // The full retransform pays for both steps the incremental
        // path skips: materializing the dense CSR and re-splitting
        // every family.
        const Clock::time_point rebuild_start = Clock::now();
        const graph::Csr dense = dg.toCsr();
        const transform::VirtualGraph rebuilt(dense, k, layout);
        row.rebuildMs.push_back(msSince(rebuild_start));

        if (rebuilt.virtualNodes().size() != virt.virtualNodes().size())
            row.diverged = true;
        if (const std::optional<std::string> divergence =
                dynamic::differentialCheck(dg, virt)) {
            std::cerr << "DIVERGED at round " << round << ": "
                      << *divergence << '\n';
            row.diverged = true;
        }
        if (dg.shouldCompact())
            dg.compact();
    }
    return row;
}

bool
uniformSection(const graph::Csr &start, std::size_t rounds)
{
    const double required_speedup = 5.0;
    std::cout << "[1] uniform regime: dense-addressed repair vs full "
                 "retransform (<= 1% edges/batch)\n\n";
    bench::TablePrinter table({"K", "layout", "mut/round", "repair ms",
                               "rebuild ms", "speedup", "verdict"});
    bool pass = true;
    for (const NodeId k : {NodeId{2}, NodeId{8}, NodeId{32}}) {
        for (const transform::EdgeLayout layout :
             {transform::EdgeLayout::Consecutive,
              transform::EdgeLayout::Coalesced}) {
            // Three identical trials, per-round minimum per path: the
            // mutation stream is deterministic, so trials differ only
            // by machine noise, which is additive and must not decide
            // the asserted verdict either way.
            const RowResult trials[] = {
                runUniformRow(start, k, layout, rounds),
                runUniformRow(start, k, layout, rounds),
                runUniformRow(start, k, layout, rounds)};
            double repair_ms = 0.0;
            double rebuild_ms = 0.0;
            bool diverged = false;
            for (std::size_t r = 0; r < rounds; ++r) {
                double best_repair = trials[0].incrementalMs[r];
                double best_rebuild = trials[0].rebuildMs[r];
                for (const RowResult &t : trials) {
                    best_repair =
                        std::min(best_repair, t.incrementalMs[r]);
                    best_rebuild =
                        std::min(best_rebuild, t.rebuildMs[r]);
                }
                repair_ms += best_repair;
                rebuild_ms += best_rebuild;
            }
            for (const RowResult &t : trials)
                diverged = diverged || t.diverged;
            const double speedup = repair_ms > 0.0
                                       ? rebuild_ms / repair_ms
                                       : required_speedup;
            const bool ok = !diverged && speedup >= required_speedup;
            pass = pass && ok;
            table.addRow(
                {std::to_string(k), layoutName(layout),
                 std::to_string(trials[0].mutationsPerRound),
                 bench::fmt(repair_ms), bench::fmt(rebuild_ms),
                 bench::fmt(speedup, 1),
                 diverged ? "DIVERGED" : (ok ? "pass" : "FAIL")});
        }
    }
    table.print(std::cout);
    std::cout << "\n";
    return pass;
}

// ---------------------------------------------------------------- 2.

struct SuffixRow
{
    std::vector<double> denseMs;
    std::vector<double> arenaMs;
    std::vector<double> rebuildMs;
    bool diverged = false;
    std::size_t mutationsPerRound = 0;
};

/** Run @p rounds suffix-dominated epochs at (K, layout): every edit
 *  lands on vertex ids < hotSpan, the worst case for dense-addressed
 *  starts (whole-suffix shift) and the best case for arena addressing
 *  (only the touched families move). Dense and arena virtualizers
 *  consume the same deltas over the same graph. */
SuffixRow
runSuffixRow(const graph::Csr &start, NodeId k,
             transform::EdgeLayout layout, std::size_t rounds)
{
    dynamic::DynamicGraph dg(start);
    dynamic::IncrementalVirtualizer dense_virt(dg, k, layout);
    dynamic::IncrementalVirtualizer arena_virt(
        dg, k, layout, dynamic::StartAddressing::Arena);
    SuffixRow row;

    // <= 0.1% of the edge set per epoch, all of it on the first 64
    // vertex ids: the suffix-dominated streaming regime.
    const std::size_t budget = std::max<std::size_t>(
        30, static_cast<std::size_t>(start.numEdges()) / 1000);
    dynamic::GeneratorSpec spec;
    spec.inserts = budget / 3;
    spec.deletes = budget / 3;
    spec.reweights = budget / 3;
    spec.hotSpan = 64;
    row.mutationsPerRound = spec.inserts + spec.deletes + spec.reweights;

    for (std::size_t round = 0; round < rounds; ++round) {
        spec.seed = 7000 + round;
        const dynamic::MutationBatch batch =
            dynamic::generateBatch(dg.toCsr(), spec);
        const dynamic::EpochDelta delta = dg.apply(batch);

        const Clock::time_point dense_start = Clock::now();
        dense_virt.applyDelta(delta);
        row.denseMs.push_back(msSince(dense_start));

        const Clock::time_point arena_start = Clock::now();
        arena_virt.applyDelta(delta);
        row.arenaMs.push_back(msSince(arena_start));

        const Clock::time_point rebuild_start = Clock::now();
        const graph::Csr dense = dg.toCsr();
        const transform::VirtualGraph rebuilt(dense, k, layout);
        row.rebuildMs.push_back(msSince(rebuild_start));

        if (rebuilt.virtualNodes().size() != arena_virt.numEntries())
            row.diverged = true;
        if (const std::optional<std::string> divergence =
                dynamic::differentialCheck(dg, arena_virt)) {
            std::cerr << "ARENA DIVERGED at round " << round << ": "
                      << *divergence << '\n';
            row.diverged = true;
        }
        if (dg.shouldCompact()) {
            dg.compact();
            arena_virt.rebase();
        } else if (arena_virt.shouldCompactEntries()) {
            arena_virt.rebase();
        }
    }
    return row;
}

bool
suffixSection(const graph::Csr &start, std::size_t rounds)
{
    const double required_speedup = 20.0;
    std::cout << "[2] suffix-dominated regime: edits on vertex ids "
                 "< 64 (<= 0.1% edges/batch); old (dense) vs new "
                 "(arena) repair cost per batch\n\n";
    bench::TablePrinter table({"K", "layout", "mut/round", "dense ms",
                               "arena ms", "rebuild ms", "arena-vs-"
                               "rebuild", "verdict"});
    bool pass = true;
    for (const NodeId k : {NodeId{2}, NodeId{8}, NodeId{32}}) {
        for (const transform::EdgeLayout layout :
             {transform::EdgeLayout::Consecutive,
              transform::EdgeLayout::Coalesced}) {
            const SuffixRow trials[] = {
                runSuffixRow(start, k, layout, rounds),
                runSuffixRow(start, k, layout, rounds),
                runSuffixRow(start, k, layout, rounds)};
            double dense_ms = 0.0;
            double arena_ms = 0.0;
            double rebuild_ms = 0.0;
            bool diverged = false;
            for (std::size_t r = 0; r < rounds; ++r) {
                double best_dense = trials[0].denseMs[r];
                double best_arena = trials[0].arenaMs[r];
                double best_rebuild = trials[0].rebuildMs[r];
                for (const SuffixRow &t : trials) {
                    best_dense = std::min(best_dense, t.denseMs[r]);
                    best_arena = std::min(best_arena, t.arenaMs[r]);
                    best_rebuild =
                        std::min(best_rebuild, t.rebuildMs[r]);
                }
                dense_ms += best_dense;
                arena_ms += best_arena;
                rebuild_ms += best_rebuild;
            }
            for (const SuffixRow &t : trials)
                diverged = diverged || t.diverged;
            const double speedup = arena_ms > 0.0
                                       ? rebuild_ms / arena_ms
                                       : required_speedup;
            const bool ok = !diverged && speedup >= required_speedup;
            pass = pass && ok;
            table.addRow(
                {std::to_string(k), layoutName(layout),
                 std::to_string(trials[0].mutationsPerRound),
                 bench::fmt(dense_ms), bench::fmt(arena_ms),
                 bench::fmt(rebuild_ms), bench::fmt(speedup, 1),
                 diverged ? "DIVERGED" : (ok ? "pass" : "FAIL")});
        }
    }
    table.print(std::cout);
    std::cout << "\nverdict: arena repair "
              << (pass ? "is" : "IS NOT") << " >= "
              << bench::fmt(required_speedup, 0)
              << "x faster than a full rebuild on suffix-dominated "
                 "batches\n\n";
    return pass;
}

// ---------------------------------------------------------------- 3.

/** A ring-like graph whose low vertex ids have identical local
 *  structure at any size: every vertex owns exactly 8 edges to
 *  deterministic targets < 64 when the vertex id is < 64. */
graph::Csr
touchedGateGraph(NodeId nodes)
{
    graph::CooEdges coo(nodes);
    coo.reserve(static_cast<std::size_t>(nodes) * 8);
    for (NodeId v = 0; v < nodes; ++v)
        for (NodeId j = 0; j < 8; ++j) {
            // Vertices < 64 point only at vertices < 64, so the same
            // explicit batch is valid — and hits structurally
            // identical rows — at every graph size.
            const NodeId span = v < 64 ? 64 : nodes;
            const NodeId dst =
                (v + 1 + j * 7 + (v % 5)) % span;
            coo.add(v, dst == v ? (dst + 1) % span : dst,
                    1 + ((v + j) % 31));
        }
    return graph::Csr::fromCoo(coo);
}

/** Apply two explicit batches (inserts, then deletes; all ids < 64) to
 *  a fresh arena virtualizer over @p g and return the per-batch
 *  stats. */
std::vector<dynamic::RepairStats>
runTouchedGate(const graph::Csr &g, NodeId k,
               transform::EdgeLayout layout)
{
    dynamic::DynamicGraph dg(g);
    dynamic::IncrementalVirtualizer virt(
        dg, k, layout, dynamic::StartAddressing::Arena);
    std::vector<dynamic::RepairStats> stats;

    dynamic::MutationBatch inserts;
    for (std::size_t i = 0; i < 96; ++i)
        inserts.push_back({dynamic::MutationKind::InsertEdge,
                           static_cast<NodeId>(i % 64),
                           static_cast<NodeId>((i * 5 + 1) % 64),
                           static_cast<Weight>(1 + i % 16)});
    stats.push_back(virt.applyDelta(dg.apply(inserts)));

    dynamic::MutationBatch deletes;
    for (std::size_t i = 0; i < 48; ++i)
        deletes.push_back({dynamic::MutationKind::DeleteEdge,
                           static_cast<NodeId>(i % 64),
                           static_cast<NodeId>((i * 5 + 1) % 64), 0});
    stats.push_back(virt.applyDelta(dg.apply(deletes)));

    if (const auto divergence = dynamic::differentialCheck(dg, virt)) {
        std::cerr << "TOUCHED-GATE DIVERGED: " << *divergence << '\n';
        stats.clear(); // poison: caller fails the gate
    }
    return stats;
}

bool
touchedSection()
{
    std::cout << "[3] O(touched) gate: identical batches (ids < 64) on "
                 "n and 4n graphs must repair with identical "
                 "counters\n\n";
    const NodeId small_n = 1u << 12;
    const graph::Csr small = touchedGateGraph(small_n);
    const graph::Csr big = touchedGateGraph(small_n * 4);

    bench::TablePrinter table({"K", "layout", "batch", "repaired",
                               "resplit", "relocated", "shifted",
                               "verdict"});
    bool pass = true;
    for (const NodeId k : {NodeId{2}, NodeId{8}, NodeId{32}}) {
        for (const transform::EdgeLayout layout :
             {transform::EdgeLayout::Consecutive,
              transform::EdgeLayout::Coalesced}) {
            const auto small_stats = runTouchedGate(small, k, layout);
            const auto big_stats = runTouchedGate(big, k, layout);
            const bool ran = !small_stats.empty() &&
                             small_stats.size() == big_stats.size();
            pass = pass && ran;
            for (std::size_t b = 0; ran && b < small_stats.size();
                 ++b) {
                const dynamic::RepairStats &s = small_stats[b];
                const dynamic::RepairStats &l = big_stats[b];
                const bool equal =
                    s.repairedVertices == l.repairedVertices &&
                    s.resplitFamilies == l.resplitFamilies &&
                    s.relocatedFamilies == l.relocatedFamilies &&
                    s.shiftedEntries == l.shiftedEntries;
                // Arena addressing never shifts untouched entries.
                const bool ok = equal && s.shiftedEntries == 0;
                pass = pass && ok;
                table.addRow({std::to_string(k), layoutName(layout),
                              b == 0 ? "insert" : "delete",
                              std::to_string(s.repairedVertices),
                              std::to_string(s.resplitFamilies),
                              std::to_string(s.relocatedFamilies),
                              std::to_string(s.shiftedEntries),
                              ok ? "pass" : "FAIL"});
            }
        }
    }
    table.print(std::cout);
    std::cout << "\nverdict: repair work "
              << (pass ? "is" : "IS NOT")
              << " a function of the touched set alone\n\n";
    return pass;
}

// ---------------------------------------------------------------- 4.

bool
threadsSection(const graph::Csr &start, unsigned max_threads)
{
    std::cout << "[4] parallel rebase: the residual whole-array sweep "
                 "at 1 vs " << max_threads << " threads\n\n";

    dynamic::DynamicGraph dg(start);
    dynamic::IncrementalVirtualizer virt(
        dg, 8, transform::EdgeLayout::Coalesced,
        dynamic::StartAddressing::Arena);
    // A few suffix-dominated batches first, so the rebase sweeps a
    // mutated arena rather than the pristine build.
    dynamic::GeneratorSpec spec;
    spec.inserts = 64;
    spec.deletes = 32;
    spec.hotSpan = 64;
    for (std::size_t round = 0; round < 3; ++round) {
        spec.seed = 9000 + round;
        virt.applyDelta(
            dg.apply(dynamic::generateBatch(dg.toCsr(), spec)));
    }

    const auto time_rebase = [&](par::ThreadPool *pool) {
        double best = -1.0;
        for (int trial = 0; trial < 10; ++trial) {
            const Clock::time_point t0 = Clock::now();
            virt.rebase(pool);
            const double ms = msSince(t0);
            if (best < 0.0 || ms < best)
                best = ms;
        }
        return best;
    };

    const double serial_ms = time_rebase(nullptr);
    par::ThreadPool pool(max_threads);
    const double parallel_ms = time_rebase(&pool);
    const double speedup =
        parallel_ms > 0.0 ? serial_ms / parallel_ms : 1.0;

    const unsigned hw = std::thread::hardware_concurrency();
    const bool assert_gate = hw >= 4;
    const bool ok = !assert_gate || speedup >= 2.0;

    bench::TablePrinter table({"threads", "rebase ms", "speedup",
                               "verdict"});
    table.addRow({"1", bench::fmt(serial_ms), "1.0", "-"});
    table.addRow({std::to_string(max_threads),
                  bench::fmt(parallel_ms), bench::fmt(speedup, 1),
                  assert_gate
                      ? (ok ? "pass" : "FAIL")
                      : "skipped (needs >= 4 hardware threads)"});
    table.print(std::cout);
    std::cout << "\nverdict: " << max_threads << "-thread rebase "
              << (assert_gate
                      ? (ok ? "is >= 2x the serial sweep"
                            : "IS NOT >= 2x the serial sweep")
                      : "gate skipped on this hardware (" +
                            std::to_string(hw) + " threads)")
              << "\n";
    return ok;
}

// ---------------------------------------------------------------- 5.

struct PullRow
{
    std::vector<double> arenaMs;
    std::vector<double> rebuildMs;
    bool diverged = false;
    std::size_t mutationsPerRound = 0;
};

/** Run @p rounds suffix-dominated epochs with maintained forward AND
 *  reverse arena virtualizers (K=8, coalesced — the TigrV+ geometry),
 *  timing time-to-pull-ready on both paths: the arena path repairs the
 *  two maintained arrays; the dense path materializes the dense CSR,
 *  reverses it, and re-splits it. Every round then runs SSSP pull
 *  through GraphEngine over the reverse arena and over the dense rebuild
 *  and compares the values element for element. */
PullRow
runPullRow(const graph::Csr &start, std::size_t rounds)
{
    const NodeId k = 8;
    const transform::EdgeLayout layout =
        transform::EdgeLayout::Coalesced;
    dynamic::DynamicGraph dg(start);
    dynamic::IncrementalVirtualizer forward(
        dg, k, layout, dynamic::StartAddressing::Arena);
    dynamic::IncrementalVirtualizer reverse(
        dg, k, layout, dynamic::StartAddressing::Arena, nullptr,
        dynamic::GraphSide::In);
    PullRow row;

    const std::size_t budget = std::max<std::size_t>(
        30, static_cast<std::size_t>(start.numEdges()) / 1000);
    dynamic::GeneratorSpec spec;
    spec.inserts = budget / 3;
    spec.deletes = budget / 3;
    spec.reweights = budget / 3;
    spec.hotSpan = 64;
    row.mutationsPerRound = spec.inserts + spec.deletes + spec.reweights;

    engine::EngineOptions options;
    options.strategy = engine::Strategy::TigrVPlus;
    options.direction = engine::Direction::Pull;
    options.degreeBound = k;
    options.threads = 1;

    for (std::size_t round = 0; round < rounds; ++round) {
        spec.seed = 11000 + round;
        const dynamic::MutationBatch batch =
            dynamic::generateBatch(dg.toCsr(), spec);
        const dynamic::EpochDelta delta = dg.apply(batch);

        // Arena path to pull-ready: O(touched) repair of both
        // maintained arrays — what QueryScheduler's arena serving
        // pays between a mutation and the next pull query.
        const Clock::time_point arena_start = Clock::now();
        forward.applyDelta(delta);
        reverse.applyDelta(delta);
        row.arenaMs.push_back(msSince(arena_start));

        // Dense path to pull-ready: materialize, reverse, re-split —
        // what runPull over a stale dense entry would have to rebuild.
        const Clock::time_point rebuild_start = Clock::now();
        const graph::Csr dense = dg.toCsr();
        const graph::Csr reversed = dense.reversed();
        const transform::VirtualGraph rebuilt(reversed, k, layout);
        row.rebuildMs.push_back(msSince(rebuild_start));
        if (rebuilt.virtualNodes().size() != reverse.numEntries())
            row.diverged = true;

        // Bit-identity of the values actually served (untimed): the
        // reverse-arena pull must match the dense pull exactly.
        engine::GraphEngine arena_engine(dg, &forward, &reverse,
                                         options);
        engine::GraphEngine dense_engine(dense, options);
        const auto arena_result = arena_engine.sssp(0);
        const auto dense_result = dense_engine.sssp(0);
        if (arena_result.values != dense_result.values) {
            std::cerr << "PULL VALUES DIVERGED at round " << round
                      << '\n';
            row.diverged = true;
        }

        if (dg.shouldCompact()) {
            dg.compact();
            forward.rebase();
            reverse.rebase();
        } else {
            if (forward.shouldCompactEntries())
                forward.rebase();
            if (reverse.shouldCompactEntries())
                reverse.rebase();
        }
    }
    return row;
}

bool
pullSection(const graph::Csr &start, std::size_t rounds)
{
    const double required_speedup = 10.0;
    std::cout << "[5] pull after mutate: time-to-pull-ready, arena "
                 "(forward + reverse repair) vs dense rebuild "
                 "(materialize + reverse + re-split), suffix-dominated "
                 "stream, SSSP pull values compared every round\n\n";
    const PullRow trials[] = {runPullRow(start, rounds),
                              runPullRow(start, rounds),
                              runPullRow(start, rounds)};
    double arena_ms = 0.0;
    double rebuild_ms = 0.0;
    bool diverged = false;
    for (std::size_t r = 0; r < rounds; ++r) {
        double best_arena = trials[0].arenaMs[r];
        double best_rebuild = trials[0].rebuildMs[r];
        for (const PullRow &t : trials) {
            best_arena = std::min(best_arena, t.arenaMs[r]);
            best_rebuild = std::min(best_rebuild, t.rebuildMs[r]);
        }
        arena_ms += best_arena;
        rebuild_ms += best_rebuild;
    }
    for (const PullRow &t : trials)
        diverged = diverged || t.diverged;
    const double speedup =
        arena_ms > 0.0 ? rebuild_ms / arena_ms : required_speedup;
    const bool ok = !diverged && speedup >= required_speedup;

    bench::TablePrinter table({"K", "layout", "mut/round", "arena ms",
                               "rebuild ms", "speedup", "verdict"});
    table.addRow({"8", "coalesced",
                  std::to_string(trials[0].mutationsPerRound),
                  bench::fmt(arena_ms), bench::fmt(rebuild_ms),
                  bench::fmt(speedup, 1),
                  diverged ? "DIVERGED" : (ok ? "pass" : "FAIL")});
    table.print(std::cout);
    std::cout << "\nverdict: the arena pull path "
              << (ok ? "is" : "IS NOT") << " >= "
              << bench::fmt(required_speedup, 0)
              << "x faster to pull-ready than a dense reversed "
                 "rebuild\n\n";
    return ok;
}

} // namespace
} // namespace tigr

int
main(int argc, char **argv)
{
    using namespace tigr;

    unsigned max_threads = 8;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            max_threads = par::parseThreadCount(argv[++i], "--threads");
        } else {
            std::cerr << "usage: mutation_throughput [--threads N]\n";
            return 2;
        }
    }

    const graph::Csr start = benchGraph();
    const std::size_t rounds = 12;
    std::cout << "Mutation hot path (" << start.numNodes()
              << " nodes, " << start.numEdges() << " edges, " << rounds
              << " rounds)\n\n";

    bool pass = true;
    pass = uniformSection(start, rounds) && pass;
    pass = suffixSection(start, 8) && pass;
    pass = touchedSection() && pass;
    pass = threadsSection(start, max_threads) && pass;
    pass = pullSection(start, 6) && pass;

    std::cout << "\noverall: " << (pass ? "pass" : "FAIL") << "\n";
    return pass ? 0 : 1;
}
