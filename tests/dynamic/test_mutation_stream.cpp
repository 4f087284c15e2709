/**
 * @file
 * Mutation-log streaming, compaction, and persistence: the streaming
 * reader must parse exactly what MutationLog::load parses (batches,
 * typed Parse errors, line numbers); compactLog must replay to a
 * byte-identical DynamicGraph state at every epoch while actually
 * shrinking the log; and a .tgs snapshot plus its ".tml" sidecar log
 * must restore a GraphStore to any recorded epoch byte-identically,
 * with query metricsDigests equal to the never-persisted original.
 */
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "service/graph_store.hpp"
#include "service/query_scheduler.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"

namespace tigr::dynamic {
namespace {

graph::Csr
baseGraph(std::uint64_t seed = 77)
{
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 300, .edges = 3000, .seed = seed}));
}

std::filesystem::path
tempPath(const std::string &name)
{
    return std::filesystem::temp_directory_path() /
           ("tigr_stream_test_" + name);
}

/** A long mixed log generated against the evolving graph state, so
 *  every batch is valid at its own epoch. */
MutationLog
longLog(DynamicGraph &dg, std::size_t batches)
{
    MutationLog log;
    for (std::size_t i = 0; i < batches; ++i) {
        GeneratorSpec spec{.seed = 1000 + i,
                           .inserts = 14,
                           .deletes = 8,
                           .reweights = 10};
        MutationBatch batch = generateBatch(dg.toCsr(), spec);
        dg.apply(batch);
        log.append(std::move(batch));
    }
    return log;
}

TEST(MutationStream, ReaderMatchesWholeLogLoad)
{
    DynamicGraph dg(baseGraph());
    const MutationLog log = longLog(dg, 24);
    ASSERT_EQ(log.size(), 24u);

    std::ostringstream text;
    log.save(text);

    std::istringstream whole(text.str());
    const MutationLog loaded = MutationLog::load(whole);

    std::istringstream stream(text.str());
    MutationLogReader reader(stream);
    std::vector<MutationBatch> streamed;
    while (auto batch = reader.next())
        streamed.push_back(std::move(*batch));

    EXPECT_EQ(reader.batchesRead(), log.size());
    ASSERT_EQ(streamed.size(), loaded.batches().size());
    for (std::size_t i = 0; i < streamed.size(); ++i)
        ASSERT_EQ(streamed[i], loaded.batches()[i]) << "batch " << i;
    ASSERT_EQ(streamed.size(), log.batches().size());
    for (std::size_t i = 0; i < streamed.size(); ++i)
        ASSERT_EQ(streamed[i], log.batches()[i]) << "batch " << i;
}

TEST(MutationStream, ReaderAppliesWhileParsing)
{
    // Streaming ingest: apply each batch as it parses — no whole-log
    // buffer — and land on the same state as load-then-apply.
    DynamicGraph original(baseGraph(79));
    const MutationLog log = longLog(original, 16);
    std::ostringstream text;
    log.save(text);

    DynamicGraph replayed(baseGraph(79));
    std::istringstream stream(text.str());
    MutationLogReader reader(stream);
    while (auto batch = reader.next())
        replayed.apply(*batch);

    EXPECT_EQ(replayed.epoch(), original.epoch());
    EXPECT_EQ(replayed.toCsr(), original.toCsr());
}

TEST(MutationStream, ReaderErrorsMatchLoadErrors)
{
    const std::string_view cases[] = {
        "batch 0 1\n? 1 2 3\n",       // unknown op
        "+ 1 2 3\n",                  // mutation before any header
        "batch 1 0\n",                // wrong first batch index
        "batch 0 2\n+ 1 2 3\n",       // declared count never arrives
        "batch 0 1\n+ 1 2\n",         // insert missing weight
        "batch 0 1\n- 1\n",           // delete missing dst
        "batch 0 one\n",              // non-numeric count
    };
    for (const std::string_view text : cases) {
        SCOPED_TRACE(text);
        std::optional<MutationError> fromLoad;
        try {
            std::istringstream in{std::string(text)};
            (void)MutationLog::load(in);
        } catch (const MutationError &e) {
            fromLoad = e;
        }
        ASSERT_TRUE(fromLoad.has_value());
        EXPECT_EQ(fromLoad->kind(), MutationErrorKind::Parse);

        std::optional<MutationError> fromReader;
        try {
            std::istringstream in{std::string(text)};
            MutationLogReader reader(in);
            while (reader.next())
                ;
        } catch (const MutationError &e) {
            fromReader = e;
        }
        ASSERT_TRUE(fromReader.has_value());
        EXPECT_EQ(fromReader->kind(), fromLoad->kind());
        EXPECT_EQ(fromReader->index(), fromLoad->index());
        EXPECT_STREQ(fromReader->what(), fromLoad->what());
    }
}

TEST(MutationStream, CompactedLogReplaysByteIdenticallyAtEveryEpoch)
{
    // Batches stuffed with dead reweights: repeated same-pair
    // reweights and reweight-then-delete, on top of a generated mix.
    DynamicGraph dg(baseGraph(83));
    MutationLog log;
    for (std::size_t i = 0; i < 10; ++i) {
        MutationBatch batch = generateBatch(
            dg.toCsr(), {.seed = 2000 + i, .inserts = 10,
                         .deletes = 4, .reweights = 6});
        // Superseded reweights of an edge every batch owns.
        const graph::Csr csr = dg.toCsr();
        for (NodeId v = 0; v < csr.numNodes(); ++v) {
            if (csr.degree(v) == 0)
                continue;
            const NodeId dst = csr.outNeighbors(v)[0];
            const Weight w = static_cast<Weight>(1 + i);
            batch.push_back({MutationKind::UpdateWeight, v, dst, w});
            batch.push_back({MutationKind::UpdateWeight, v, dst,
                             static_cast<Weight>(w + 1)});
            batch.push_back({MutationKind::UpdateWeight, v, dst,
                             static_cast<Weight>(w + 2)});
            break;
        }
        dg.apply(batch);
        log.append(std::move(batch));
    }

    const MutationLog compacted = compactLog(log);
    ASSERT_EQ(compacted.size(), log.size());
    EXPECT_LT(compacted.totalMutations(), log.totalMutations());

    DynamicGraph full(baseGraph(83));
    DynamicGraph lean(baseGraph(83));
    for (std::size_t i = 0; i < log.size(); ++i) {
        full.apply(log.batches()[i]);
        lean.apply(compacted.batches()[i]);
        ASSERT_EQ(lean.epoch(), full.epoch());
        ASSERT_EQ(lean.toCsr(), full.toCsr()) << "epoch " << i + 1;
    }
}

TEST(MutationStream, CompactedLogSurvivesTextRoundTrip)
{
    DynamicGraph dg(baseGraph(89));
    const MutationLog log = longLog(dg, 8);
    const MutationLog compacted = compactLog(log);

    std::ostringstream text;
    compacted.save(text);
    std::istringstream in(text.str());
    const MutationLog reloaded = MutationLog::load(in);
    ASSERT_EQ(reloaded.size(), compacted.size());
    for (std::size_t i = 0; i < compacted.size(); ++i)
        ASSERT_EQ(reloaded.batches()[i], compacted.batches()[i]);
}

TEST(MutationStream, PersistedLogReplaysStoreToAnyEpoch)
{
    const auto tgs = tempPath("replay.tgs");
    const auto tml = service::mutationLogPathFor(tgs);
    ASSERT_EQ(tml.extension(), ".tml");

    // Live store: two batches, snapshot, six more batches to the log.
    service::GraphStore live;
    live.add("g", baseGraph(97));
    for (std::uint64_t e = 0; e < 2; ++e)
        live.mutate("g",
                    generateBatch(live.at("g").graph,
                                  {.seed = 40 + e, .inserts = 12,
                                   .deletes = 6, .reweights = 4}));
    ASSERT_EQ(live.epochOf("g"), 2u);

    service::Snapshot snapshot;
    snapshot.graph = live.at("g").graph;
    snapshot.epoch = live.at("g").epoch;
    service::saveSnapshotFile(snapshot, tgs);

    MutationLog sidecar;
    std::vector<graph::Csr> state_at; // state_at[i] = epoch 3 + i
    for (std::uint64_t e = 0; e < 6; ++e) {
        MutationBatch batch = generateBatch(
            live.at("g").graph, {.seed = 50 + e, .inserts = 16,
                                 .deletes = 8, .reweights = 6});
        live.mutate("g", batch);
        sidecar.append(std::move(batch));
        state_at.push_back(live.at("g").graph);
    }
    ASSERT_EQ(live.epochOf("g"), 8u);
    {
        std::ofstream out(tml);
        ASSERT_TRUE(out.good());
        compactLog(sidecar).save(out);
    }

    // Any recorded epoch is reachable from the snapshot + sidecar.
    for (std::uint64_t target = 3; target <= 8; ++target) {
        service::GraphStore restored;
        restored.addSnapshot("g", tgs);
        ASSERT_EQ(restored.epochOf("g"), 2u);
        std::ifstream in(tml);
        ASSERT_TRUE(in.good());
        const std::size_t applied =
            restored.replayLog("g", in, target);
        EXPECT_EQ(applied, target - 2);
        EXPECT_EQ(restored.epochOf("g"), target);
        EXPECT_EQ(restored.at("g").graph, state_at[target - 3])
            << "epoch " << target;
    }

    // Full replay (no target) drains the log.
    service::GraphStore restored;
    restored.addSnapshot("g", tgs);
    {
        std::ifstream in(tml);
        EXPECT_EQ(restored.replayLog("g", in), 6u);
    }
    EXPECT_EQ(restored.epochOf("g"), 8u);
    EXPECT_EQ(restored.at("g").graph, live.at("g").graph);

    // A query batch over the replayed state produces the same
    // metricsDigests as the state that never left memory. Each is
    // queried as a never-mutated store over the epoch's dense CSR:
    // the two stores reached the epoch through different histories,
    // and arena-served cycles depend on arena slot geometry.
    const auto digests = [](const service::GraphStore &mutated) {
        service::GraphStore store;
        store.add("g", mutated.pin("g")->graph);
        service::TransformCache cache(std::size_t{64} << 20);
        service::SchedulerOptions options;
        options.workers = 1;
        service::QueryScheduler scheduler(store, cache, options);
        std::vector<service::QuerySpec> queries;
        const engine::Algorithm algos[] = {
            engine::Algorithm::Bfs, engine::Algorithm::Sssp,
            engine::Algorithm::Sswp, engine::Algorithm::Cc};
        for (std::size_t i = 0; i < 8; ++i) {
            service::QuerySpec spec;
            spec.graph = "g";
            spec.algorithm = algos[i % 4];
            spec.source = static_cast<NodeId>((i * 37) % 300);
            spec.degreeBound = 8;
            queries.push_back(spec);
        }
        const auto result = scheduler.runBatch({}, queries);
        std::vector<std::uint64_t> out;
        for (const service::QueryResult &r : result.queries) {
            EXPECT_EQ(r.outcome, service::QueryOutcome::Completed)
                << r.message;
            out.push_back(r.metricsDigest);
        }
        return out;
    };
    EXPECT_EQ(digests(restored), digests(live));

    std::filesystem::remove(tgs);
    std::filesystem::remove(tml);
}

TEST(MutationStream, ReplayLogStopsCleanlyAtLogEnd)
{
    service::GraphStore store;
    store.add("g", baseGraph(101));
    DynamicGraph shadow(baseGraph(101));
    const MutationLog log = longLog(shadow, 3);
    std::ostringstream text;
    log.save(text);

    // A target past the end applies everything and stops — no throw.
    std::istringstream in(text.str());
    EXPECT_EQ(store.replayLog("g", in, 999), 3u);
    EXPECT_EQ(store.epochOf("g"), 3u);
    EXPECT_EQ(store.at("g").graph, shadow.toCsr());

    // An already-reached target applies nothing.
    std::istringstream again(text.str());
    EXPECT_EQ(store.replayLog("g", again, 3), 0u);
    EXPECT_EQ(store.epochOf("g"), 3u);
}

} // namespace
} // namespace tigr::dynamic
