/**
 * @file
 * The durability layer end to end: write-ahead journal framing and
 * torn-tail scanning, the crash-injection file-I/O shim, sidecar-aware
 * directory audit, startup recovery, and — the centerpiece — a
 * deterministic crash-point torture sweep: the same durable workload is
 * crashed at EVERY recorded file-I/O point (writes cut at several byte
 * offsets, fsyncs and renames killed outright), recovered into a fresh
 * store, and the recovered state is required to be bit-identical — by
 * epoch and by query metricsDigest, at 1, 2, and 8 scheduler workers —
 * to a reference prefix of the uncrashed run. Recovery must never
 * throw, whatever the crash left behind.
 */
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "dynamic/mutation.hpp"
#include "fault/fault.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fileio.hpp"
#include "service/graph_store.hpp"
#include "service/journal.hpp"
#include "service/query_scheduler.hpp"
#include "service/recovery.hpp"
#include "service/snapshot.hpp"
#include "service/transform_cache.hpp"
#include "transform/virtual_graph.hpp"

namespace tigr::service {
namespace {

namespace fs = std::filesystem;

class TempDir : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("tigr_durability_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    fs::path path(const std::string &name) const { return dir_ / name; }

    /** A fresh empty subdirectory (one per torture case). */
    fs::path freshDir(std::size_t index)
    {
        fs::path sub = dir_ / ("case_" + std::to_string(index));
        fs::remove_all(sub);
        fs::create_directories(sub);
        return sub;
    }

    fs::path dir_;
};

using JournalFormat = TempDir;
using CrashShim = TempDir;
using SidecarAudit = TempDir;
using Recovery = TempDir;
using DurableStore = TempDir;
using CrashTorture = TempDir;

graph::Csr
seedGraph()
{
    graph::BuildOptions options;
    options.randomizeWeights = true;
    options.maxWeight = 30;
    options.weightSeed = 5;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 128, .edges = 700, .seed = 5}));
}

dynamic::MutationBatch
insertBatch(std::initializer_list<std::array<std::uint32_t, 3>> edges)
{
    dynamic::MutationBatch batch;
    for (const auto &e : edges)
        batch.push_back({dynamic::MutationKind::InsertEdge, e[0], e[1],
                         e[2]});
    return batch;
}

// ---------------------------------------------------------------------
// Journal wire format
// ---------------------------------------------------------------------

TEST_F(JournalFormat, RoundTripsRecordsThroughScan)
{
    const fs::path journal = path("g.twj");
    {
        JournalWriter writer = JournalWriter::create(
            journal, 4, SyncPolicy::EveryRecord);
        writer.append(5, insertBatch({{1, 2, 9}}));
        writer.append(6, insertBatch({{3, 4, 7}, {5, 6, 1}}));
        writer.append(7, {}); // an empty batch is still an epoch
        EXPECT_EQ(writer.records(), 3u);
        EXPECT_EQ(writer.baseEpoch(), 4u);
    }
    const JournalScan scan = scanJournal(journal);
    ASSERT_TRUE(scan.headerIntact);
    EXPECT_EQ(scan.baseEpoch, 4u);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.tornBytes(), 0u);
    EXPECT_EQ(scan.records[0].epoch, 5u);
    EXPECT_EQ(scan.records[0].seq, 0u);
    ASSERT_EQ(scan.records[1].batch.size(), 2u);
    EXPECT_EQ(scan.records[1].batch[0].src, 3u);
    EXPECT_EQ(scan.records[1].batch[0].weight, 7u);
    EXPECT_EQ(scan.records[2].batch.size(), 0u);
    // Offsets chain: each record starts where the previous ended.
    EXPECT_EQ(scan.records[0].offset, 32u);
    EXPECT_LT(scan.records[0].offset, scan.records[1].offset);
    EXPECT_EQ(scan.intactBytes, scan.fileBytes);
}

TEST_F(JournalFormat, ResumeAppendsAfterTheIntactPrefix)
{
    const fs::path journal = path("g.twj");
    {
        JournalWriter writer = JournalWriter::create(
            journal, 0, SyncPolicy::GroupCommit);
        writer.append(1, insertBatch({{1, 2, 3}}));
        writer.sync();
    }
    {
        JournalWriter writer =
            JournalWriter::resume(journal, SyncPolicy::GroupCommit);
        EXPECT_EQ(writer.records(), 1u);
        writer.append(2, insertBatch({{4, 5, 6}}));
        writer.sync();
    }
    const JournalScan scan = scanJournal(journal);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[1].epoch, 2u);
    EXPECT_EQ(scan.records[1].seq, 1u);
}

TEST_F(JournalFormat, TornTailEndsTheIntactPrefixWithoutThrowing)
{
    const fs::path journal = path("g.twj");
    std::uint64_t cleanBytes = 0;
    {
        JournalWriter writer = JournalWriter::create(
            journal, 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 3}}));
        writer.append(2, insertBatch({{4, 5, 6}}));
        cleanBytes = writer.bytes();
    }
    // Tear the last record: drop its final byte.
    fs::resize_file(journal, cleanBytes - 1);
    JournalScan scan = scanJournal(journal);
    ASSERT_TRUE(scan.headerIntact);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_GT(scan.tornBytes(), 0u);

    // A flipped payload byte (CRC failure) ends the prefix the same
    // way: hostile bytes are a boundary, never an exception.
    {
        std::fstream f(journal,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(scan.records[0].offset) + 12);
        f.put('\xff');
    }
    scan = scanJournal(journal);
    ASSERT_TRUE(scan.headerIntact);
    EXPECT_EQ(scan.records.size(), 0u);
    EXPECT_GT(scan.tornBytes(), 0u);
}

TEST_F(JournalFormat, ForeignAndTruncatedHeadersAreUntrusted)
{
    const fs::path foreign = path("foreign.twj");
    {
        std::ofstream out(foreign, std::ios::binary);
        out << "definitely not a journal, but long enough to scan";
    }
    EXPECT_FALSE(scanJournal(foreign).headerIntact);
    EXPECT_THROW(JournalWriter::resume(foreign, SyncPolicy::Unsynced),
                 JournalError);

    const fs::path stub = path("stub.twj");
    { std::ofstream out(stub, std::ios::binary); out << "TIGR"; }
    EXPECT_FALSE(scanJournal(stub).headerIntact);

    EXPECT_THROW(scanJournal(path("missing.twj")), JournalError);
}

TEST_F(JournalFormat, AbortLastRollsBackTheRejectedRecord)
{
    const fs::path journal = path("g.twj");
    JournalWriter writer =
        JournalWriter::create(journal, 0, SyncPolicy::EveryRecord);
    writer.append(1, insertBatch({{1, 2, 3}}));
    const std::uint64_t committed = writer.bytes();
    writer.append(2, insertBatch({{7, 8, 9}}));
    writer.abortLast();
    EXPECT_EQ(writer.bytes(), committed);
    EXPECT_EQ(writer.records(), 1u);
    EXPECT_THROW(writer.abortLast(), std::logic_error);
    // The freed seq is reused, keeping the chain dense.
    writer.append(2, insertBatch({{9, 9, 1}}));
    const JournalScan scan = scanJournal(journal);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[1].seq, 1u);
    EXPECT_EQ(scan.records[1].batch[0].src, 9u);
}

TEST_F(JournalFormat, SyncPolicyNamesRoundTrip)
{
    for (SyncPolicy policy :
         {SyncPolicy::EveryRecord, SyncPolicy::GroupCommit,
          SyncPolicy::Unsynced}) {
        auto parsed = parseSyncPolicy(syncPolicyName(policy));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, policy);
    }
    EXPECT_FALSE(parseSyncPolicy("fsync-sometimes").has_value());
    EXPECT_FALSE(parseSyncPolicy("").has_value());
}

TEST_F(JournalFormat, JournalPathForSwapsTheExtension)
{
    EXPECT_EQ(journalPathFor("dir/g.tgs"), fs::path("dir/g.twj"));
    EXPECT_EQ(journalPathFor("g"), fs::path("g.twj"));
    EXPECT_THROW(journalPathFor("dir/"), std::invalid_argument);
}

TEST_F(JournalFormat, Crc32cMatchesKnownVectorsAndChains)
{
    // RFC 3720 test vector: 32 zero bytes.
    const unsigned char zeros[32] = {};
    EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
    const char *text = "123456789";
    EXPECT_EQ(crc32c(text, 9), 0xe3069283u);
    // Chaining equals one-shot over the concatenation.
    EXPECT_EQ(crc32c(text + 4, 5, crc32c(text, 4)), 0xe3069283u);
}

// ---------------------------------------------------------------------
// Crash-injection shim
// ---------------------------------------------------------------------

TEST_F(CrashShim, RecordingScopeLogsEveryOperation)
{
    io::CrashScope recorder;
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 3}}));
    }
    // create: header write + sync + dir sync; append: write + sync.
    ASSERT_EQ(recorder.log().size(), 5u);
    EXPECT_EQ(recorder.log()[0].kind, io::OpKind::Write);
    EXPECT_EQ(recorder.log()[1].kind, io::OpKind::Sync);
    EXPECT_EQ(recorder.log()[2].kind, io::OpKind::Sync);
    EXPECT_EQ(recorder.log()[3].kind, io::OpKind::Write);
    EXPECT_EQ(recorder.log()[4].kind, io::OpKind::Sync);
    EXPECT_FALSE(recorder.crashed());
}

TEST_F(CrashShim, CrashingScopeCutsTheWriteMidRecord)
{
    // Crash point 3 is the append's write (see the recording test);
    // allow 4 bytes of it to land, then die.
    io::CrashScope scope(io::CrashSpec{3, 4});
    std::uint64_t cleanHeaderBytes = 0;
    try {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        cleanHeaderBytes = writer.bytes();
        writer.append(1, insertBatch({{1, 2, 3}}));
        FAIL() << "the armed crash point did not fire";
    } catch (const fault::InjectedCrash &) {
    }
    EXPECT_TRUE(scope.crashed());
    EXPECT_EQ(fs::file_size(path("g.twj")), cleanHeaderBytes + 4);
    // The torn 4-byte tail is exactly what scanJournal truncates to.
    const JournalScan scan = scanJournal(path("g.twj"));
    ASSERT_TRUE(scan.headerIntact);
    EXPECT_EQ(scan.records.size(), 0u);
    EXPECT_EQ(scan.tornBytes(), 4u);
}

TEST_F(CrashShim, CrashingScopeKillsSyncsBeforeTheyRun)
{
    io::CrashScope scope(io::CrashSpec{1, 0}); // create's file sync
    EXPECT_THROW(JournalWriter::create(path("g.twj"), 0,
                                       SyncPolicy::EveryRecord),
                 fault::InjectedCrash);
    EXPECT_TRUE(scope.crashed());
}

TEST_F(CrashShim, SnapshotWriteCrashLeavesOnlyTheTmpLeftover)
{
    const fs::path target = path("g.tgs");
    Snapshot snapshot;
    snapshot.graph = seedGraph();
    io::CrashScope scope(io::CrashSpec{0, 100}); // cut the tmp write
    EXPECT_THROW(saveSnapshotFile(snapshot, target),
                 fault::InjectedCrash);
    EXPECT_FALSE(fs::exists(target));
    ASSERT_TRUE(fs::exists(path("g.tgs.tmp")));
    EXPECT_EQ(fs::file_size(path("g.tgs.tmp")), 100u);
}

TEST_F(CrashShim, InjectedCrashIsNotAnInjectedFault)
{
    // The retry machinery absorbs InjectedFault; a crash must never be
    // absorbable, so the types are deliberately unrelated.
    static_assert(
        !std::is_base_of_v<fault::InjectedFault, fault::InjectedCrash>);
    bool caught = false;
    try {
        throw fault::InjectedCrash("tigr: test crash");
    } catch (const fault::InjectedFault &) {
        FAIL() << "InjectedCrash was caught as InjectedFault";
    } catch (const fault::InjectedCrash &) {
        caught = true;
    }
    EXPECT_TRUE(caught);
}

TEST_F(CrashShim, JournalFaultSitesFireAsCrashes)
{
    fault::FaultPlan plan(7);
    plan.site(fault::Site::JournalAppend, 1.0);
    fault::FaultScope scope(plan, 0, 0);
    JournalWriter writer = JournalWriter::create(
        path("g.twj"), 0, SyncPolicy::Unsynced);
    EXPECT_THROW(writer.append(1, insertBatch({{1, 2, 3}})),
                 fault::InjectedCrash);
}

// ---------------------------------------------------------------------
// Sidecar-aware directory audit
// ---------------------------------------------------------------------

TEST_F(SidecarAudit, JudgesJournalsAndLogsBesideTheirSnapshots)
{
    // Intact snapshot + intact journal + intact log: all admitted.
    saveSnapshotFile(seedGraph(), path("good.tgs"));
    {
        JournalWriter writer = JournalWriter::create(
            path("good.twj"), 0, SyncPolicy::Unsynced);
        writer.append(1, insertBatch({{1, 2, 3}}));
    }
    {
        dynamic::MutationLog log;
        log.append(insertBatch({{1, 2, 3}}));
        std::ofstream out(path("good.tml"));
        log.save(out);
    }
    // Orphaned sidecars: no snapshot stem to replay onto.
    {
        JournalWriter::create(path("orphan.twj"), 0,
                              SyncPolicy::Unsynced);
        std::ofstream out(path("orphan.tml"));
        out << "batch 0 0\n";
    }
    // Corrupt sidecars beside an intact snapshot.
    saveSnapshotFile(seedGraph(), path("bad.tgs"));
    { std::ofstream out(path("bad.twj")); out << "junk journal"; }
    { std::ofstream out(path("bad.tml")); out << "not a log at all"; }
    // Rotation leftover: always quarantined.
    { std::ofstream out(path("spare.twj.tmp")); out << "partial"; }

    const SnapshotAuditReport report = auditSnapshotDirectory(dir_);
    EXPECT_EQ(report.intact.size(), 2u);
    ASSERT_EQ(report.journals.size(), 1u);
    EXPECT_EQ(report.journals[0], path("good.twj"));
    ASSERT_EQ(report.mutationLogs.size(), 1u);
    EXPECT_EQ(report.mutationLogs[0], path("good.tml"));
    EXPECT_EQ(report.quarantined.size(), 5u);
    for (const fs::path &q : report.quarantined)
        EXPECT_TRUE(q.filename().string().ends_with(".quarantined"))
            << q;
    EXPECT_FALSE(fs::exists(path("orphan.twj")));
    EXPECT_FALSE(fs::exists(path("bad.tml")));
    EXPECT_TRUE(fs::exists(path("good.twj")));

    // Idempotent: a second audit admits the same set, renames nothing.
    const SnapshotAuditReport again = auditSnapshotDirectory(dir_);
    EXPECT_EQ(again.intact.size(), 2u);
    EXPECT_EQ(again.journals.size(), 1u);
    EXPECT_EQ(again.mutationLogs.size(), 1u);
    EXPECT_TRUE(again.quarantined.empty());
}

TEST_F(SidecarAudit, TornJournalTailIsNotCorruption)
{
    saveSnapshotFile(seedGraph(), path("g.tgs"));
    std::uint64_t cleanBytes = 0;
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 3}}));
        cleanBytes = writer.bytes();
    }
    fs::resize_file(path("g.twj"), cleanBytes - 2);
    const SnapshotAuditReport report = auditSnapshotDirectory(dir_);
    ASSERT_EQ(report.journals.size(), 1u);
    EXPECT_TRUE(report.quarantined.empty());
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

TEST_F(Recovery, ReplaysIntactRecordsOnTopOfTheSnapshot)
{
    // Build the reference state: graph + 2 batches, all in memory.
    GraphStore reference;
    reference.add("g", seedGraph());
    const auto b1 = insertBatch({{1, 2, 9}, {3, 4, 7}});
    const auto b2 = insertBatch({{5, 6, 1}});
    reference.mutate("g", b1);
    reference.mutate("g", b2);

    // Durable dir: snapshot at epoch 0, journal carrying both batches.
    saveSnapshotFile(seedGraph(), path("g.tgs"));
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, b1);
        writer.append(2, b2);
    }

    GraphStore store;
    obs::MetricsRegistry metrics;
    obs::TraceSink trace;
    DurableOptions options;
    options.metrics = &metrics;
    options.trace = &trace;
    const RecoveryReport report = store.openDurable(dir_, options);

    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(report.graphs[0].name, "g");
    EXPECT_EQ(report.graphs[0].snapshotEpoch, 0u);
    EXPECT_EQ(report.graphs[0].recoveredEpoch, 2u);
    EXPECT_EQ(report.graphs[0].recordsReplayed, 2u);
    EXPECT_EQ(report.graphs[0].recordsRetired, 0u);
    EXPECT_FALSE(report.graphs[0].tornTail);
    EXPECT_EQ(report.epochsReplayed(), 2u);
    EXPECT_EQ(store.epochOf("g"), 2u);
    EXPECT_EQ(store.at("g").graph.numEdges(),
              reference.at("g").graph.numEdges());
    EXPECT_EQ(metrics.counter("recovery.replayed").value(), 2u);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.events()[0].kind, obs::EventKind::RecoverGraph);

    const std::string text = formatRecoveryReport(report);
    EXPECT_NE(text.find("graph g"), std::string::npos);
    EXPECT_NE(text.find("epoch 2"), std::string::npos);
}

TEST_F(Recovery, TruncatesAndPreservesTheTornTail)
{
    saveSnapshotFile(seedGraph(), path("g.tgs"));
    std::uint64_t cleanBytes = 0;
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 9}}));
        cleanBytes = writer.bytes();
        writer.append(2, insertBatch({{3, 4, 7}}));
    }
    const std::uint64_t fullBytes = fs::file_size(path("g.twj"));
    fs::resize_file(path("g.twj"), fullBytes - 3);

    GraphStore store;
    const RecoveryReport report = store.openDurable(dir_);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(report.graphs[0].recordsReplayed, 1u);
    EXPECT_TRUE(report.graphs[0].tornTail);
    EXPECT_EQ(report.graphs[0].bytesTruncated, fullBytes - 3 -
                                                   cleanBytes);
    EXPECT_EQ(store.epochOf("g"), 1u);
    // The journal is now clean; the cut bytes survive aside.
    EXPECT_EQ(fs::file_size(path("g.twj")), cleanBytes);
    EXPECT_TRUE(fs::exists(path("g.twj.torn")));
    EXPECT_EQ(report.tornTails(), 1u);

    // Idempotent: recovering the recovered directory changes nothing.
    GraphStore second;
    const RecoveryReport again = second.openDurable(dir_);
    ASSERT_EQ(again.graphs.size(), 1u);
    EXPECT_EQ(again.graphs[0].recordsReplayed, 1u);
    EXPECT_FALSE(again.graphs[0].tornTail);
    EXPECT_EQ(second.epochOf("g"), 1u);
}

TEST_F(Recovery, AnEpochGapEndsTheIntactPrefix)
{
    saveSnapshotFile(seedGraph(), path("g.tgs"));
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 9}}));
        writer.append(3, insertBatch({{3, 4, 7}})); // gap: no epoch 2
        writer.append(4, insertBatch({{5, 6, 1}}));
    }
    GraphStore store;
    const RecoveryReport report = store.openDurable(dir_);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(report.graphs[0].recordsReplayed, 1u);
    EXPECT_TRUE(report.graphs[0].tornTail);
    EXPECT_EQ(store.epochOf("g"), 1u);
    // Everything from the gap on was cut — the journal rescans clean.
    const JournalScan scan = scanJournal(path("g.twj"));
    EXPECT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.tornBytes(), 0u);
}

TEST_F(Recovery, CheckpointRetiredRecordsAreSkipped)
{
    // Snapshot at epoch 2 with a journal holding epochs 1..3: 1 and 2
    // are already inside the snapshot, only 3 replays.
    GraphStore builder;
    builder.add("g", seedGraph());
    builder.mutate("g", insertBatch({{1, 2, 9}}));
    builder.mutate("g", insertBatch({{3, 4, 7}}));
    Snapshot snapshot;
    snapshot.graph = builder.at("g").graph;
    snapshot.epoch = 2;
    saveSnapshotFile(snapshot, path("g.tgs"));
    {
        JournalWriter writer = JournalWriter::create(
            path("g.twj"), 0, SyncPolicy::EveryRecord);
        writer.append(1, insertBatch({{1, 2, 9}}));
        writer.append(2, insertBatch({{3, 4, 7}}));
        writer.append(3, insertBatch({{5, 6, 1}}));
    }
    GraphStore store;
    const RecoveryReport report = store.openDurable(dir_);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(report.graphs[0].recordsRetired, 2u);
    EXPECT_EQ(report.graphs[0].recordsReplayed, 1u);
    EXPECT_FALSE(report.graphs[0].tornTail);
    EXPECT_EQ(store.epochOf("g"), 3u);
}

// ---------------------------------------------------------------------
// The durable store
// ---------------------------------------------------------------------

TEST_F(DurableStore, MutationsSurviveACleanReopen)
{
    {
        GraphStore store;
        DurableOptions options;
        options.syncPolicy = SyncPolicy::EveryRecord;
        store.openDurable(dir_, options);
        EXPECT_TRUE(store.durable());
        EXPECT_EQ(store.durableDir(), dir_);
        store.add("g", seedGraph());
        store.mutate("g", insertBatch({{1, 2, 9}}));
        store.mutate("g", insertBatch({{3, 4, 7}}));
        EXPECT_TRUE(fs::exists(path("g.tgs")));
        EXPECT_TRUE(fs::exists(path("g.twj")));
        EXPECT_THROW(store.openDurable(dir_), std::logic_error);
    }
    GraphStore reopened;
    const RecoveryReport report = reopened.openDurable(dir_);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(reopened.epochOf("g"), 2u);
}

TEST_F(DurableStore, RejectedBatchLeavesNoJournalRecord)
{
    GraphStore store;
    store.openDurable(dir_);
    store.add("g", seedGraph());
    store.mutate("g", insertBatch({{1, 2, 9}}));
    // An out-of-range source fails typed validation after the record
    // was journaled: the append must be rolled back.
    EXPECT_THROW(store.mutate("g", insertBatch({{5000, 2, 9}})),
                 dynamic::MutationError);
    store.syncJournals();
    const JournalScan scan = scanJournal(path("g.twj"));
    EXPECT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.tornBytes(), 0u);
    EXPECT_EQ(store.epochOf("g"), 1u);
}

TEST_F(DurableStore, CheckpointRetiresTheJournalIntoTheSnapshot)
{
    GraphStore store;
    obs::MetricsRegistry metrics;
    DurableOptions options;
    options.metrics = &metrics;
    store.openDurable(dir_, options);
    store.add("g", seedGraph());
    store.mutate("g", insertBatch({{1, 2, 9}}));
    store.mutate("g", insertBatch({{3, 4, 7}}));
    const CheckpointResult cp = store.checkpoint("g");
    EXPECT_EQ(cp.epoch, 2u);
    EXPECT_EQ(cp.retiredRecords, 2u);
    EXPECT_EQ(metrics.counter("journal.checkpoints").value(), 1u);

    // The rotated journal is empty and based at the snapshot's epoch;
    // later mutations land in it.
    JournalScan scan = scanJournal(path("g.twj"));
    EXPECT_EQ(scan.baseEpoch, 2u);
    EXPECT_TRUE(scan.records.empty());
    store.mutate("g", insertBatch({{5, 6, 1}}));
    store.syncJournals();
    scan = scanJournal(path("g.twj"));
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].epoch, 3u);

    GraphStore reopened;
    const RecoveryReport report = reopened.openDurable(dir_);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(report.graphs[0].snapshotEpoch, 2u);
    EXPECT_EQ(report.graphs[0].recordsReplayed, 1u);
    EXPECT_EQ(reopened.epochOf("g"), 3u);
}

TEST_F(DurableStore, CheckpointOfAMutatedVirtualEntryWritesTheLiveArray)
{
    // A mutated entry's live virtual array is its maintained forward
    // virtualizer: the checkpoint must persist exactly what a fresh
    // virtual build over the mutated graph would.
    constexpr NodeId kBound = 8;
    constexpr transform::EdgeLayout kLayout =
        transform::EdgeLayout::Coalesced;
    const fs::path durable = freshDir(0);
    saveSnapshotFile(transform::VirtualGraph(seedGraph(), kBound, kLayout),
                     durable / "g.tgs");

    GraphStore store;
    store.openDurable(durable);
    ASSERT_TRUE(store.at("g").hasVirtual);
    for (std::uint64_t round = 0; round < 3; ++round)
        store.mutate("g", dynamic::generateBatch(
                              store.at("g").graph,
                              {.seed = 70 + round, .inserts = 12,
                               .deletes = 6, .reweights = 4}));
    const CheckpointResult cp = store.checkpoint("g");
    EXPECT_EQ(cp.epoch, 3u);

    const transform::VirtualGraph rebuilt(store.at("g").graph, kBound,
                                          kLayout);
    saveSnapshotFile(Snapshot{rebuilt.physical(), true, kBound, kLayout,
                              {rebuilt.virtualNodes().begin(),
                               rebuilt.virtualNodes().end()},
                              cp.epoch},
                     path("expected.tgs"));
    const auto bytesOf = [](const fs::path &file) {
        std::ifstream in(file, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_EQ(bytesOf(cp.snapshot), bytesOf(path("expected.tgs")));

    GraphStore reopened;
    const RecoveryReport report = reopened.openDurable(durable);
    ASSERT_EQ(report.graphs.size(), 1u);
    EXPECT_EQ(reopened.epochOf("g"), cp.epoch);
    EXPECT_EQ(reopened.at("g").graph, store.at("g").graph);
}

TEST_F(DurableStore, CheckpointRequiresADurableStore)
{
    GraphStore store;
    EXPECT_THROW(store.checkpoint("g"), std::logic_error);
    store.syncJournals(); // explicitly a no-op when not durable
}

// ---------------------------------------------------------------------
// Crash-point torture sweep
// ---------------------------------------------------------------------

/** Query digests of the store's current state at a given worker
 *  count. Fresh scheduler + fresh cache per capture, so the digests
 *  depend on the store state alone. */
std::vector<std::uint64_t>
stateDigests(const GraphStore &store, unsigned workers)
{
    // Query the current epoch's dense CSR in a never-mutated store: a
    // mutated (or journal-replayed) store serves these probes off the
    // live arena, whose simulated cycle counts depend on arena slot
    // geometry, i.e. on mutation history. The digests here witness
    // *state*, so every probe must measure the same (dense) execution
    // path regardless of how the store arrived at its epoch.
    GraphStore dense;
    dense.add("g", store.pin("g")->graph);
    TransformCache cache(std::size_t{8} << 20);
    SchedulerOptions options;
    options.workers = workers;
    QueryScheduler scheduler(dense, cache, options);
    std::vector<QuerySpec> batch(2);
    batch[0].graph = "g";
    batch[0].algorithm = engine::Algorithm::Bfs;
    batch[1].graph = "g";
    batch[1].algorithm = engine::Algorithm::Sssp;
    const std::vector<QueryResult> results = scheduler.runBatch(batch);
    std::vector<std::uint64_t> digests;
    for (const QueryResult &r : results) {
        EXPECT_EQ(r.outcome, QueryOutcome::Completed);
        digests.push_back(r.metricsDigest);
    }
    return digests;
}

constexpr std::size_t kTortureBatches = 10;
constexpr std::size_t kCheckpointAfter = 5;
constexpr std::size_t kSyncEvery = 3;

/**
 * The durable workload every torture case replays: open, register,
 * then kTortureBatches seeded mutations with group-commit barriers
 * every kSyncEvery batches and one mid-run checkpoint. @p acked tracks
 * the highest epoch known durable so far (the WAL ack floor the
 * recovery must reach). @p capture, when set, records the reference
 * digest vector after every epoch (index = epoch).
 */
void
runWorkload(const fs::path &dir, SyncPolicy policy,
            std::uint64_t &acked,
            std::vector<std::vector<std::uint64_t>> *capture)
{
    GraphStore store;
    DurableOptions options;
    options.syncPolicy = policy;
    store.openDurable(dir, options);
    store.add("g", seedGraph());
    if (capture)
        capture->push_back(stateDigests(store, 1)); // epoch 0
    for (std::size_t round = 0; round < kTortureBatches; ++round) {
        dynamic::GeneratorSpec spec;
        spec.seed = 40 + round;
        spec.inserts = 6;
        spec.deletes = 3;
        spec.reweights = 3;
        const dynamic::MutationBatch batch =
            dynamic::generateBatch(store.at("g").graph, spec);
        store.mutate("g", batch);
        if (policy == SyncPolicy::EveryRecord)
            acked = store.epochOf("g");
        if ((round + 1) % kSyncEvery == 0) {
            store.syncJournals();
            acked = store.epochOf("g");
        }
        if (round + 1 == kCheckpointAfter) {
            store.checkpoint("g");
            acked = store.epochOf("g");
        }
        if (capture)
            capture->push_back(stateDigests(store, 1));
    }
}

struct TortureCase
{
    SyncPolicy policy;
    io::CrashSpec spec;
};

TEST_F(CrashTorture, EveryIoPointRecoversToAReferencePrefix)
{
    // Reference run: digests after every epoch. State evolution is
    // policy-independent, so one reference serves both policies.
    std::vector<std::vector<std::uint64_t>> reference;
    {
        std::uint64_t acked = 0;
        runWorkload(freshDir(0), SyncPolicy::EveryRecord, acked,
                    &reference);
        ASSERT_EQ(acked, kTortureBatches);
    }
    ASSERT_EQ(reference.size(), kTortureBatches + 1);

    // Recording runs: learn every file-I/O point of the workload, per
    // policy. Writes get cut at several offsets; syncs and renames die
    // whole — mid-record, mid-fsync, mid-rename, mid-rotation crashes
    // all fall out of the one op log.
    std::vector<TortureCase> cases;
    std::size_t policyIndex = 0;
    for (SyncPolicy policy :
         {SyncPolicy::EveryRecord, SyncPolicy::GroupCommit}) {
        io::CrashScope recorder;
        std::uint64_t acked = 0;
        runWorkload(freshDir(1 + policyIndex++), policy, acked,
                    nullptr);
        const std::vector<io::OpRecord> &log = recorder.log();
        ASSERT_FALSE(log.empty());
        for (std::size_t point = 0; point < log.size(); ++point) {
            if (log[point].kind == io::OpKind::Write) {
                std::set<std::uint64_t> cuts{0};
                if (log[point].bytes > 1) {
                    cuts.insert(1);
                    cuts.insert(log[point].bytes / 2);
                    cuts.insert(log[point].bytes - 1);
                }
                for (std::uint64_t cut : cuts)
                    cases.push_back(
                        {policy, io::CrashSpec{point, cut}});
            } else {
                cases.push_back({policy, io::CrashSpec{point, 0}});
            }
        }
    }
    // The acceptance floor: at least 100 distinct injected crashes.
    ASSERT_GE(cases.size(), 100u);

    std::size_t caseIndex = 16; // fresh subdirectory namespace
    for (const TortureCase &c : cases) {
        SCOPED_TRACE("policy=" +
                     std::string(syncPolicyName(c.policy)) +
                     " point=" + std::to_string(c.spec.point) +
                     " cut=" + std::to_string(c.spec.cutBytes));
        const fs::path dir = freshDir(caseIndex++);
        std::uint64_t acked = 0;
        bool crashed = false;
        {
            io::CrashScope scope(c.spec);
            try {
                runWorkload(dir, c.policy, acked, nullptr);
            } catch (const fault::InjectedCrash &) {
                crashed = true;
            }
            ASSERT_TRUE(scope.crashed());
        }
        ASSERT_TRUE(crashed);

        // Recovery must never throw, whatever the crash left behind.
        GraphStore store;
        RecoveryReport report;
        ASSERT_NO_THROW(report = store.openDurable(dir));

        if (!store.contains("g")) {
            // The crash predates the base snapshot being durable;
            // nothing was acknowledged yet, so the empty prefix is the
            // correct recovery.
            EXPECT_EQ(acked, 0u);
            continue;
        }
        const std::uint64_t epoch = store.epochOf("g");
        ASSERT_LE(epoch, kTortureBatches);
        // The WAL guarantee: every acknowledged epoch survives.
        EXPECT_GE(epoch, acked);
        // Bit-identity with the reference prefix, at every worker
        // count the scheduler supports.
        const std::vector<std::uint64_t> &expected = reference[epoch];
        for (unsigned workers : {1u, 2u, 8u})
            EXPECT_EQ(stateDigests(store, workers), expected)
                << "workers=" << workers << " epoch=" << epoch;
    }
}

} // namespace
} // namespace tigr::service
