/**
 * @file
 * The mutation vocabulary: seeded batch generation (a pure function of
 * graph and spec), and the MutationLog text round-trip with its typed
 * parse failures.
 */
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation.hpp"
#include "graph/coo.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace tigr::dynamic {
namespace {

graph::Csr
testGraph()
{
    return graph::Csr::fromCoo(
        graph::rmat({.nodes = 300, .edges = 2400, .seed = 11}));
}

TEST(MutationKinds, Names)
{
    EXPECT_EQ(mutationKindName(MutationKind::InsertEdge), "insert");
    EXPECT_EQ(mutationKindName(MutationKind::DeleteEdge), "delete");
    EXPECT_EQ(mutationKindName(MutationKind::UpdateWeight), "reweight");
}

TEST(GenerateBatch, IsAPureFunctionOfGraphAndSpec)
{
    const graph::Csr csr = testGraph();
    const GeneratorSpec spec{.seed = 42,
                             .inserts = 20,
                             .deletes = 10,
                             .reweights = 10,
                             .maxWeight = 32};
    const MutationBatch a = generateBatch(csr, spec);
    const MutationBatch b = generateBatch(csr, spec);
    EXPECT_EQ(a, b);

    GeneratorSpec other = spec;
    other.seed = 43;
    EXPECT_NE(generateBatch(csr, other), a);
}

TEST(GenerateBatch, ProducesRequestedKindCounts)
{
    const graph::Csr csr = testGraph();
    const GeneratorSpec spec{
        .seed = 7, .inserts = 12, .deletes = 6, .reweights = 5};
    const MutationBatch batch = generateBatch(csr, spec);
    std::size_t inserts = 0, deletes = 0, reweights = 0;
    for (const Mutation &m : batch) {
        switch (m.kind) {
          case MutationKind::InsertEdge: ++inserts; break;
          case MutationKind::DeleteEdge: ++deletes; break;
          case MutationKind::UpdateWeight: ++reweights; break;
        }
        EXPECT_LT(m.src, csr.numNodes());
        EXPECT_LT(m.dst, csr.numNodes());
        if (m.kind != MutationKind::DeleteEdge) {
            EXPECT_GE(m.weight, 1u);
            EXPECT_LE(m.weight, spec.maxWeight);
        }
    }
    EXPECT_EQ(inserts, 12u);
    EXPECT_EQ(deletes, 6u);
    EXPECT_EQ(reweights, 5u);
}

TEST(GenerateBatch, AlwaysPassesValidation)
{
    const graph::Csr csr = testGraph();
    DynamicGraph dg(csr);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const GeneratorSpec spec{
            .seed = seed, .inserts = 16, .deletes = 12, .reweights = 9};
        EXPECT_NO_THROW(dg.apply(generateBatch(dg.toCsr(), spec)))
            << "seed " << seed;
    }
    EXPECT_EQ(dg.epoch(), 8u);
}

/** Fold @p batch into a running FNV-1a digest field by field (Mutation
 *  has padding bytes, so its raw bytes are not a stable witness). */
std::uint64_t
foldBatch(std::uint64_t digest, const MutationBatch &batch)
{
    for (const Mutation &m : batch) {
        const std::uint64_t fields[] = {
            static_cast<std::uint64_t>(m.kind), m.src, m.dst, m.weight};
        digest = graph::fnv1a64(fields, sizeof(fields), digest);
    }
    return digest;
}

TEST(GenerateBatch, ArenaStreamEqualsTheDenseStream)
{
    // Generating straight off the live arena must draw exactly the
    // batch the dense generator draws over toCsr() — uniform and
    // suffix-dominated, on a fresh arena and after relocations and
    // deletes have scattered its segments.
    const graph::Csr csr = testGraph();
    std::uint64_t digest = graph::kFnv1aBasis;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        for (const NodeId hot : {NodeId{0}, NodeId{64}}) {
            DynamicGraph dg(csr);
            for (std::uint64_t epoch = 0; epoch <= 10; ++epoch) {
                if (epoch == 0 || epoch == 3 || epoch == 10) {
                    SCOPED_TRACE("seed " + std::to_string(seed) +
                                 " hot " + std::to_string(hot) +
                                 " epoch " + std::to_string(epoch));
                    const GeneratorSpec probe{.seed = seed,
                                              .inserts = 24,
                                              .deletes = 16,
                                              .reweights = 12,
                                              .hotSpan = hot};
                    const MutationBatch arena = generateBatch(dg, probe);
                    EXPECT_EQ(arena, generateBatch(dg.toCsr(), probe));
                    digest = foldBatch(digest, arena);
                }
                if (epoch < 10)
                    dg.apply(generateBatch(
                        dg, {.seed = 100 * seed + epoch,
                             .inserts = 30,
                             .deletes = 20,
                             .reweights = 10,
                             .hotSpan = hot}));
            }
        }
    }
    // The stream the Csr-only generator drew before the arena overload
    // existed: the refactor kept every batch byte-identical.
    EXPECT_EQ(digest, 0x92cb40fa50fe7ff0ull);
}

TEST(GenerateBatch, ClampsDeletesOnSparseGraphs)
{
    graph::CooEdges coo(4);
    coo.add(0, 1, 1);
    coo.add(1, 2, 1);
    const graph::Csr csr = graph::Csr::fromCoo(coo);
    const GeneratorSpec spec{.seed = 3, .deletes = 10};
    const MutationBatch batch = generateBatch(csr, spec);
    EXPECT_LE(batch.size(), 2u);
    DynamicGraph dg(csr);
    EXPECT_NO_THROW(dg.apply(batch));
}

TEST(MutationLog, RoundTripsThroughText)
{
    MutationLog log;
    // Deletes carry no weight in the text form; keep the in-memory
    // default (1) so the round trip compares equal field-for-field.
    log.append({{MutationKind::InsertEdge, 0, 5, 9},
                {MutationKind::DeleteEdge, 3, 1, 1},
                {MutationKind::UpdateWeight, 2, 2, 44}});
    log.append({}); // an epoch with no changes is still an epoch
    log.append(generateBatch(testGraph(),
                             {.seed = 9, .inserts = 8, .deletes = 4}));

    std::stringstream text;
    log.save(text);
    const MutationLog loaded = MutationLog::load(text);
    ASSERT_EQ(loaded.size(), 3u);
    EXPECT_EQ(loaded.batches(), log.batches());
    EXPECT_EQ(loaded.totalMutations(), log.totalMutations());
}

TEST(MutationLog, LoadSkipsComments)
{
    std::istringstream in("# recorded stream\nbatch 0 1\n+ 1 2 7\n");
    const MutationLog log = MutationLog::load(in);
    ASSERT_EQ(log.size(), 1u);
    const MutationBatch expected{{MutationKind::InsertEdge, 1, 2, 7}};
    EXPECT_EQ(log.batches()[0], expected);
}

TEST(MutationLog, ParseErrorsAreTypedAndNameTheLine)
{
    const std::string bad_inputs[] = {
        "garbage\n",
        "batch 0 1\n+ 1\n",          // truncated insert
        "batch 0 1\n? 1 2 3\n",      // unknown opcode
        "batch 0 2\n+ 1 2 3\n",      // fewer mutations than promised
        "+ 1 2 3\n",                 // mutation before any batch header
    };
    for (const std::string &text : bad_inputs) {
        SCOPED_TRACE(text);
        std::istringstream in(text);
        try {
            MutationLog::load(in);
            ADD_FAILURE() << "expected MutationError";
        } catch (const MutationError &error) {
            EXPECT_EQ(error.kind(), MutationErrorKind::Parse);
            EXPECT_GE(error.index(), 1u);
        }
    }
}

TEST(MutationErrors, KindNames)
{
    EXPECT_EQ(mutationErrorKindName(MutationErrorKind::SourceOutOfRange),
              "source-out-of-range");
    EXPECT_EQ(mutationErrorKindName(MutationErrorKind::MissingEdge),
              "missing-edge");
    EXPECT_EQ(mutationErrorKindName(MutationErrorKind::Parse), "parse");
}

} // namespace
} // namespace tigr::dynamic
