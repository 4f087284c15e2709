/**
 * @file
 * Whole-graph physical transformation tests: Definition 2 conditions,
 * Theorem 1 path preservation, and Corollaries 1-4 checked against the
 * sequential oracles on randomized power-law graphs.
 */
#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "par/thread_pool.hpp"
#include "ref/oracles.hpp"
#include "transform/basic_topologies.hpp"
#include "transform/properties.hpp"
#include "transform/udt.hpp"

namespace tigr::transform {
namespace {

graph::Csr
testGraph(std::uint64_t seed, bool weighted = true)
{
    graph::BuildOptions options;
    options.randomizeWeights = weighted;
    options.maxWeight = 32;
    options.weightSeed = seed;
    return graph::GraphBuilder(options).build(
        graph::rmat({.nodes = 512, .edges = 6000, .seed = seed}));
}

class ApplySweep : public ::testing::TestWithParam<Topology>
{
  protected:
    std::unique_ptr<SplitTransform> transform() const
    {
        return makeTransform(GetParam());
    }
};

TEST_P(ApplySweep, NoHighDegreeNodeSurvives)
{
    graph::Csr g = testGraph(1);
    SplitOptions options{.degreeBound = 8};
    auto result = transform()->apply(g, options);
    TopologyProperties worst = analyticProperties(
        GetParam(), g.maxOutDegree(), options.degreeBound);
    // Every node's degree is bounded by the family degree formula.
    EXPECT_LE(result.graph.maxOutDegree(), worst.newDegree);
    EXPECT_LT(result.graph.maxOutDegree(), g.maxOutDegree());
}

TEST_P(ApplySweep, RootOfIdentityForOriginalNodes)
{
    graph::Csr g = testGraph(2);
    auto result = transform()->apply(g, {.degreeBound = 8});
    ASSERT_EQ(result.originalNodes, g.numNodes());
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(result.rootOf[v], v);
    for (NodeId v = g.numNodes(); v < result.graph.numNodes(); ++v)
        EXPECT_LT(result.rootOf[v], g.numNodes());
}

TEST_P(ApplySweep, FamiliesAreDisjointAndCoverSplitNodes)
{
    graph::Csr g = testGraph(3);
    auto result = transform()->apply(g, {.degreeBound = 8});
    std::set<NodeId> seen;
    for (const FamilyInfo &family : result.families) {
        EXPECT_EQ(family.members[0], family.root);
        for (NodeId member : family.members)
            EXPECT_TRUE(seen.insert(member).second)
                << "member in two families";
    }
    // Every split node (id >= n) belongs to exactly one family.
    std::uint64_t split_nodes = result.graph.numNodes() - g.numNodes();
    std::uint64_t family_members = 0;
    for (const FamilyInfo &family : result.families)
        family_members += family.members.size() - 1;
    EXPECT_EQ(family_members, split_nodes);
    EXPECT_EQ(split_nodes, result.stats.newNodes);
}

TEST_P(ApplySweep, StatsConsistent)
{
    graph::Csr g = testGraph(4);
    auto result = transform()->apply(g, {.degreeBound = 8});
    EXPECT_EQ(result.stats.maxDegreeBefore, g.maxOutDegree());
    EXPECT_EQ(result.stats.maxDegreeAfter, result.graph.maxOutDegree());
    EXPECT_EQ(result.graph.numEdges(),
              g.numEdges() + result.stats.newEdges);
    std::uint64_t high_degree = 0;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        if (g.degree(v) > 8)
            ++high_degree;
    EXPECT_EQ(result.stats.highDegreeNodes, high_degree);
}

TEST_P(ApplySweep, Deterministic)
{
    graph::Csr g = testGraph(5);
    SplitOptions options{.degreeBound = 6};
    auto a = transform()->apply(g, options);
    auto b = transform()->apply(g, options);
    EXPECT_EQ(a.graph, b.graph);
    EXPECT_EQ(a.rootOf, b.rootOf);
}

TEST_P(ApplySweep, ParallelPlanningBitIdenticalToSerial)
{
    graph::Csr g = testGraph(14);
    SplitOptions serial{.degreeBound = 6};
    SplitOptions parallel = serial;
    parallel.threads = 4;
    auto a = transform()->apply(g, serial);
    auto b = transform()->apply(g, parallel);
    EXPECT_EQ(a.graph, b.graph);
    EXPECT_EQ(a.rootOf, b.rootOf);
    EXPECT_EQ(a.stats.newNodes, b.stats.newNodes);
}

TEST_P(ApplySweep, Corollary1ConnectivityPreserved)
{
    graph::Csr g = testGraph(6);
    auto result = transform()->apply(g, {.degreeBound = 8});
    auto original = ref::connectedComponents(g);
    auto transformed = ref::connectedComponents(result.graph);
    // Split-node ids are all >= n, so component min-labels restricted
    // to original nodes must be identical.
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(transformed[v], original[v]) << "node " << v;
}

TEST_P(ApplySweep, Corollary2DistancesPreservedWithZeroWeights)
{
    graph::Csr g = testGraph(7);
    SplitOptions options{.degreeBound = 8,
                         .weightPolicy = DumbWeightPolicy::Zero};
    auto result = transform()->apply(g, options);
    auto original = ref::dijkstra(g, 0);
    auto transformed = ref::dijkstra(result.graph, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(transformed[v], original[v]) << "node " << v;
}

TEST_P(ApplySweep, BfsEquivalenceViaUnitWeightsAndZeroDumbWeights)
{
    // BFS is SSSP on unit weights (the paper's reduction); dumb zero
    // weights keep hop counts over *original* edges intact.
    graph::Csr g = testGraph(8, /*weighted=*/false);
    SplitOptions options{.degreeBound = 8,
                         .weightPolicy = DumbWeightPolicy::Zero};
    auto result = transform()->apply(g, options);
    auto original = ref::bfsHops(g, 0);
    auto transformed = ref::dijkstra(result.graph, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(transformed[v], original[v]) << "node " << v;
}

TEST_P(ApplySweep, Corollary3WidestPathPreservedWithInfinityWeights)
{
    graph::Csr g = testGraph(9);
    SplitOptions options{.degreeBound = 8,
                         .weightPolicy = DumbWeightPolicy::Infinity};
    auto result = transform()->apply(g, options);
    auto original = ref::widestPath(g, 0);
    auto transformed = ref::widestPath(result.graph, 0);
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(transformed[v], original[v]) << "node " << v;
}

TEST_P(ApplySweep, WrongDumbWeightBreaksDistances)
{
    // Negative control: weight One on internal edges must corrupt some
    // shortest path through a split family — this is exactly why the
    // paper needs "dumb" weights.
    graph::Csr g = testGraph(10);
    SplitOptions options{.degreeBound = 4,
                         .weightPolicy = DumbWeightPolicy::One};
    auto result = transform()->apply(g, options);
    auto original = ref::dijkstra(g, 0);
    auto transformed = ref::dijkstra(result.graph, 0);
    bool any_difference = false;
    for (NodeId v = 0; v < g.numNodes(); ++v)
        any_difference |= (transformed[v] != original[v]);
    EXPECT_TRUE(any_difference);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, ApplySweep,
    ::testing::Values(Topology::Clique, Topology::Circular,
                      Topology::Star, Topology::Udt),
    [](const auto &info) {
        return std::string(topologyName(info.param));
    });

/**
 * apply() as it was built through a COO list: plan every family
 * serially, emit every edge in node order (a family's original edges
 * in slot order, then its internal edges in plan order), and
 * counting-sort the list with Csr::fromCoo. The direct CSR build must
 * reproduce it byte for byte.
 */
PhysicalTransformResult
cooReferenceApply(const SplitTransform &transform, const graph::Csr &input,
                  const SplitOptions &options)
{
    const NodeId n = input.numNodes();
    const NodeId k = options.degreeBound;
    PhysicalTransformResult result;
    result.originalNodes = n;
    result.stats.maxDegreeBefore = input.maxOutDegree();

    struct PlannedFamily
    {
        NodeId root;
        SplitPlan plan;
        NodeId firstNewId;
    };
    std::vector<PlannedFamily> planned;
    std::vector<NodeId> family_index(n, kInvalidNode);
    NodeId next_id = n;
    for (NodeId v = 0; v < n; ++v) {
        if (input.degree(v) <= k)
            continue;
        family_index[v] = static_cast<NodeId>(planned.size());
        planned.push_back({v, transform.plan(input.degree(v), k), next_id});
        next_id += planned.back().plan.memberCount - 1;
    }
    auto memberId = [](const PlannedFamily &f, std::uint32_t m) {
        return m == 0 ? f.root : f.firstNewId + (m - 1);
    };

    result.rootOf.resize(next_id);
    std::iota(result.rootOf.begin(), result.rootOf.begin() + n, 0);
    for (const PlannedFamily &f : planned) {
        FamilyInfo info{f.root, {}};
        for (std::uint32_t m = 0; m < f.plan.memberCount; ++m) {
            info.members.push_back(memberId(f, m));
            result.rootOf[memberId(f, m)] = f.root;
        }
        result.families.push_back(std::move(info));
    }

    std::mt19937_64 rng(options.seed);
    auto entryOf = [&](NodeId v) -> NodeId {
        NodeId fi = family_index[v];
        if (fi == kInvalidNode || transform.entryAtRoot())
            return v;
        const std::vector<NodeId> &members = result.families[fi].members;
        std::uniform_int_distribution<std::size_t> pick(
            0, members.size() - 1);
        return members[pick(rng)];
    };

    graph::CooEdges coo(next_id);
    for (NodeId v = 0; v < n; ++v) {
        NodeId fi = family_index[v];
        if (fi == kInvalidNode) {
            for (EdgeIndex e = input.edgeBegin(v); e < input.edgeEnd(v);
                 ++e)
                coo.add(v, entryOf(input.edgeTarget(e)),
                        input.edgeWeight(e));
            continue;
        }
        const PlannedFamily &f = planned[fi];
        EdgeIndex base = input.edgeBegin(v);
        for (EdgeIndex i = 0; i < input.degree(v); ++i)
            coo.add(memberId(f, f.plan.ownerOfEdge[i]),
                    entryOf(input.edgeTarget(base + i)),
                    input.edgeWeight(base + i));
        for (auto [from, to] : f.plan.internalEdges)
            coo.add(memberId(f, from), memberId(f, to),
                    dumbWeight(options.weightPolicy));
        result.stats.newEdges += f.plan.internalEdges.size();
        result.stats.newNodes += f.plan.memberCount - 1;
        ++result.stats.highDegreeNodes;
    }
    result.graph = graph::Csr::fromCoo(coo);
    result.stats.maxDegreeAfter = result.graph.maxOutDegree();
    return result;
}

std::unique_ptr<SplitTransform>
transformNamed(std::string_view name)
{
    if (name == "rstar")
        return std::make_unique<RecursiveStarTransform>();
    for (Topology t : {Topology::Clique, Topology::Circular,
                       Topology::Star, Topology::Udt})
        if (topologyName(t) == name)
            return makeTransform(t);
    return nullptr;
}

class DirectBuild
    : public ::testing::TestWithParam<std::tuple<std::string_view, NodeId>>
{
};

TEST_P(DirectBuild, ByteIdenticalToCooReference)
{
    const auto [name, k] = GetParam();
    const auto transform = transformNamed(name);
    ASSERT_NE(transform, nullptr);
    // Enough nodes for the row passes to cut several chunks.
    graph::BuildOptions build;
    build.randomizeWeights = true;
    build.maxWeight = 32;
    build.weightSeed = 15;
    const graph::Csr g = graph::GraphBuilder(build).build(
        graph::rmat({.nodes = 4096, .edges = 24000, .seed = 15}));
    par::ThreadPool pool(4);
    for (DumbWeightPolicy policy :
         {DumbWeightPolicy::Zero, DumbWeightPolicy::Infinity,
          DumbWeightPolicy::One}) {
        SplitOptions options{.degreeBound = k, .weightPolicy = policy};
        const PhysicalTransformResult expected =
            cooReferenceApply(*transform, g, options);
        ASSERT_GT(expected.stats.highDegreeNodes, 0u);
        for (par::ThreadPool *p : {static_cast<par::ThreadPool *>(nullptr),
                                   &pool}) {
            SCOPED_TRACE(::testing::Message()
                         << "policy " << static_cast<int>(policy)
                         << (p ? ", 4-thread pool" : ", no pool"));
            options.pool = p;
            const PhysicalTransformResult got = transform->apply(g, options);
            EXPECT_EQ(got.graph.rowOffsets(), expected.graph.rowOffsets());
            EXPECT_EQ(got.graph.colIndices(), expected.graph.colIndices());
            EXPECT_EQ(got.graph.weights(), expected.graph.weights());
            EXPECT_EQ(got.originalNodes, expected.originalNodes);
            EXPECT_EQ(got.rootOf, expected.rootOf);
            EXPECT_TRUE(got.families == expected.families);
            EXPECT_TRUE(got.stats == expected.stats);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TopologyByBound, DirectBuild,
    ::testing::Combine(::testing::Values("udt", "star", "rstar", "cliq",
                                         "circ"),
                       ::testing::Values(NodeId{2}, NodeId{3}, NodeId{8},
                                         NodeId{32})),
    [](const auto &info) {
        return std::string(std::get<0>(info.param)) + "_K" +
               std::to_string(std::get<1>(info.param));
    });

TEST(UdtApply, Corollary4IndegreePreservedAtRoots)
{
    // Push-based scheme: UDT keeps all incoming edges on the root, so
    // every original node's indegree is unchanged.
    graph::Csr g = testGraph(11);
    UdtTransform udt;
    auto result = udt.apply(g, {.degreeBound = 8});
    graph::Csr rg = g.reversed();
    graph::Csr rt = result.graph.reversed();
    for (NodeId v = 0; v < g.numNodes(); ++v)
        EXPECT_EQ(rt.degree(v), rg.degree(v)) << "node " << v;
}

TEST(UdtApply, AllDegreesBoundedByK)
{
    graph::Csr g = testGraph(12);
    UdtTransform udt;
    auto result = udt.apply(g, {.degreeBound = 8});
    EXPECT_LE(result.graph.maxOutDegree(), 8u);
}

TEST(UdtApply, AlreadyRegularGraphUntouched)
{
    graph::Csr g = graph::Csr::fromCoo(graph::ring(128));
    UdtTransform udt;
    auto result = udt.apply(g, {.degreeBound = 8});
    EXPECT_EQ(result.graph, g);
    EXPECT_EQ(result.stats.newNodes, 0u);
    EXPECT_TRUE(result.families.empty());
}

TEST(UdtApply, StarGraphBecomesUniformTree)
{
    // The most extreme input: one hub of degree 999.
    graph::Csr g = graph::Csr::fromCoo(graph::star(1000));
    UdtTransform udt;
    auto result = udt.apply(g, {.degreeBound = 10});
    EXPECT_LE(result.graph.maxOutDegree(), 10u);
    // Hub reaches every original leaf at distance 0 through the
    // zero-weight tree (all original edges had weight 1).
    auto dist = ref::dijkstra(result.graph, 0);
    for (NodeId v = 1; v < 1000; ++v)
        EXPECT_EQ(dist[v], 1u);
}

TEST(UdtApply, SpaceGrowsOnlyLinearly)
{
    graph::Csr g = testGraph(13);
    UdtTransform udt;
    auto result = udt.apply(g, {.degreeBound = 8});
    // Section 3.2: node/edge growth is O(d/K) per split node; overall
    // the edge count can grow by at most a factor of ~1/(K-1).
    EXPECT_LE(result.graph.numEdges(),
              g.numEdges() + g.numEdges() / 7 + 1);
}

} // namespace
} // namespace tigr::transform
