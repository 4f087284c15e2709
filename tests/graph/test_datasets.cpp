/**
 * @file
 * Tests for the Table 3 dataset stand-ins: shape fidelity to the paper's
 * datasets and the Section 5 K-selection heuristic.
 */
#include <ostream>

#include <gtest/gtest.h>

#include "graph/datasets.hpp"
#include "graph/stats.hpp"

namespace tigr::graph {

// gtest names each DatasetShape case in --gtest_list_tests (and so in
// ctest) by printing its parameter. Without this overload it prints a
// byte dump whose leading std::string pointer changes from run to run.
void
PrintTo(const DatasetSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace {

TEST(Datasets, SixStandardDatasetsInPaperOrder)
{
    const auto &specs = standardDatasets();
    ASSERT_EQ(specs.size(), 6u);
    EXPECT_EQ(specs[0].name, "pokec");
    EXPECT_EQ(specs[1].name, "livejournal");
    EXPECT_EQ(specs[2].name, "hollywood");
    EXPECT_EQ(specs[3].name, "orkut");
    EXPECT_EQ(specs[4].name, "sinaweibo");
    EXPECT_EQ(specs[5].name, "twitter");
}

TEST(Datasets, FindByName)
{
    EXPECT_TRUE(findDataset("orkut").has_value());
    EXPECT_FALSE(findDataset("facebook").has_value());
}

TEST(Datasets, GenerationIsDeterministic)
{
    const DatasetSpec &spec = standardDatasets()[0];
    Csr a = makeDataset(spec, 0.2);
    Csr b = makeDataset(spec, 0.2);
    EXPECT_EQ(a, b);
}

TEST(Datasets, ScaleShrinksGraph)
{
    const DatasetSpec &spec = standardDatasets()[0];
    Csr full = makeDataset(spec, 0.5);
    Csr small = makeDataset(spec, 0.1);
    EXPECT_GT(full.numEdges(), 3 * small.numEdges());
}

TEST(Datasets, UnweightedVariantHasUnitWeights)
{
    Csr g = makeDataset(standardDatasets()[0], 0.1, /*weighted=*/false);
    for (Weight w : g.weights())
        EXPECT_EQ(w, 1u);
}

TEST(Datasets, WeightedVariantInRange)
{
    Csr g = makeDataset(standardDatasets()[0], 0.1, /*weighted=*/true);
    for (Weight w : g.weights()) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 64u);
    }
}

class DatasetShape : public ::testing::TestWithParam<DatasetSpec>
{
};

TEST_P(DatasetShape, PowerLawTailLikePaper)
{
    const DatasetSpec &spec = GetParam();
    Csr g = makeDataset(spec, 0.25);
    DegreeStats s = degreeStats(g);
    // All six paper datasets are power-law: the max degree dwarfs the
    // mean and the distribution is strongly unequal.
    EXPECT_GT(static_cast<double>(s.maxDegree), 8.0 * s.meanDegree)
        << spec.name;
    EXPECT_GT(s.gini, 0.25) << spec.name;
}

TEST_P(DatasetShape, SizesScaleWithSpec)
{
    const DatasetSpec &spec = GetParam();
    Csr g = makeDataset(spec, 0.25);
    // Self-loop removal trims a little; stay within 20% of the recipe.
    EXPECT_GT(g.numEdges(), spec.edges / 5);
    EXPECT_LE(g.numNodes(), spec.nodes);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetShape, ::testing::ValuesIn(standardDatasets()),
    [](const ::testing::TestParamInfo<DatasetSpec> &info) {
        return info.param.name;
    });

TEST(ChooseUdtK, StaircaseMatchesPaperTable3)
{
    // Paper: dmax 8.8k -> 500, 11k..15k -> 1000, 33k -> 1000(ish),
    // 278k..698k -> 10000.
    EXPECT_EQ(chooseUdtK(8800), 500u);
    EXPECT_EQ(chooseUdtK(15000), 500u);   // 15000/16 = 937 -> 500
    EXPECT_EQ(chooseUdtK(33000), 1000u);  // 2062 -> 1000
    EXPECT_EQ(chooseUdtK(278000), 10000u);
    EXPECT_EQ(chooseUdtK(698000), 10000u);
}

TEST(ChooseUdtK, SmallGraphsClampToTen)
{
    EXPECT_EQ(chooseUdtK(0), 10u);
    EXPECT_EQ(chooseUdtK(16), 10u);
    EXPECT_EQ(chooseUdtK(200), 10u);
}

TEST(ChooseUdtK, MonotoneInMaxDegree)
{
    NodeId prev = 0;
    for (EdgeIndex d : {10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL,
                        1000000ULL}) {
        NodeId k = chooseUdtK(d);
        EXPECT_GE(k, prev);
        prev = k;
    }
}

} // namespace
} // namespace tigr::graph
