/**
 * @file
 * Differential test of the warp simulator's accounting: a reference
 * copy of the original step-by-step coalescing model (every lane
 * visited at every lockstep step, segments deduplicated by a linear
 * scan, segment index by division) lives here, and WarpSimulator must
 * produce field-equal KernelStats on seeded random warps — serial and
 * parallel launches alike. The generator mixes the access shapes the
 * engines produce: sequential rows, Tigr-V+ families, single accesses,
 * idle lanes, and non-monotone arena-like starts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <vector>

#include "par/thread_pool.hpp"
#include "sim/warp_simulator.hpp"

namespace tigr::sim {
namespace {

/** The original simulateWarp, kept verbatim in behaviour. */
std::uint64_t
referenceWarp(const GpuConfig &config,
              const std::vector<ThreadWork> &warp_lanes,
              unsigned warp_size, KernelStats &stats)
{
    const unsigned lanes = static_cast<unsigned>(warp_lanes.size());
    std::uint32_t max_instructions = 0;
    std::uint32_t max_edges = 0;
    std::uint64_t useful = 0;
    for (const ThreadWork &work : warp_lanes) {
        max_instructions = std::max(max_instructions, work.instructions);
        max_edges = std::max(max_edges, work.edgeCount);
        useful += work.instructions;
        stats.memAccesses += work.edgeCount;
    }
    stats.instructions += useful;
    stats.laneSlots +=
        static_cast<std::uint64_t>(max_instructions) * warp_size;

    auto is_sequential = [](const ThreadWork &work) {
        return work.edgeStride == 1 && work.edgeCount > 1;
    };
    std::uint64_t transactions = 0;
    const std::uint64_t segment = config.memSegmentBytes;
    std::vector<std::uint64_t> segments;
    for (std::uint32_t j = 0; j < max_edges; ++j) {
        segments.clear();
        for (unsigned lane = 0; lane < lanes; ++lane) {
            const ThreadWork &work = warp_lanes[lane];
            if (j >= work.edgeCount || is_sequential(work))
                continue;
            const std::uint64_t address =
                (work.edgeStart + work.edgeStride * j) *
                work.bytesPerEdge;
            const std::uint64_t seg = address / segment;
            if (std::find(segments.begin(), segments.end(), seg) ==
                segments.end())
                segments.push_back(seg);
        }
        transactions += segments.size();
    }
    for (const ThreadWork &work : warp_lanes) {
        if (!is_sequential(work))
            continue;
        const std::uint64_t bytes =
            static_cast<std::uint64_t>(work.edgeCount) *
            work.bytesPerEdge;
        const std::uint64_t count = (bytes + segment - 1) / segment;
        transactions += std::min<std::uint64_t>(
            work.edgeCount, count * config.sequentialReloadFactor);
    }
    stats.memTransactions += transactions;

    std::uint64_t value_transactions = 0;
    if (config.modelValueScatter) {
        std::uint64_t windowed_bytes = 0;
        for (const ThreadWork &work : warp_lanes) {
            if (work.scatterAccessesPerEdge > 0)
                value_transactions +=
                    static_cast<std::uint64_t>(work.edgeCount) *
                    work.scatterAccessesPerEdge;
            else
                windowed_bytes +=
                    static_cast<std::uint64_t>(work.edgeCount) * 4;
        }
        if (windowed_bytes > 0)
            value_transactions +=
                (windowed_bytes * 2 + segment - 1) / segment;
    }
    stats.valueTransactions += value_transactions;

    return static_cast<std::uint64_t>(max_instructions) *
               config.cyclesPerInstruction +
           (transactions + value_transactions) *
               config.cyclesPerTransaction;
}

/** The original serial launch over a precomputed thread list. */
KernelStats
referenceLaunch(const GpuConfig &config,
                const std::vector<ThreadWork> &threads)
{
    KernelStats stats;
    stats.launches = 1;
    stats.threads = threads.size();
    std::vector<std::uint64_t> sm_cycles(config.numSms, 0);
    std::uint64_t warp_index = 0;
    for (std::size_t base = 0; base < threads.size();
         base += config.warpSize, ++warp_index) {
        const std::size_t end =
            std::min<std::size_t>(threads.size(), base + config.warpSize);
        const std::vector<ThreadWork> lanes(threads.begin() + base,
                                            threads.begin() + end);
        sm_cycles[warp_index % config.numSms] +=
            referenceWarp(config, lanes, config.warpSize, stats);
        ++stats.warps;
    }
    stats.cycles = config.kernelLaunchCycles;
    stats.smCount = config.numSms;
    stats.busiestSmCycles =
        *std::max_element(sm_cycles.begin(), sm_cycles.end());
    stats.cycles += stats.busiestSmCycles;
    for (std::uint64_t sm : sm_cycles)
        stats.totalSmCycles += sm;
    return stats;
}

/** A random lane in one of the shapes the engines produce. */
ThreadWork
randomLane(std::mt19937_64 &rng, std::uint32_t bytes_per_edge)
{
    ThreadWork work;
    work.bytesPerEdge = bytes_per_edge;
    work.instructions = static_cast<std::uint32_t>(rng() % 64);
    work.scatterAccessesPerEdge = static_cast<std::uint32_t>(rng() % 3);
    // Counts cluster at the edges the model special-cases (0, 1) and
    // spread up to a hub-sized row.
    switch (rng() % 4) {
      case 0: work.edgeCount = static_cast<std::uint32_t>(rng() % 2); break;
      case 1: work.edgeCount = static_cast<std::uint32_t>(rng() % 8); break;
      default:
        work.edgeCount = static_cast<std::uint32_t>(rng() % 80);
        break;
    }
    // Stride 0 and 1 are the degenerate and sequential regimes; larger
    // strides are Tigr-V+ family sizes.
    switch (rng() % 4) {
      case 0: work.edgeStride = 1; break;
      case 1: work.edgeStride = rng() % 2; break;
      default: work.edgeStride = 1 + rng() % 40; break;
    }
    return work;
}

/**
 * One random kernel: warps alternate between family-like runs (lane
 * starts ascending from a base, stride = family size), arena-like runs
 * (each lane's start jumps to an unrelated slot, as relocated
 * segments do) and uniformly random lanes.
 */
std::vector<ThreadWork>
randomKernel(std::mt19937_64 &rng, std::size_t threads,
             std::uint32_t bytes_per_edge)
{
    std::vector<ThreadWork> out;
    out.reserve(threads);
    std::uint64_t base = rng() % 4096;
    while (out.size() < threads) {
        const std::uint64_t run = 1 + rng() % 48;
        const unsigned shape = static_cast<unsigned>(rng() % 3);
        const std::uint64_t family = 1 + rng() % 33;
        for (std::uint64_t i = 0; i < run && out.size() < threads; ++i) {
            ThreadWork work = randomLane(rng, bytes_per_edge);
            if (shape == 0) {
                work.edgeStart = base + i % family;
                work.edgeStride = family;
                if (i % family == family - 1)
                    base += family * work.edgeCount;
            } else if (shape == 1) {
                work.edgeStart = rng() % (std::uint64_t{1} << 20);
            } else {
                work.edgeStart = base;
                base += work.edgeCount;
            }
            out.push_back(work);
        }
        base += rng() % 512;
    }
    return out;
}

struct DiffCase
{
    unsigned warpSize;
    unsigned segmentBytes;
    std::uint32_t bytesPerEdge;
};

void
PrintTo(const DiffCase &c, std::ostream *os)
{
    *os << "warp " << c.warpSize << ", segment " << c.segmentBytes
        << ", record " << c.bytesPerEdge;
}

class SimDifferential : public ::testing::TestWithParam<DiffCase>
{};

TEST_P(SimDifferential, MatchesReferenceOnSeededRandomWarps)
{
    const DiffCase c = GetParam();
    GpuConfig config;
    config.warpSize = c.warpSize;
    config.memSegmentBytes = c.segmentBytes;
    config.numSms = 5;
    par::ThreadPool pool(3);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::mt19937_64 rng(seed * 7919 + c.warpSize + c.segmentBytes +
                            c.bytesPerEdge);
        config.modelValueScatter = seed % 5 != 0;
        const std::size_t threads = rng() % (c.warpSize * 9);
        const std::vector<ThreadWork> kernel =
            randomKernel(rng, threads, c.bytesPerEdge);
        const KernelStats expected = referenceLaunch(config, kernel);

        WarpSimulator sim(config);
        const auto work_of = [&](std::uint64_t tid) {
            return kernel[tid];
        };
        EXPECT_EQ(sim.launch(kernel.size(), work_of), expected)
            << "serial launch, seed " << seed;
        EXPECT_EQ(sim.launch(kernel.size(), work_of, &pool), expected)
            << "pooled launch, seed " << seed;
    }
}

TEST_P(SimDifferential, MatchesReferenceOnLargePooledKernel)
{
    // Enough warps to cross the parallel launch's chunking threshold.
    const DiffCase c = GetParam();
    GpuConfig config;
    config.warpSize = c.warpSize;
    config.memSegmentBytes = c.segmentBytes;
    std::mt19937_64 rng(c.warpSize * 131 + c.segmentBytes);
    const std::vector<ThreadWork> kernel =
        randomKernel(rng, c.warpSize * 700, c.bytesPerEdge);
    WarpSimulator sim(config);
    par::ThreadPool pool(4);
    EXPECT_EQ(sim.launch(kernel.size(),
                         [&](std::uint64_t tid) { return kernel[tid]; },
                         &pool),
              referenceLaunch(config, kernel));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SimDifferential,
    ::testing::Values(DiffCase{16, 32, 4}, DiffCase{16, 128, 8},
                      DiffCase{32, 32, 8}, DiffCase{32, 128, 4},
                      DiffCase{32, 128, 8}, DiffCase{64, 32, 4},
                      DiffCase{64, 128, 8}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return "warp" + std::to_string(info.param.warpSize) + "_seg" +
               std::to_string(info.param.segmentBytes) + "_rec" +
               std::to_string(info.param.bytesPerEdge);
    });

TEST(GpuConfigValidation, RejectsNonPowerOfTwoSegments)
{
    GpuConfig config;
    for (unsigned bytes : {0u, 3u, 96u, 129u}) {
        config.memSegmentBytes = bytes;
        EXPECT_THROW(WarpSimulator{config}, std::invalid_argument)
            << bytes;
    }
    for (unsigned bytes : {1u, 32u, 128u, 4096u}) {
        config.memSegmentBytes = bytes;
        EXPECT_NO_THROW(WarpSimulator{config}) << bytes;
    }
    config.memSegmentBytes = 128;
    config.warpSize = 0;
    EXPECT_THROW(WarpSimulator{config}, std::invalid_argument);
    config.warpSize = 32;
    config.numSms = 0;
    EXPECT_THROW(WarpSimulator{config}, std::invalid_argument);
}

} // namespace
} // namespace tigr::sim
