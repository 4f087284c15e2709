/**
 * @file
 * The lockstep warp execution model: the accounting core of the GPU
 * substitute substrate.
 *
 * Engines execute graph semantics themselves (on the host) and describe
 * each simulated thread's work to the simulator as a ThreadWork record;
 * the simulator derives warp occupancy, SIMD-lane idling, coalesced
 * memory transactions, per-SM load, and total kernel cycles from those
 * records. This keeps simulation O(total work) while charging exactly
 * the costs the paper's analysis is about.
 *
 * Edge-array slots are opaque addresses to the simulator: an
 * arena-side provider (engine/family_provider.hpp) hands it slots
 * in the DynamicGraph slack arena rather than a dense CSR, which can
 * shift memTransactions/coalescing accounting (segments relocate to
 * the arena tail as a graph mutates) but never any analysis value —
 * the engines compute semantics from the provider's edges, not from
 * the simulated addresses.
 */
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "par/parallel_for.hpp"
#include "sim/gpu_config.hpp"

namespace tigr::sim {

/**
 * One simulated thread's work in a kernel launch.
 *
 * Edge-array accesses are described compactly as an arithmetic sequence
 * of slots (start + stride * j, j < edgeCount), which covers the
 * baseline (stride 1, count = degree), Tigr-V (stride 1, count <= K) and
 * Tigr-V+ (stride = family size) access patterns alike.
 */
struct ThreadWork
{
    /** Instructions this lane issues (edge loop + epilogue). */
    std::uint32_t instructions = 0;
    /** Number of edge-array slots the lane reads. */
    std::uint32_t edgeCount = 0;
    /** First edge-array slot. */
    std::uint64_t edgeStart = 0;
    /** Distance between consecutive slots. */
    std::uint64_t edgeStride = 1;
    /** Bytes per edge record (target id + weight). */
    std::uint32_t bytesPerEdge = 8;
    /** Scattered value-array accesses per edge: 1 for a plain push
     *  (the atomicMin on distance[nbr]), 2 for engines that also touch
     *  scattered bookkeeping per edge (Gunrock's frontier atomics and
     *  label checks), 0 for windowed/sequential value updates (CuSha's
     *  shard windows), which coalesce instead. */
    std::uint32_t scatterAccessesPerEdge = 1;
};

/**
 * The work of one lane of a frontier-maintenance pass (Gunrock-style
 * compaction / filter): an activity-flag test plus a compacted-slot
 * write, no edge traffic. Engines running a sparse-frontier iteration
 * charge one extra launch of |frontier| such threads, so the simulated
 * cost of frontier compaction scales with the real frontier size
 * instead of being free.
 */
inline ThreadWork
frontierPassWork()
{
    ThreadWork work;
    work.instructions = 2;
    work.edgeCount = 0;
    work.scatterAccessesPerEdge = 0;
    return work;
}

/** Counters produced by one kernel launch (or aggregated over many). */
struct KernelStats
{
    std::uint64_t launches = 0;        ///< Kernel launches accounted.
    std::uint64_t threads = 0;         ///< Threads scheduled.
    std::uint64_t warps = 0;           ///< Warps scheduled.
    std::uint64_t cycles = 0;          ///< Total kernel cycles.
    std::uint64_t instructions = 0;    ///< Useful lane instructions.
    std::uint64_t laneSlots = 0;       ///< Issued lane-cycles
                                       ///< (warps x warpSize x depth).
    std::uint64_t memTransactions = 0; ///< Coalesced edge-array
                                       ///< transactions.
    std::uint64_t memAccesses = 0;     ///< Lane-level edge accesses.
    std::uint64_t valueTransactions = 0; ///< Scattered value-array
                                         ///< transactions (1 per edge
                                         ///< when modeled).
    std::uint64_t busiestSmCycles = 0;   ///< Cycles of the most loaded
                                         ///< SM (summed over launches).
    std::uint64_t totalSmCycles = 0;     ///< Cycles summed over all SMs.
    std::uint32_t smCount = 0;           ///< SMs in the configuration.

    /** SIMD efficiency: useful lane instructions over issued lane
     *  slots — the paper's "warp efficiency" (Table 8). */
    double
    warpEfficiency() const
    {
        return laneSlots == 0
                   ? 1.0
                   : static_cast<double>(instructions) /
                         static_cast<double>(laneSlots);
    }

    /** Average memory accesses served per transaction (32 = perfectly
     *  coalesced 4-byte loads, 1 = fully scattered). */
    double
    coalescingFactor() const
    {
        return memTransactions == 0
                   ? 1.0
                   : static_cast<double>(memAccesses) /
                         static_cast<double>(memTransactions);
    }

    /** Inter-warp (SM-level) load imbalance, Section 2.3's second
     *  effect: 0 = every SM equally busy, values toward 1 = one SM
     *  did nearly all the work while others idled. */
    double
    smImbalance() const
    {
        if (busiestSmCycles == 0 || smCount == 0)
            return 0.0;
        double ideal = static_cast<double>(totalSmCycles) /
                       static_cast<double>(smCount);
        return 1.0 - ideal / static_cast<double>(busiestSmCycles);
    }

    /** Accumulate another launch's counters. */
    KernelStats &operator+=(const KernelStats &other);

    /** Field-wise equality (the determinism tests' workhorse). */
    bool operator==(const KernelStats &other) const = default;
};

/**
 * Lockstep warp simulator.
 *
 * launch() groups consecutive thread ids into warps of warpSize lanes,
 * charges each warp max-over-lanes instruction depth (idle lanes burn
 * issue slots — Figure 3 of the paper), counts one memory transaction
 * per distinct memSegmentBytes-aligned segment touched by the warp per
 * lockstep edge access, assigns warps round-robin to SMs, and reports
 * kernel cycles as the busiest SM's total plus launch overhead.
 */
class WarpSimulator
{
  public:
    /** @throws std::invalid_argument when @p config fails
     *  GpuConfig::validate(). */
    explicit WarpSimulator(const GpuConfig &config = {})
        : config_(config)
    {
        config_.validate();
        segmentShift_ = static_cast<unsigned>(
            std::countr_zero(config_.memSegmentBytes));
    }

    /** The configuration in use. */
    const GpuConfig &config() const { return config_; }

    /**
     * Simulate a kernel of @p num_threads threads. @p work_of is called
     * once per thread id, in order, and must return that thread's
     * ThreadWork. This serial form accepts impure callbacks (callers
     * may run graph semantics inside work_of).
     */
    template <typename WorkFn>
    KernelStats
    launch(std::uint64_t num_threads, WorkFn &&work_of)
    {
        KernelStats stats;
        stats.launches = 1;
        stats.threads = num_threads;

        const unsigned warp_size = config_.warpSize;
        smCycles_.assign(config_.numSms, 0);
        scratch_.resize(warp_size);

        std::uint64_t warp_index = 0;
        for (std::uint64_t base = 0; base < num_threads;
             base += warp_size, ++warp_index) {
            const unsigned lanes = static_cast<unsigned>(
                std::min<std::uint64_t>(warp_size, num_threads - base));
            for (unsigned lane = 0; lane < lanes; ++lane)
                scratch_.lanes[lane] = work_of(base + lane);
            std::uint64_t warp_cycles =
                simulateWarp(lanes, warp_size, stats, scratch_);
            smCycles_[warp_index % config_.numSms] += warp_cycles;
            ++stats.warps;
        }

        stats.cycles = config_.kernelLaunchCycles;
        stats.smCount = config_.numSms;
        if (!smCycles_.empty()) {
            stats.busiestSmCycles =
                *std::max_element(smCycles_.begin(), smCycles_.end());
            stats.cycles += stats.busiestSmCycles;
            for (std::uint64_t sm : smCycles_)
                stats.totalSmCycles += sm;
        }
        return stats;
    }

    /**
     * Parallel overload: simulate the launch across the pool's host
     * threads. @p work_of MUST be pure — callable concurrently for
     * distinct thread ids with no side effects — which is why the
     * engines describe units instead of executing semantics here.
     *
     * Warps are cut into fixed chunks; each chunk produces a partial
     * KernelStats plus a partial per-SM cycle vector, and partials are
     * merged in chunk order. All counters are integer sums and the
     * warp -> SM assignment (warp index mod numSms) is position-based,
     * so the result is bit-identical to the serial overload for every
     * pool size (including a null pool, which falls back to it).
     */
    template <typename WorkFn>
    KernelStats
    launch(std::uint64_t num_threads, WorkFn &&work_of,
           par::ThreadPool *pool)
    {
        const unsigned warp_size = config_.warpSize;
        const std::uint64_t num_warps =
            (num_threads + warp_size - 1) / warp_size;
        if (pool == nullptr || pool->threads() <= 1 ||
            num_warps <= kWarpGrain) {
            return launch(num_threads, work_of);
        }

        struct Partial
        {
            KernelStats stats;
            std::vector<std::uint64_t> smCycles;
        };
        const std::uint64_t chunks =
            par::chunkCount(num_warps, kWarpGrain);
        std::vector<Partial> partials(chunks);
        par::PerWorker<WarpScratch> scratch(pool);

        par::forEachChunk(
            pool, num_warps, kWarpGrain,
            [&](std::uint64_t chunk, std::uint64_t warp_begin,
                std::uint64_t warp_end, unsigned worker) {
                Partial &part = partials[chunk];
                part.smCycles.assign(config_.numSms, 0);
                WarpScratch &ws = scratch[worker];
                ws.resize(warp_size);
                for (std::uint64_t w = warp_begin; w < warp_end; ++w) {
                    const std::uint64_t base =
                        w * static_cast<std::uint64_t>(warp_size);
                    const unsigned lanes = static_cast<unsigned>(
                        std::min<std::uint64_t>(warp_size,
                                                num_threads - base));
                    for (unsigned lane = 0; lane < lanes; ++lane)
                        ws.lanes[lane] = work_of(base + lane);
                    const std::uint64_t warp_cycles =
                        simulateWarp(lanes, warp_size, part.stats, ws);
                    part.smCycles[w % config_.numSms] += warp_cycles;
                }
            });

        KernelStats stats;
        stats.launches = 1;
        stats.threads = num_threads;
        stats.warps = num_warps;
        smCycles_.assign(config_.numSms, 0);
        for (const Partial &part : partials) {
            stats.instructions += part.stats.instructions;
            stats.laneSlots += part.stats.laneSlots;
            stats.memTransactions += part.stats.memTransactions;
            stats.memAccesses += part.stats.memAccesses;
            stats.valueTransactions += part.stats.valueTransactions;
            for (std::uint32_t sm = 0; sm < config_.numSms; ++sm)
                smCycles_[sm] += part.smCycles[sm];
        }
        stats.cycles = config_.kernelLaunchCycles;
        stats.smCount = config_.numSms;
        if (!smCycles_.empty()) {
            stats.busiestSmCycles =
                *std::max_element(smCycles_.begin(), smCycles_.end());
            stats.cycles += stats.busiestSmCycles;
            for (std::uint64_t sm : smCycles_)
                stats.totalSmCycles += sm;
        }
        return stats;
    }

  private:
    /** Reusable per-warp simulation buffers (one per host worker in
     *  the parallel overload). */
    struct WarpScratch
    {
        /** One interleaved lane still issuing edge loads: the byte
         *  address of its next access, the bytes between accesses,
         *  and its access count. */
        struct Stream
        {
            std::uint64_t address = 0;
            std::uint64_t step = 0;
            std::uint32_t count = 0;
        };

        std::vector<ThreadWork> lanes;
        std::vector<Stream> streams;
        std::vector<std::uint64_t> segments;

        /** Size every buffer for one warp; no step allocates. */
        void
        resize(unsigned warp_size)
        {
            lanes.resize(warp_size);
            streams.resize(warp_size);
            segments.resize(warp_size);
        }
    };

    /** Warps per parallel-simulation chunk (4096 threads at warp 32);
     *  fixed so the chunk structure never depends on thread count. */
    static constexpr std::uint64_t kWarpGrain = 128;

    /** Charge one warp; returns the warp's cycle cost. Reads only the
     *  configuration, so it is safe to call concurrently with distinct
     *  scratch and stats objects. */
    std::uint64_t simulateWarp(unsigned lanes, unsigned warp_size,
                               KernelStats &stats,
                               WarpScratch &scratch) const;

    GpuConfig config_;
    /** log2(memSegmentBytes). */
    unsigned segmentShift_ = 0;
    std::vector<std::uint64_t> smCycles_;
    WarpScratch scratch_;
};

} // namespace tigr::sim
