#include "sim/warp_simulator.hpp"

namespace tigr::sim {

KernelStats &
KernelStats::operator+=(const KernelStats &other)
{
    launches += other.launches;
    threads += other.threads;
    warps += other.warps;
    cycles += other.cycles;
    instructions += other.instructions;
    laneSlots += other.laneSlots;
    memTransactions += other.memTransactions;
    memAccesses += other.memAccesses;
    valueTransactions += other.valueTransactions;
    busiestSmCycles += other.busiestSmCycles;
    totalSmCycles += other.totalSmCycles;
    smCount = std::max(smCount, other.smCount);
    return *this;
}

std::uint64_t
WarpSimulator::simulateWarp(unsigned lanes, unsigned warp_size,
                            KernelStats &stats,
                            WarpScratch &scratch) const
{
    // Memory model. Lanes fall into two regimes:
    //  - Interleaved lanes (stride > 1, or a single access): what
    //    matters is cross-lane coalescing within each lockstep step —
    //    loads from different lanes falling into one aligned segment
    //    merge into a single transaction. This is the Tigr-V+ family
    //    pattern (lanes read adjacent slots each step) and the
    //    edge-parallel pattern (consecutive threads read consecutive
    //    edges).
    //  - Sequential lanes (stride == 1 with multiple accesses, i.e. a
    //    thread walking its own CSR row): each lane streams through
    //    ceil(count*record/segment) segments on its own, but
    //    inter-step eviction by other warps re-fetches each segment
    //    sequentialReloadFactor times on average (capped at one
    //    transaction per access).
    //
    // Scattered value-array traffic: Algorithm 2's update of
    // distance[edges[i].nbr] touches an effectively random segment per
    // edge regardless of how the edge array is laid out, so it charges
    // one transaction per lane-level edge access. This bandwidth term
    // is identical across strategies per edge and keeps the modeled
    // kernels memory-bound, as on real hardware.
    //
    // One pass classifies every lane: sequential lanes and the value
    // traffic are charged in O(1) here, interleaved lanes become
    // address streams for the lockstep steps below.
    const std::uint64_t segment = config_.memSegmentBytes;
    // SIMD lockstep: the warp issues for as many steps as its deepest
    // lane; finished lanes keep their slots occupied (Figure 3).
    std::uint32_t max_instructions = 0;
    std::uint64_t useful = 0;
    std::uint64_t transactions = 0;
    std::uint64_t value_transactions = 0;
    std::uint64_t windowed_bytes = 0;
    std::uint32_t depth = 0; // deepest interleaved lane
    unsigned streams = 0;
    for (unsigned lane = 0; lane < lanes; ++lane) {
        const ThreadWork &work = scratch.lanes[lane];
        max_instructions = std::max(max_instructions, work.instructions);
        useful += work.instructions;
        stats.memAccesses += work.edgeCount;
        if (config_.modelValueScatter) {
            if (work.scatterAccessesPerEdge > 0) {
                value_transactions +=
                    static_cast<std::uint64_t>(work.edgeCount) *
                    work.scatterAccessesPerEdge;
            } else {
                // Windowed updates (CuSha shards) land sequentially
                // and coalesce across the whole warp; accumulate their
                // bytes and charge at half-segment efficiency below.
                windowed_bytes +=
                    static_cast<std::uint64_t>(work.edgeCount) * 4;
            }
        }
        if (work.edgeCount == 0)
            continue;
        if (work.edgeStride == 1 && work.edgeCount > 1) {
            const std::uint64_t bytes =
                static_cast<std::uint64_t>(work.edgeCount) *
                work.bytesPerEdge;
            const std::uint64_t segments =
                (bytes + segment - 1) >> segmentShift_;
            transactions += std::min<std::uint64_t>(
                work.edgeCount,
                segments * config_.sequentialReloadFactor);
            continue;
        }
        // Slot (start + stride*j) sits at byte start*record +
        // j*(stride*record): the same value modulo 2^64, so stepping
        // the address reproduces the product exactly.
        scratch.streams[streams++] = {
            work.edgeStart * work.bytesPerEdge,
            work.edgeStride * work.bytesPerEdge, work.edgeCount};
        depth = std::max(depth, work.edgeCount);
    }
    stats.instructions += useful;
    stats.laneSlots +=
        static_cast<std::uint64_t>(max_instructions) * warp_size;

    // Lockstep steps: one transaction per distinct segment the live
    // streams touch. A segment equal to the previous lane's is a
    // repeat, one above every segment seen this step is new, and only
    // the rest needs a scan — exact in any lane order, and linear for
    // the monotone addresses virtual families produce. Finished
    // streams are compacted away, in order, as they end.
    std::uint64_t *seen = scratch.segments.data();
    WarpScratch::Stream *live = scratch.streams.data();
    for (std::uint32_t j = 0; j < depth; ++j) {
        unsigned distinct = 0;
        unsigned kept = 0;
        std::uint64_t last = 0;
        std::uint64_t high = 0;
        for (unsigned k = 0; k < streams; ++k) {
            WarpScratch::Stream stream = live[k];
            if (stream.count <= j)
                continue;
            const std::uint64_t seg = stream.address >> segmentShift_;
            stream.address += stream.step;
            live[kept++] = stream;
            if (distinct == 0) {
                seen[distinct++] = seg;
                last = high = seg;
                continue;
            }
            if (seg == last)
                continue;
            last = seg;
            if (seg > high) {
                seen[distinct++] = seg;
                high = seg;
                continue;
            }
            if (std::find(seen, seen + distinct, seg) == seen + distinct)
                seen[distinct++] = seg;
        }
        streams = kept;
        transactions += distinct;
    }
    stats.memTransactions += transactions;

    if (windowed_bytes > 0) {
        value_transactions +=
            (windowed_bytes * 2 + segment - 1) >> segmentShift_;
    }
    stats.valueTransactions += value_transactions;

    return static_cast<std::uint64_t>(max_instructions) *
               config_.cyclesPerInstruction +
           (transactions + value_transactions) *
               config_.cyclesPerTransaction;
}

} // namespace tigr::sim
