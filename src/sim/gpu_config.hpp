/**
 * @file
 * Configuration of the software GPU-SIMD model.
 *
 * The paper's evaluation hardware (NVIDIA Quadro P4000) is replaced by
 * this simulator per the substitution documented in DESIGN.md: the model
 * charges exactly the costs the paper reasons about — idle SIMD lanes in
 * lockstep warps, per-SM load imbalance, and memory transactions that
 * depend on access coalescing — so relative results transfer.
 */
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

namespace tigr::sim {

/** Hardware parameters of the simulated GPU. Defaults approximate the
 *  paper's Quadro P4000 (1792 cores = 14 SMs x 128 lanes). */
struct GpuConfig
{
    /** Threads per warp; NVIDIA's fixed 32. */
    unsigned warpSize = 32;

    /** Streaming multiprocessors. Warps are assigned round-robin; the
     *  kernel finishes when the busiest SM finishes, which is how
     *  inter-warp imbalance shows up (Section 2.3). */
    unsigned numSms = 14;

    /** Memory-coalescing segment size in bytes: one transaction serves
     *  all lane accesses that fall into one aligned segment. */
    unsigned memSegmentBytes = 128;

    /** Cycles charged per issued instruction slot. */
    unsigned cyclesPerInstruction = 1;

    /** Cycles charged per memory transaction. */
    unsigned cyclesPerTransaction = 8;

    /** Cache-reuse model for per-lane sequential edge streams (lane
     *  stride x record size smaller than a segment): each segment is
     *  re-fetched this many times on average before the lane finishes
     *  it, because other warps evict it between lockstep steps. 1 =
     *  perfect reuse, segmentBytes/recordBytes = no reuse at all. */
    unsigned sequentialReloadFactor = 4;

    /** Model the scattered neighbor-value access each edge performs
     *  (the atomicMin on distance[edges[i].nbr] in Algorithm 2): one
     *  transaction per edge, independent of edge-array layout. This is
     *  what makes graph kernels bandwidth-bound and keeps the modeled
     *  transformation speedups in the paper's range. */
    bool modelValueScatter = true;

    /** Fixed overhead charged per kernel launch (host-side driver
     *  work; it is what makes many tiny iterations expensive). The
     *  default is a real ~5 us launch scaled by the ~1/400 dataset
     *  scale this repository runs at, so per-iteration overhead keeps
     *  the same *relative* weight as on the paper's testbed. */
    std::uint64_t kernelLaunchCycles = 64;

    /** Throw std::invalid_argument unless the simulator can run this
     *  configuration: warps and SMs must exist, and memSegmentBytes
     *  must be a power of two (segment indices are computed with a
     *  shift). */
    void
    validate() const
    {
        if (warpSize == 0 || numSms == 0)
            throw std::invalid_argument(
                "tigr: GpuConfig needs a nonzero warpSize and numSms");
        if (!std::has_single_bit(memSegmentBytes))
            throw std::invalid_argument(
                "tigr: GpuConfig::memSegmentBytes must be a power of "
                "two");
    }
};

} // namespace tigr::sim
