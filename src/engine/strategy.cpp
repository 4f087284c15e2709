#include "engine/strategy.hpp"

namespace tigr::engine {

std::string_view
strategyName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::Baseline:
        return "baseline";
      case Strategy::TigrUdt:
        return "tigr-udt";
      case Strategy::TigrV:
        return "tigr-v";
      case Strategy::TigrVPlus:
        return "tigr-v+";
      case Strategy::MaximumWarp:
        return "mw";
      case Strategy::Cusha:
        return "cusha";
      case Strategy::Gunrock:
        return "gunrock";
    }
    return "?";
}

std::optional<Strategy>
parseStrategy(std::string_view name)
{
    for (Strategy strategy : kAllStrategies)
        if (strategyName(strategy) == name)
            return strategy;
    return std::nullopt;
}

std::string_view
algorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::Bfs:
        return "BFS";
      case Algorithm::Sssp:
        return "SSSP";
      case Algorithm::Sswp:
        return "SSWP";
      case Algorithm::Cc:
        return "CC";
      case Algorithm::Pr:
        return "PR";
      case Algorithm::Bc:
        return "BC";
    }
    return "?";
}

ScheduleSide
scheduleSide(Algorithm algorithm, Strategy strategy, Direction direction)
{
    if (algorithm == Algorithm::Bc)
        return ScheduleSide::Forward;
    if (direction == Direction::Pull ||
        (algorithm == Algorithm::Pr && strategy == Strategy::Cusha))
        return ScheduleSide::Reversed;
    return ScheduleSide::Forward;
}

CostModel
costModelFor(Strategy strategy)
{
    // Constants reflect each framework's per-edge work in its published
    // kernel structure:
    //  - baseline/Tigr kernels (Algorithms 2 and 3) do a load, an
    //    extend, a compare-and-swap per edge: 3 instruction slots, plus
    //    a small per-thread prologue (id mapping, bounds);
    //  - maximum warp adds intra-warp coordination per lane;
    //  - CuSha touches wider shard records (src id, dst id, src value
    //    snapshot) per edge and runs a second apply pass over the
    //    windows; in traversal kernels its src-value refresh phase
    //    still scatters (scatterPerEdge 1), while its pull-mode
    //    PageRank reads everything from sequential shard entries (the
    //    engine sets scatter 0 on that path) — the reason CuSha
    //    dominates PR-style all-active workloads;
    //  - Gunrock's load-balanced advance pays merge-path search,
    //    frontier-queue atomics, and duplicate frontier entries per
    //    edge (scatterPerEdge 2), and runs a separate filter kernel
    //    each iteration — which is why the paper's own baseline beats
    //    it on several inputs.
    switch (strategy) {
      case Strategy::Baseline:
      case Strategy::TigrUdt:
      case Strategy::TigrV:
      case Strategy::TigrVPlus:
        return {4, 3, 0, 1};
      case Strategy::MaximumWarp:
        return {5, 3, 0, 1};
      case Strategy::Cusha:
        return {3, 5, 0, 1};
      case Strategy::Gunrock:
        return {4, 10, 1, 2};
    }
    return {};
}

std::size_t
modeledFootprintBytes(Strategy strategy, Algorithm algorithm,
                      std::uint64_t nodes, std::uint64_t edges,
                      std::uint64_t virtual_nodes)
{
    // Paper-unit CSR: 4-byte node offsets, 4-byte edge targets, 4-byte
    // weights, plus one 4-byte value and a worklist flag per node.
    const std::size_t n = nodes;
    const std::size_t m = edges;
    const std::size_t base = (n + 1) * 4 + m * 8;
    const std::size_t values = n * 8;

    switch (strategy) {
      case Strategy::Baseline:
      case Strategy::TigrUdt:
      case Strategy::MaximumWarp:
        return base + values;
      case Strategy::TigrV:
      case Strategy::TigrVPlus:
        // Virtual node array: {physicalId, edgePointer} per entry.
        return base + values + virtual_nodes * 8;
      case Strategy::Cusha:
        // G-Shards store (src, dst, src-value, shard-index) per edge
        // and keep the CSR for shard construction: ~3x the base
        // representation. At the paper's dataset sizes this puts
        // twitter and sinaweibo past 8 GB, matching its OOM cells.
        return 3 * base + values;
      case Strategy::Gunrock:
        // Advance/filter workspaces scale with edges (~1.5x base) plus
        // per-node frontier and label buffers; BFS's idempotent mode
        // triples the per-node buffers (visited bitmaps, two-level
        // queues), which is why the paper's Gunrock runs out of memory
        // on sinaweibo (59M nodes) for BFS but not for SSSP.
        return base * 3 / 2 +
               n * (algorithm == Algorithm::Bfs ? 48 : 16);
    }
    return base;
}

std::size_t
modeledFootprintBytes(Strategy strategy, Algorithm algorithm,
                      const graph::Csr &graph,
                      std::uint64_t virtual_nodes)
{
    return modeledFootprintBytes(strategy, algorithm, graph.numNodes(),
                                 graph.numEdges(), virtual_nodes);
}

double
cyclesToMs(std::uint64_t cycles)
{
    constexpr double cycles_per_ms = 1.2e6; // 1.2 GHz modeled clock
    return static_cast<double>(cycles) / cycles_per_ms;
}

} // namespace tigr::engine
