/**
 * @file
 * The PageRank loop, written once over any unit provider (Schedule or
 * FamilyProvider), for GraphEngine over either edge source.
 *
 * Push scatters each unit's rank share along its edges; pull gathers
 * the shares of each unit's in-neighbors into the unit's own node
 * (Corollary 4: shares use the original outdegrees). Either way a
 * node's share is derived once per iteration, not once per edge.
 *
 * What never changes between iterations is derived once per run.
 * Every unit is active every iteration, so each iteration's launch is
 * the same pure function of the unit list and the cost model: it is
 * simulated at the first executed iteration and its KernelStats are
 * added once per iteration, which is exactly what simulating every
 * iteration would charge — the cancel hook and the per-iteration trace
 * deltas see the same numbers.
 *
 * Float order. The scatter adds every contribution straight into the
 * next ranks on the calling thread, in unit order (and edge order
 * within a unit), so ranks are bit-identical at any thread count. Only
 * the share pass and the one-time launch simulation use the pool. A
 * chunk-logged parallel scatter would charge every contribution an
 * extra write and a serial replay, which costs more than the scatter
 * it spreads out (docs/parallelism.md).
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <vector>

#include "engine/graph_engine.hpp"
#include "engine/push_engine.hpp"
#include "par/parallel_for.hpp"

namespace tigr::engine {

/**
 * Run @p pr over @p provider's units.
 *
 * @param degree_of Outdegree of a node of the original graph (pure;
 *        called concurrently when a pool runs).
 * @param pull Gather over a provider built on the reversed graph
 *        instead of scattering over the forward one.
 * @param scatter Scattered value accesses per edge charged to the
 *        simulator (0 for CuSha's windowed shards).
 * @param n Node count of the original graph; must be nonzero.
 * @return values plus iterations, converged, cancelled and stats; the
 *         caller fills the rest of the RunInfo.
 */
template <typename Provider, typename DegreeOf>
RanksResult
runPageRank(const Provider &provider, DegreeOf &&degree_of, bool pull,
            std::uint32_t scatter, const CostModel &cost, NodeId n,
            const PageRankOptions &pr, sim::WarpSimulator &sim,
            const PushOptions &options)
{
    std::vector<WorkUnit> owned;
    std::span<const WorkUnit> units;
    if constexpr (requires { provider.allUnits(); }) {
        units = provider.allUnits();
    } else {
        provider.forEachUnit(
            [&](const WorkUnit &unit) { owned.push_back(unit); });
        units = owned;
    }

    par::ThreadPool *pool = options.pool;

    RanksResult result;
    result.values.assign(n, 1.0 / n);
    std::vector<Rank> next(n);
    std::vector<Rank> share(n);
    const Rank base = (1.0 - pr.damping) / n;
    std::optional<sim::KernelStats> launch;

    for (unsigned iter = 0; iter < pr.iterations; ++iter) {
        if (options.cancel &&
            options.cancel(result.info.iterations,
                           result.info.stats.cycles)) {
            result.info.cancelled = true;
            result.info.converged = false;
            break;
        }
        const sim::KernelStats trace_before = result.info.stats;
        par::parallelFor(
            pool, n, par::kDefaultGrain, [&](std::uint64_t v, unsigned) {
                const EdgeIndex d = degree_of(static_cast<NodeId>(v));
                share[v] = d == 0 ? 0.0
                           : pull ? result.values[v] /
                                        static_cast<Rank>(d)
                                  : pr.damping * result.values[v] /
                                        static_cast<Rank>(d);
            });
        std::fill(next.begin(), next.end(), base);
        for (const WorkUnit &unit : units) {
            auto target = [&](std::uint32_t j) {
                return provider.edgeTarget(
                    unit.start + static_cast<EdgeIndex>(unit.stride) * j);
            };
            if (pull) {
                Rank sum = 0.0;
                for (std::uint32_t j = 0; j < unit.count; ++j)
                    sum += share[target(j)];
                next[unit.valueNode] += pr.damping * sum;
            } else {
                const Rank s = share[unit.valueNode];
                for (std::uint32_t j = 0; j < unit.count; ++j)
                    next[target(j)] += s;
            }
        }
        if (!launch) {
            launch = sim.launch(
                units.size(),
                [&](std::uint64_t tid) {
                    sim::ThreadWork work =
                        detail::describeUnit(units[tid], cost);
                    work.scatterAccessesPerEdge = scatter;
                    return work;
                },
                pool);
        }
        result.info.stats += *launch;
        result.values.swap(next);
        ++result.info.iterations;
        if (options.trace)
            detail::traceIteration(options, result.info.iterations, n,
                                   false, units.size(), trace_before,
                                   result.info.stats);
        // Optional early convergence: `next` now holds the previous
        // ranks, so the round's L1 change is directly computable.
        if (pr.epsilon > 0.0) {
            double change = 0.0;
            for (NodeId v = 0; v < n; ++v)
                change += std::abs(result.values[v] - next[v]);
            if (change < pr.epsilon)
                break;
        }
    }
    return result;
}

} // namespace tigr::engine
