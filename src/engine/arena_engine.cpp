#include "engine/arena_engine.hpp"

#include <chrono>
#include <stdexcept>

#include "algorithms/semirings.hpp"
#include "engine/arena_provider.hpp"
#include "engine/pagerank.hpp"

namespace tigr::engine {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

} // namespace

ArenaEngine::ArenaEngine(
    const dynamic::DynamicGraph &graph,
    const dynamic::IncrementalVirtualizer *forward_virt,
    const dynamic::IncrementalVirtualizer *reverse_virt,
    EngineOptions options)
    : graph_(graph), forwardVirt_(forward_virt),
      reverseVirt_(reverse_virt), options_(std::move(options)),
      layout_(options_.strategy == Strategy::TigrVPlus
                  ? transform::EdgeLayout::Coalesced
                  : transform::EdgeLayout::Consecutive),
      sim_(options_.gpu)
{
    if (options_.strategy != Strategy::TigrV &&
        options_.strategy != Strategy::TigrVPlus) {
        throw std::invalid_argument(
            "tigr: arena-served analyses require a virtual strategy "
            "(tigr-v / tigr-v+); every other strategy needs a dense "
            "materialization");
    }
    const unsigned threads = par::resolveThreads(options_.threads);
    if (threads > 1)
        pool_ = std::make_unique<par::ThreadPool>(threads);
}

ArenaEngine::~ArenaEngine() = default;

unsigned
ArenaEngine::hostThreads() const
{
    return pool_ ? pool_->threads() : 1;
}

bool
ArenaEngine::maintainedUsable(dynamic::GraphSide side) const
{
    const dynamic::IncrementalVirtualizer *virt =
        side == dynamic::GraphSide::Out ? forwardVirt_ : reverseVirt_;
    return virt != nullptr && !options_.dynamicMapping &&
           virt->addressing() == dynamic::StartAddressing::Arena &&
           virt->side() == side &&
           virt->degreeBound() == options_.degreeBound &&
           virt->layout() == layout_;
}

std::uint64_t
ArenaEngine::unitCount(dynamic::GraphSide side) const
{
    if (maintainedUsable(side)) {
        const dynamic::IncrementalVirtualizer *virt =
            side == dynamic::GraphSide::Out ? forwardVirt_
                                            : reverseVirt_;
        return virt->numEntries();
    }
    std::uint64_t total = 0;
    for (NodeId v = 0; v < graph_.numNodes(); ++v) {
        const EdgeIndex d = side == dynamic::GraphSide::Out
                                ? graph_.degree(v)
                                : graph_.inDegree(v);
        total += transform::familySize(d, options_.degreeBound);
    }
    return total;
}

template <typename Fn>
decltype(auto)
ArenaEngine::withProvider(dynamic::GraphSide side, Fn &&fn)
{
    if (maintainedUsable(side)) {
        if (side == dynamic::GraphSide::Out) {
            ArenaVirtualProvider provider(graph_, *forwardVirt_);
            return fn(provider);
        }
        ReverseArenaVirtualProvider provider(graph_, *reverseVirt_);
        return fn(provider);
    }
    ArenaSideProvider provider(graph_, side, options_.degreeBound,
                               layout_);
    return fn(provider);
}

PushOptions
ArenaEngine::pushOptions() const
{
    PushOptions push;
    push.worklist = options_.worklist;
    push.syncRelaxation = options_.syncRelaxation;
    push.maxIterations = options_.maxIterations;
    push.pool = pool_.get();
    push.cancel = options_.cancel;
    push.frontier = options_.frontier;
    push.frontierRatio = options_.frontierRatio;
    push.pullWorklist = options_.pullWorklist;
    push.trace = options_.trace;
    push.traceTickBase = tracedCycles_;
    return push;
}

void
ArenaEngine::traceRunBegin(Algorithm algorithm,
                           dynamic::GraphSide side)
{
    if (!options_.trace)
        return;
    obs::TraceEvent begin;
    begin.tick = tracedCycles_;
    begin.kind = obs::EventKind::RunBegin;
    begin.label[0] = algorithmName(algorithm);
    begin.label[1] = strategyName(options_.strategy);
    begin.label[2] =
        options_.direction == Direction::Pull ? "pull" : "push";
    begin.label[3] = frontierModeName(options_.frontier);
    begin.arg[0] = graph_.numNodes();
    begin.arg[1] = options_.worklist ? 1 : 0;
    begin.arg[2] = options_.dynamicMapping ? 1 : 0;
    options_.trace->record(begin);

    obs::TraceEvent transform;
    transform.tick = tracedCycles_;
    transform.kind = obs::EventKind::Transform;
    transform.arg[0] = maintainedUsable(side) ? 1 : 0;
    transform.arg[1] =
        options_.dynamicMapping ? 0 : unitCount(side);
    options_.trace->record(transform);
}

void
ArenaEngine::traceRunEnd(const RunInfo &info)
{
    if (!options_.trace)
        return;
    obs::TraceEvent end;
    end.tick = tracedCycles_ + info.stats.cycles;
    end.kind = obs::EventKind::RunEnd;
    end.arg[0] = info.iterations;
    end.arg[1] = info.converged ? 1 : 0;
    end.arg[2] = info.cancelled ? 1 : 0;
    end.arg[3] = info.peakFrontier;
    end.arg[4] = info.sparseIterations;
    end.arg[5] = info.stats.cycles;
    options_.trace->record(end);
    tracedCycles_ += info.stats.cycles;
}

template <typename Semiring>
PushOutcome<Semiring>
ArenaEngine::runSemiring(
    std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
    bool all_active, bool unit_weights)
{
    // The pull destination filter walks forward out-neighbors of
    // changed nodes straight off the forward arena (runPull's
    // ForwardGraph only needs outNeighbors()).
    const dynamic::DynamicGraph *forward = &graph_;
    if (options_.direction == Direction::Pull) {
        return withProvider(
            dynamic::GraphSide::In, [&](const auto &provider) {
                if (unit_weights) {
                    UnitWeightProvider wrapped(provider);
                    return runPull<Semiring>(wrapped, sim_,
                                             pushOptions(), seeds,
                                             forward);
                }
                return runPull<Semiring>(provider, sim_,
                                         pushOptions(), seeds,
                                         forward);
            });
    }
    return withProvider(
        dynamic::GraphSide::Out, [&](const auto &provider) {
            if (unit_weights) {
                UnitWeightProvider wrapped(provider);
                return runPush<Semiring>(wrapped, sim_, pushOptions(),
                                         seeds, all_active);
            }
            return runPush<Semiring>(provider, sim_, pushOptions(),
                                     seeds, all_active);
        });
}

void
ArenaEngine::fillRunInfo(RunInfo &info, dynamic::GraphSide side,
                         Algorithm algorithm) const
{
    // No dense transform ever runs on this path: the "transform" is
    // the maintained virtual array, repaired when the graph mutated —
    // report it as cached reuse, with no build time to charge.
    info.transformMs = 0.0;
    info.transformCached = maintainedUsable(side);
    info.degraded = options_.degraded;
    const std::uint64_t virtual_nodes =
        options_.dynamicMapping ? 0 : unitCount(side);
    info.footprintBytes = modeledFootprintBytes(
        options_.strategy, algorithm, graph_.numNodes(),
        graph_.numEdges(), virtual_nodes);
}

DistancesResult
ArenaEngine::sssp(NodeId source)
{
    const auto host_start = std::chrono::steady_clock::now();
    const dynamic::GraphSide side = runSide();
    traceRunBegin(Algorithm::Sssp, side);
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    auto outcome =
        runSemiring<algorithms::SsspSemiring>(seeds, false, false);

    DistancesResult result;
    outcome.values.resize(graph_.numNodes());
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, side, Algorithm::Sssp);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

DistancesResult
ArenaEngine::bfs(NodeId source)
{
    const auto host_start = std::chrono::steady_clock::now();
    const dynamic::GraphSide side = runSide();
    traceRunBegin(Algorithm::Bfs, side);
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    auto outcome =
        runSemiring<algorithms::SsspSemiring>(seeds, false, true);

    DistancesResult result;
    outcome.values.resize(graph_.numNodes());
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, side, Algorithm::Bfs);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

WidthsResult
ArenaEngine::sswp(NodeId source)
{
    const auto host_start = std::chrono::steady_clock::now();
    const dynamic::GraphSide side = runSide();
    traceRunBegin(Algorithm::Sswp, side);
    const std::pair<NodeId, Weight> seeds[] = {{source, kInfWeight}};
    auto outcome =
        runSemiring<algorithms::SswpSemiring>(seeds, false, false);

    WidthsResult result;
    outcome.values.resize(graph_.numNodes());
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, side, Algorithm::Sswp);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

LabelsResult
ArenaEngine::cc()
{
    const auto host_start = std::chrono::steady_clock::now();
    const dynamic::GraphSide side = runSide();
    traceRunBegin(Algorithm::Cc, side);
    std::vector<std::pair<NodeId, NodeId>> seeds;
    seeds.reserve(graph_.numNodes());
    for (NodeId v = 0; v < graph_.numNodes(); ++v)
        seeds.emplace_back(v, v);
    auto outcome =
        runSemiring<algorithms::CcSemiring>(seeds, true, false);

    LabelsResult result;
    outcome.values.resize(graph_.numNodes());
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, side, Algorithm::Cc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

RanksResult
ArenaEngine::pagerank(const PageRankOptions &pr_options)
{
    const auto host_start = std::chrono::steady_clock::now();
    const bool pull =
        pr_options.pull || options_.direction == Direction::Pull;
    const dynamic::GraphSide side =
        pull ? dynamic::GraphSide::In : dynamic::GraphSide::Out;
    const NodeId n = graph_.numNodes();
    if (n == 0)
        return {};
    traceRunBegin(Algorithm::Pr, side);
    RanksResult result = withProvider(side, [&](const auto &provider) {
        return runPageRank(
            provider, [&](NodeId v) { return graph_.degree(v); }, pull,
            1, costModelFor(options_.strategy), n, pr_options, sim_,
            pushOptions());
    });
    fillRunInfo(result.info, side, Algorithm::Pr);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

CentralityResult
ArenaEngine::bc(std::span<const NodeId> sources)
{
    const auto host_start = std::chrono::steady_clock::now();
    const NodeId n = graph_.numNodes();
    const CostModel cost = costModelFor(options_.strategy);
    traceRunBegin(Algorithm::Bc, dynamic::GraphSide::Out);

    CentralityResult result;
    result.values.assign(n, 0.0);

    std::vector<Dist> depth(n);
    std::vector<double> sigma(n);
    std::vector<double> delta(n);

    withProvider(dynamic::GraphSide::Out, [&](const auto &provider) {
        // Launch the units of a node set, running `body` per owned
        // edge — the exact structure of GraphEngine::bc.
        auto launch_nodes = [&](std::span<const NodeId> nodes,
                                auto body) {
            std::vector<WorkUnit> launch_units;
            for (NodeId v : nodes)
                provider.forEachUnitOf(v, [&](const WorkUnit &unit) {
                    launch_units.push_back(unit);
                });
            result.info.stats += sim_.launch(
                launch_units.size(), [&](std::uint64_t tid) {
                    const WorkUnit &unit = launch_units[tid];
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e =
                            unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        body(unit.valueNode, provider.edgeTarget(e));
                    }
                    sim::ThreadWork work;
                    work.instructions = cost.threadOverhead +
                                        cost.perEdge * unit.count;
                    work.edgeCount = unit.count;
                    work.edgeStart = unit.start;
                    work.edgeStride = unit.stride;
                    work.scatterAccessesPerEdge = cost.scatterPerEdge;
                    return work;
                });
            ++result.info.iterations;
        };

        for (NodeId source : sources) {
            if (options_.cancel &&
                options_.cancel(result.info.iterations,
                                result.info.stats.cycles)) {
                result.info.cancelled = true;
                result.info.converged = false;
                break;
            }
            std::fill(depth.begin(), depth.end(), kInfDist);
            std::fill(sigma.begin(), sigma.end(), 0.0);
            std::fill(delta.begin(), delta.end(), 0.0);
            depth[source] = 0;
            sigma[source] = 1.0;

            std::vector<std::vector<NodeId>> levels{{source}};
            while (!levels.back().empty()) {
                const Dist level = levels.size() - 1;
                std::vector<NodeId> next_level;
                launch_nodes(levels.back(), [&](NodeId v, NodeId dst) {
                    if (depth[dst] == kInfDist) {
                        depth[dst] = level + 1;
                        next_level.push_back(dst);
                    }
                    if (depth[dst] == level + 1)
                        sigma[dst] += sigma[v];
                });
                levels.push_back(std::move(next_level));
            }

            for (std::size_t l = levels.size(); l-- > 1;) {
                const std::vector<NodeId> &level_nodes = levels[l - 1];
                if (level_nodes.empty())
                    continue;
                const Dist level = l - 1;
                launch_nodes(level_nodes, [&](NodeId v, NodeId dst) {
                    if (depth[dst] == level + 1 && sigma[dst] > 0.0) {
                        delta[v] += sigma[v] / sigma[dst] *
                                    (1.0 + delta[dst]);
                    }
                });
            }

            for (NodeId v = 0; v < n; ++v)
                if (v != source)
                    result.values[v] += delta[v];
        }
    });
    fillRunInfo(result.info, dynamic::GraphSide::Out, Algorithm::Bc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

} // namespace tigr::engine
