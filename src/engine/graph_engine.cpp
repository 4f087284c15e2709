#include "engine/graph_engine.hpp"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <stdexcept>
#include <type_traits>

#include "algorithms/semirings.hpp"
#include "engine/family_provider.hpp"
#include "engine/pagerank.hpp"
#include "par/parallel_for.hpp"
#include "graph/datasets.hpp"
#include "transform/udt.hpp"

namespace tigr::engine {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(end - start)
        .count();
}

bool
allUnitWeights(const graph::Csr &graph)
{
    for (Weight w : graph.weights())
        if (w != 1)
            return false;
    return true;
}

bool
isVirtualStrategy(Strategy strategy)
{
    return strategy == Strategy::TigrV ||
           strategy == Strategy::TigrVPlus;
}

transform::EdgeLayout
layoutOf(Strategy strategy)
{
    return strategy == Strategy::TigrVPlus
               ? transform::EdgeLayout::Coalesced
               : transform::EdgeLayout::Consecutive;
}

/** @p virt when it can serve @p side's families under @p options,
 *  else null. */
const dynamic::IncrementalVirtualizer *
usableVirtualizer(const dynamic::IncrementalVirtualizer *virt,
                  dynamic::GraphSide side, const EngineOptions &options)
{
    const bool usable =
        virt != nullptr && !options.dynamicMapping &&
        virt->side() == side &&
        virt->degreeBound() == options.degreeBound &&
        virt->layout() == layoutOf(options.strategy);
    return usable ? virt : nullptr;
}

} // namespace

/** Per-analysis machinery. Over a CSR: the lazily built (possibly
 *  transformed or reversed) graph a schedule indexes plus the schedule
 *  itself. Over an arena: the side and its maintained virtualizer,
 *  re-read every run. */
struct GraphEngine::Context
{
    /** Owned graph storage when the context cannot reference the
     *  engine's input directly (TigrUdt's unit-weight copy, the
     *  row-sorted copy). */
    std::optional<graph::Csr> ownedGraph;
    /** UDT transformation output (TigrUdt strategy only). */
    std::optional<transform::PhysicalTransformResult> udt;
    /** Pull contexts: the reversed graph and its schedule — the
     *  injected cache entry, or a local build. */
    std::shared_ptr<const SharedSchedule> reversed;
    /** The graph whose edges the schedule indexes. */
    const graph::Csr *scheduled = nullptr;
    /** Locally built work-unit decomposition (empty under dynamic
     *  mapping, which recomputes units instead of storing them, and
     *  when a shared schedule is in use). */
    Schedule ownedSchedule;
    /** The decomposition analyses run over: &ownedSchedule, or a
     *  SharedSchedule's. */
    const Schedule *schedule = &ownedSchedule;
    /** Host time spent building this context (a shared schedule
     *  reports its original build cost). */
    double buildMs = 0.0;
    /** Set once a later analysis reuses this context, so its
     *  RunInfo::transformCached reads true; on an arena, set when a
     *  maintained virtualizer serves the side. */
    bool reusedFromCache = false;
    /** Work units the device stores for this context: 0 under dynamic
     *  mapping, where no virtual array exists. */
    std::uint64_t units = 0;
    /** Arena sources: the side the units index and its maintained
     *  virtualizer (null = on-the-fly families). */
    dynamic::GraphSide side = dynamic::GraphSide::Out;
    const dynamic::IncrementalVirtualizer *maintained = nullptr;
};

std::size_t
SharedSchedule::sizeInBytes() const
{
    return schedule.sizeInBytes() +
           (reversed ? reversed->sizeInBytes() : 0);
}

std::shared_ptr<SharedSchedule>
SharedSchedule::build(const graph::Csr &graph, ScheduleSide side,
                      Strategy strategy, NodeId degree_bound,
                      unsigned mw_virtual_warp, par::ThreadPool *pool,
                      bool with_schedule)
{
    const auto start = std::chrono::steady_clock::now();
    auto entry = std::make_shared<SharedSchedule>();
    const graph::Csr *scheduled = &graph;
    if (side == ScheduleSide::Reversed) {
        entry->reversed = graph.reversed();
        entry->reversedFrom = &graph;
        scheduled = &*entry->reversed;
    }
    if (with_schedule)
        entry->schedule = Schedule::build(*scheduled, strategy,
                                          degree_bound, mw_virtual_warp,
                                          pool);
    entry->buildMs = elapsedMs(start);
    return entry;
}

std::unique_ptr<par::ThreadPool>
enginePool(const EngineOptions &options)
{
    if (options.pool)
        return std::make_unique<par::ThreadPool>(*options.pool);
    const unsigned threads = par::resolveThreads(options.threads);
    return threads > 1 ? std::make_unique<par::ThreadPool>(threads)
                       : nullptr;
}

GraphEngine::GraphEngine(const graph::Csr &graph, EngineOptions options,
                         std::shared_ptr<const SharedSchedule> shared)
    : csr_(&graph), options_(std::move(options)),
      shared_(std::move(shared)), sim_(options_.gpu)
{
    pool_ = enginePool(options_);
    if (options_.dynamicMapping &&
        !isVirtualStrategy(options_.strategy)) {
        throw std::invalid_argument(
            "tigr: dynamic mapping reasoning only applies to the "
            "virtual strategies (tigr-v / tigr-v+)");
    }
    if (options_.direction == Direction::Pull &&
        options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: pull propagation is unsupported under the physical "
            "UDT strategy (splitting would have to key on indegrees); "
            "use a virtual strategy");
    }
}

GraphEngine::GraphEngine(const dynamic::DynamicGraph &graph,
                         const dynamic::IncrementalVirtualizer *forward,
                         const dynamic::IncrementalVirtualizer *reverse,
                         EngineOptions options)
    : arena_(&graph), options_(std::move(options)), sim_(options_.gpu)
{
    if (!isVirtualStrategy(options_.strategy)) {
        throw std::invalid_argument(
            "tigr: arena-served analyses require a virtual strategy "
            "(tigr-v / tigr-v+); every other strategy needs a dense "
            "materialization");
    }
    forwardVirt_ =
        usableVirtualizer(forward, dynamic::GraphSide::Out, options_);
    reverseVirt_ =
        usableVirtualizer(reverse, dynamic::GraphSide::In, options_);
    pool_ = enginePool(options_);
}

GraphEngine::~GraphEngine() = default;

NodeId
GraphEngine::numNodes() const
{
    return csr_ ? csr_->numNodes() : arena_->numNodes();
}

template <typename Fn>
decltype(auto)
GraphEngine::withProvider(const Context &ctx, Fn &&fn) const
{
    const NodeId k = options_.degreeBound;
    const transform::EdgeLayout layout = layoutOf(options_.strategy);
    if (arena_ && ctx.side == dynamic::GraphSide::In)
        return fn(FamilyProvider(ArenaInSide{arena_}, k, layout,
                                 ctx.maintained));
    if (arena_)
        return fn(FamilyProvider(ArenaOutSide{arena_}, k, layout,
                                 ctx.maintained));
    if (options_.dynamicMapping)
        return fn(FamilyProvider(CsrSide{ctx.scheduled}, k, layout));
    return fn(*ctx.schedule);
}

GraphEngine::Context &
GraphEngine::context(Algorithm algorithm)
{
    if (scheduleSide(algorithm, options_.strategy, options_.direction) ==
        ScheduleSide::Reversed)
        return context(ContextKind::PullReversed);
    if (algorithm == Algorithm::Sswp)
        return context(ContextKind::WeightedInf);
    // BFS runs on the weighted context through UnitWeightProvider;
    // only TigrUdt needs a unit-weight copy, whose split adds
    // zero-weight dumb edges.
    if (algorithm == Algorithm::Bfs &&
        options_.strategy == Strategy::TigrUdt)
        return context(ContextKind::UnitZero);
    return context(ContextKind::WeightedZero);
}

GraphEngine::Context &
GraphEngine::context(ContextKind kind)
{
    if (arena_) {
        // Arena contexts build nothing: the pull side gathers over the
        // reverse arena, everything else runs over the forward one.
        // Their fields are re-read every run, since the graph may
        // have mutated since the last one.
        const bool pull = kind == ContextKind::PullReversed;
        std::unique_ptr<Context> &slot =
            contexts_[pull ? kind : ContextKind::WeightedZero];
        if (!slot)
            slot = std::make_unique<Context>();
        Context &ctx = *slot;
        ctx.side = pull ? dynamic::GraphSide::In : dynamic::GraphSide::Out;
        ctx.maintained = pull ? reverseVirt_ : forwardVirt_;
        // No transform runs on this path: a maintained array is
        // cached reuse with no build time to charge.
        ctx.reusedFromCache = ctx.maintained != nullptr;
        ctx.units = options_.dynamicMapping
                        ? 0
                        : withProvider(ctx, [](const auto &provider) {
                              return provider.numUnits();
                          });
        return ctx;
    }

    auto it = contexts_.find(kind);
    if (it != contexts_.end()) {
        it->second->reusedFromCache = true;
        return *it->second;
    }

    const graph::Csr &graph = *csr_;
    auto start = std::chrono::steady_clock::now();
    auto ctx = std::make_unique<Context>();

    if (kind == ContextKind::PullReversed) {
        // The reversed graph and its schedule come as one entry: the
        // scheduler's cached one, or built here.
        if (sharedApplies(*ctx, ScheduleSide::Reversed)) {
            ctx->reversed = shared_;
            ctx->buildMs = shared_->buildMs;
            ctx->reusedFromCache = true;
        } else {
            ctx->reversed = SharedSchedule::build(
                graph, ScheduleSide::Reversed, options_.strategy,
                options_.degreeBound, options_.mwVirtualWarp,
                pool_.get(), !options_.dynamicMapping);
            ctx->buildMs = elapsedMs(start);
        }
        ctx->scheduled = &*ctx->reversed->reversed;
        ctx->schedule = &ctx->reversed->schedule;
        ctx->units =
            options_.dynamicMapping ? 0 : ctx->schedule->numUnits();
        Context &ref = *ctx;
        contexts_.emplace(kind, std::move(ctx));
        return ref;
    }

    // Pick the base graph for this analysis family.
    const graph::Csr *base = &graph;
    if (kind == ContextKind::UnitZero && !allUnitWeights(graph)) {
        graph::CooEdges coo = graph.toCoo();
        for (graph::Edge &e : coo.edges())
            e.weight = 1;
        ctx->ownedGraph = graph::Csr::fromCoo(coo);
        base = &*ctx->ownedGraph;
    } else if (kind == ContextKind::SortedRows) {
        // Row-sorted copy: each node's neighbor list ascending, for
        // two-pointer set intersections.
        graph::CooEdges coo(graph.numNodes());
        coo.reserve(graph.numEdges());
        std::vector<std::pair<NodeId, Weight>> row;
        for (NodeId v = 0; v < graph.numNodes(); ++v) {
            row.clear();
            for (EdgeIndex e = graph.edgeBegin(v);
                 e < graph.edgeEnd(v); ++e)
                row.emplace_back(graph.edgeTarget(e),
                                 graph.edgeWeight(e));
            std::sort(row.begin(), row.end());
            for (auto [target, weight] : row)
                coo.add(v, target, weight);
        }
        ctx->ownedGraph = graph::Csr::fromCoo(coo);
        base = &*ctx->ownedGraph;
    }

    // Physically transform for TigrUdt (pull and PR/BC refuse the
    // strategy up front).
    ctx->scheduled = base;
    if (options_.strategy == Strategy::TigrUdt &&
        kind != ContextKind::SortedRows) {
        transform::SplitOptions split;
        split.degreeBound =
            options_.udtBound != 0
                ? options_.udtBound
                : graph::chooseUdtK(base->maxOutDegree());
        split.weightPolicy = kind == ContextKind::WeightedInf
                                 ? transform::DumbWeightPolicy::Infinity
                                 : transform::DumbWeightPolicy::Zero;
        split.pool = pool_.get();
        ctx->udt = transform::UdtTransform{}.apply(*base, split);
        ctx->scheduled = &ctx->udt->graph;
    }

    // Under dynamic mapping the whole point is to store no unit array;
    // the provider recomputes families per use.
    if (!options_.dynamicMapping) {
        if (sharedApplies(*ctx, ScheduleSide::Forward)) {
            ctx->schedule = &shared_->schedule;
            ctx->buildMs = shared_->buildMs;
            // The decomposition was built by an earlier engine: every
            // analysis over this context reuses cached structures.
            ctx->reusedFromCache = true;
        } else {
            ctx->ownedSchedule =
                Schedule::build(*ctx->scheduled, options_.strategy,
                                options_.degreeBound,
                                options_.mwVirtualWarp, pool_.get());
            ctx->buildMs = elapsedMs(start);
        }
    } else {
        ctx->buildMs = elapsedMs(start);
    }
    ctx->units = options_.dynamicMapping ? 0 : ctx->schedule->numUnits();

    Context &ref = *ctx;
    contexts_.emplace(kind, std::move(ctx));
    return ref;
}

bool
GraphEngine::sharedApplies(const Context &ctx, ScheduleSide side) const
{
    if (!shared_ || options_.dynamicMapping || shared_->side() != side)
        return false;
    const SharedSchedule &s = *shared_;
    const bool same_graph =
        side == ScheduleSide::Reversed
            ? s.reversedFrom == csr_
            : ctx.scheduled == csr_ && &s.schedule.graph() == csr_;
    return same_graph && s.schedule.strategy() == options_.strategy &&
           s.schedule.degreeBound() == options_.degreeBound &&
           s.schedule.mwVirtualWarp() == options_.mwVirtualWarp;
}

PushOptions
GraphEngine::pushOptions() const
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
GraphEngine::traceRunBegin(Algorithm algorithm, const Context &ctx)
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
    begin.arg[0] = numNodes();
    begin.arg[1] = options_.worklist ? 1 : 0;
    begin.arg[2] = options_.dynamicMapping ? 1 : 0;
    options_.trace->record(begin);

    obs::TraceEvent transform;
    transform.tick = tracedCycles_;
    transform.kind = obs::EventKind::Transform;
    transform.arg[0] = ctx.reusedFromCache ? 1 : 0;
    transform.arg[1] = ctx.units;
    options_.trace->record(transform);
}

void
GraphEngine::traceRunEnd(const RunInfo &info)
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

template <typename Result, typename Semiring>
Result
GraphEngine::runSemiring(
    Algorithm algorithm,
    std::span<const std::pair<NodeId, typename Semiring::Value>> seeds,
    bool all_active, bool unit_weights)
{
    const auto host_start = std::chrono::steady_clock::now();
    Context &ctx = context(algorithm);
    traceRunBegin(algorithm, ctx);
    auto outcome = withProvider(ctx, [&](const auto &provider) {
        auto run = [&](const auto &units) {
            if (options_.direction == Direction::Push)
                return runPush<Semiring>(units, sim_, pushOptions(),
                                         seeds, all_active);
            // The pull destination filter walks forward out-neighbors
            // of a changed node: the arena's (an arena pull always
            // gathers over its reverse side), or the input graph's
            // (pull refuses UDT up front).
            using Provider = std::decay_t<decltype(provider)>;
            if constexpr (std::is_same_v<Provider,
                                         FamilyProvider<ArenaInSide>>)
                return runPull<Semiring>(units, sim_, pushOptions(),
                                         seeds, arena_);
            else
                return runPull<Semiring>(units, sim_, pushOptions(),
                                         seeds, csr_);
        };
        if (unit_weights)
            return run(UnitWeightProvider(provider));
        return run(provider);
    });

    Result result;
    outcome.values.resize(numNodes()); // drop split-node slots
    result.values = std::move(outcome.values);
    result.info.iterations = outcome.iterations;
    result.info.converged = outcome.converged;
    result.info.cancelled = outcome.cancelled;
    result.info.stats = outcome.stats;
    result.info.peakFrontier = outcome.peakFrontier;
    result.info.sparseIterations = outcome.sparseIterations;
    fillRunInfo(result.info, ctx, algorithm);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

void
GraphEngine::fillRunInfo(RunInfo &info, const Context &ctx,
                         Algorithm algorithm) const
{
    info.transformMs = ctx.buildMs;
    info.transformCached = ctx.reusedFromCache;
    info.degraded = options_.degraded;
    info.footprintBytes = footprint(ctx, algorithm);
}

std::size_t
GraphEngine::footprint(const Context &ctx, Algorithm algorithm) const
{
    // An arena's footprint is the live graph's; a dense context's is
    // the graph its schedule indexes (UDT's transformed one).
    if (arena_)
        return modeledFootprintBytes(options_.strategy, algorithm,
                                     arena_->numNodes(),
                                     arena_->numEdges(), ctx.units);
    return modeledFootprintBytes(options_.strategy, algorithm,
                                 *ctx.scheduled, ctx.units);
}

DistancesResult
GraphEngine::sssp(NodeId source)
{
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    return runSemiring<DistancesResult, algorithms::SsspSemiring>(
        Algorithm::Sssp, seeds, false);
}

DistancesResult
GraphEngine::bfs(NodeId source)
{
    // Hop counts are SSSP over unit weights.
    const std::pair<NodeId, Dist> seeds[] = {{source, 0}};
    return runSemiring<DistancesResult, algorithms::SsspSemiring>(
        Algorithm::Bfs, seeds, false,
        options_.strategy != Strategy::TigrUdt);
}

WidthsResult
GraphEngine::sswp(NodeId source)
{
    const std::pair<NodeId, Weight> seeds[] = {{source, kInfWeight}};
    return runSemiring<WidthsResult, algorithms::SswpSemiring>(
        Algorithm::Sswp, seeds, false);
}

LabelsResult
GraphEngine::cc()
{
    std::vector<std::pair<NodeId, NodeId>> seeds;
    seeds.reserve(numNodes());
    for (NodeId v = 0; v < numNodes(); ++v)
        seeds.emplace_back(v, v);
    return runSemiring<LabelsResult, algorithms::CcSemiring>(
        Algorithm::Cc, seeds, true);
}

RanksResult
GraphEngine::pagerank(const PageRankOptions &pr_options)
{
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: PageRank is unsupported under the physical UDT "
            "strategy (it changes outdegrees; see Corollary 4)");
    }
    const auto host_start = std::chrono::steady_clock::now();
    // CuSha's shard engine is inherently pull-based (Section 6.2 of
    // the paper explains its PR advantage with exactly this); the
    // other engines, like the paper's Tigr implementation, push.
    const bool pull = pr_options.pull ||
                      scheduleSide(Algorithm::Pr, options_.strategy,
                                   options_.direction) ==
                          ScheduleSide::Reversed;
    Context &ctx = context(pull ? ContextKind::PullReversed
                                : ContextKind::WeightedZero);
    const NodeId n = numNodes();
    if (n == 0)
        return {};
    traceRunBegin(Algorithm::Pr, ctx);
    // CuSha reads source values from sequential shard entries and
    // writes windows sequentially: no scattered traffic at all. Every
    // other engine gathers or scatters ranks through scattered slots;
    // even Gunrock's all-active advance does one atomicAdd per edge.
    const std::uint32_t scatter =
        pull && options_.strategy == Strategy::Cusha ? 0 : 1;
    // Shares use the original outdegrees (Corollary 4): the engine's
    // own input, which a reversed entry was built from.
    auto degree_of = [&](NodeId v) {
        return arena_ ? arena_->degree(v) : csr_->degree(v);
    };
    RanksResult result = withProvider(ctx, [&](const auto &provider) {
        return runPageRank(provider, degree_of, pull, scatter,
                           costModelFor(options_.strategy), n,
                           pr_options, sim_, pushOptions());
    });
    fillRunInfo(result.info, ctx, Algorithm::Pr);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

CentralityResult
GraphEngine::bc(std::span<const NodeId> sources)
{
    const auto host_start = std::chrono::steady_clock::now();
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: BC is unsupported under the physical UDT strategy "
            "(hop-count Brandes does not survive node splitting)");
    }
    Context &ctx = context(Algorithm::Bc);
    const NodeId n = numNodes();
    const CostModel cost = costModelFor(options_.strategy);
    traceRunBegin(Algorithm::Bc, ctx);

    CentralityResult result;
    result.values.assign(n, 0.0);

    std::vector<Dist> depth(n);
    std::vector<double> sigma(n);
    std::vector<double> delta(n);

    // Launch the units of a node set, running `body` per owned edge.
    auto launch_nodes = [&](std::span<const NodeId> nodes, auto body) {
        withProvider(ctx, [&](const auto &provider) {
            std::vector<WorkUnit> launch_units;
            for (NodeId v : nodes)
                provider.forEachUnitOf(v, [&](const WorkUnit &unit) {
                    launch_units.push_back(unit);
                });
            result.info.stats += sim_.launch(
                launch_units.size(), [&](std::uint64_t tid) {
                    const WorkUnit &unit = launch_units[tid];
                    for (std::uint32_t j = 0; j < unit.count; ++j) {
                        const EdgeIndex e = unit.start +
                            static_cast<EdgeIndex>(unit.stride) * j;
                        body(unit.valueNode, provider.edgeTarget(e));
                    }
                    return detail::describeUnit(unit, cost);
                });
        });
        ++result.info.iterations;
    };

    for (NodeId source : sources) {
        // Cancellation boundary: completed sources stay accumulated,
        // the remaining ones are skipped (the source list order is
        // fixed, so which sources completed is deterministic).
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

        // Forward: level-synchronous BFS accumulating path counts.
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

        // Backward: dependency accumulation, deepest level first.
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
    fillRunInfo(result.info, ctx, Algorithm::Bc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

TrianglesResult
GraphEngine::triangles()
{
    const auto host_start = std::chrono::steady_clock::now();
    if (arena_) {
        throw std::invalid_argument(
            "tigr: triangle counting needs row-sorted dense rows; run "
            "it on an engine over the materialized graph");
    }
    if (options_.strategy == Strategy::TigrUdt) {
        throw std::invalid_argument(
            "tigr: triangle counting is a neighborhood analysis and "
            "does not survive physical split transformations (see the "
            "paper's applicability discussion); use a virtual "
            "strategy, whose physical graph is untouched");
    }
    Context &ctx = context(ContextKind::SortedRows);
    traceRunBegin(Algorithm::Cc, ctx);
    const graph::Csr &g = *ctx.scheduled;
    const NodeId n = numNodes();
    const CostModel cost = costModelFor(options_.strategy);

    TrianglesResult result;
    result.perNode.assign(n, 0);

    std::vector<WorkUnit> units;
    withProvider(ctx, [&](const auto &provider) {
        provider.forEachUnit(
            [&](const WorkUnit &unit) { units.push_back(unit); });
    });

    // Chunked counting pass: per-chunk triangle totals and per-node
    // increment logs merge serially in chunk order (integer counters,
    // so any order yields the serial result), and each unit's
    // intersection step count lands in its private slot to keep the
    // subsequent simulator launch pure.
    const std::uint64_t num_chunks =
        par::chunkCount(units.size(), par::kDefaultGrain);
    std::vector<std::uint64_t> chunk_totals(num_chunks, 0);
    std::vector<std::vector<NodeId>> chunk_incs(num_chunks);
    std::vector<std::uint32_t> unit_steps(units.size(), 0);
    par::forEachChunk(
        pool_.get(), units.size(), par::kDefaultGrain,
        [&](std::uint64_t chunk, std::uint64_t begin, std::uint64_t end,
            unsigned) {
            for (std::uint64_t tid = begin; tid < end; ++tid) {
                const WorkUnit &unit = units[tid];
                const NodeId u = unit.valueNode;
                std::uint32_t intersect_steps = 0;
                for (std::uint32_t j = 0; j < unit.count; ++j) {
                    const EdgeIndex e = unit.start +
                        static_cast<EdgeIndex>(unit.stride) * j;
                    const NodeId v = g.edgeTarget(e);
                    if (v <= u)
                        continue;
                    // Two-pointer intersection of u's and v's sorted
                    // rows, restricted to w > v so each triangle counts
                    // once at its smallest vertex ordering.
                    auto row_u = g.outNeighbors(u);
                    auto row_v = g.outNeighbors(v);
                    auto iu = std::lower_bound(row_u.begin(),
                                               row_u.end(), v + 1);
                    auto iv = std::lower_bound(row_v.begin(),
                                               row_v.end(), v + 1);
                    while (iu != row_u.end() && iv != row_v.end()) {
                        ++intersect_steps;
                        if (*iu < *iv) {
                            ++iu;
                        } else if (*iv < *iu) {
                            ++iv;
                        } else {
                            ++chunk_totals[chunk];
                            auto &incs = chunk_incs[chunk];
                            incs.push_back(u);
                            incs.push_back(v);
                            incs.push_back(*iu);
                            ++iu;
                            ++iv;
                        }
                    }
                }
                unit_steps[tid] = intersect_steps;
            }
        });
    for (std::uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
        result.total += chunk_totals[chunk];
        for (NodeId v : chunk_incs[chunk])
            ++result.perNode[v];
    }

    result.info.stats += sim_.launch(
        units.size(),
        [&](std::uint64_t tid) {
            const WorkUnit &unit = units[tid];
            sim::ThreadWork work;
            work.instructions = cost.threadOverhead +
                                cost.perEdge * unit.count +
                                2 * unit_steps[tid];
            work.edgeCount = unit.count;
            work.edgeStart = unit.start;
            work.edgeStride = unit.stride;
            work.scatterAccessesPerEdge = cost.scatterPerEdge;
            return work;
        },
        pool_.get());
    result.info.iterations = 1;
    fillRunInfo(result.info, ctx, Algorithm::Cc);
    traceRunEnd(result.info);
    result.info.hostMs = elapsedMs(host_start);
    return result;
}

std::size_t
GraphEngine::footprintBytes(Algorithm algorithm)
{
    return footprint(context(algorithm), algorithm);
}

} // namespace tigr::engine
