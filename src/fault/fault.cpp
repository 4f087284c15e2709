#include "fault/fault.hpp"

#include <new>

namespace tigr::fault {

namespace detail {

constinit thread_local Context *tlsContext = nullptr;

} // namespace detail

namespace {

/** splitmix64 finalizer: a high-quality 64-bit mixer, so the firing
 *  decision is statistically independent across sites/scopes/hits. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from the decision tuple. */
double
decisionValue(std::uint64_t seed, Site site, std::uint64_t scope,
              unsigned attempt, std::uint64_t hit)
{
    std::uint64_t h = mix(seed ^ 0x7469677266617571ull); // "tigrfauq"
    h = mix(h ^ static_cast<std::uint64_t>(site));
    h = mix(h ^ scope);
    h = mix(h ^ attempt);
    h = mix(h ^ hit);
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

std::string_view
siteName(Site site)
{
    switch (site) {
      case Site::SnapshotRead: return "snapshot.read";
      case Site::SnapshotMmap: return "snapshot.mmap";
      case Site::CacheInsert: return "cache.insert";
      case Site::TransformBuild: return "transform.build";
      case Site::EngineIteration: return "engine.iteration";
      case Site::Alloc: return "alloc";
      case Site::MutationApply: return "mutation.apply";
      case Site::MutationCompact: return "mutation.compact";
      case Site::JournalAppend: return "journal.append";
      case Site::JournalSync: return "journal.sync";
    }
    return "unknown";
}

std::optional<Site>
parseSite(std::string_view name)
{
    for (Site site : kAllSites)
        if (siteName(site) == name)
            return site;
    return std::nullopt;
}

FaultPlan &
FaultPlan::site(Site site, double rate, unsigned attempts_below,
                std::uint64_t scopes_below)
{
    if (!(rate >= 0.0) || rate > 1.0)
        throw std::invalid_argument(
            "tigr: fault rate must be in [0, 1]");
    SiteConfig &config = sites_[static_cast<std::size_t>(site)];
    config.rate = rate;
    config.attemptsBelow = attempts_below;
    config.scopesBelow = scopes_below;
    return *this;
}

bool
FaultPlan::inert() const
{
    for (const SiteConfig &config : sites_)
        if (config.rate > 0.0)
            return false;
    return true;
}

std::string
formatTrace(const FaultTrace &trace)
{
    std::string out;
    for (const FaultRecord &record : trace) {
        out += siteName(record.site);
        out += '@';
        out += std::to_string(record.scope);
        out += '.';
        out += std::to_string(record.attempt);
        out += '.';
        out += std::to_string(record.hit);
        out += '\n';
    }
    return out;
}

FaultScope::FaultScope(const FaultPlan &plan, std::uint64_t scope,
                       unsigned attempt, FaultTrace *trace)
{
    if (plan.inert())
        return; // keep the hooks on their disarmed fast path
    context_.plan = &plan;
    context_.scope = scope;
    context_.attempt = attempt;
    context_.trace = trace;
    context_.previous = detail::tlsContext;
    detail::tlsContext = &context_;
    armed_ = true;
}

FaultScope::~FaultScope()
{
    if (armed_)
        detail::tlsContext = context_.previous;
}

bool
fired(Site site)
{
    detail::Context *ctx = detail::tlsContext;
    if (!ctx)
        return false;
    const std::size_t index = static_cast<std::size_t>(site);
    const std::uint64_t hit = ctx->hits[index]++;
    const SiteConfig &config = ctx->plan->config(site);
    if (config.rate <= 0.0 || ctx->attempt >= config.attemptsBelow ||
        ctx->scope >= config.scopesBelow)
        return false;
    if (decisionValue(ctx->plan->seed(), site, ctx->scope,
                      ctx->attempt, hit) >= config.rate)
        return false;
    if (ctx->trace)
        ctx->trace->push_back(
            FaultRecord{site, ctx->scope, ctx->attempt, hit});
    return true;
}

void
raise(Site site)
{
    if (site == Site::Alloc)
        throw std::bad_alloc();
    if (site == Site::JournalAppend || site == Site::JournalSync)
        throw InjectedCrash("tigr: injected crash at " +
                            std::string(siteName(site)));
    throw InjectedFault(
        site, "tigr: injected fault at " + std::string(siteName(site)));
}

} // namespace tigr::fault
