/**
 * @file
 * Deterministic fault injection: seeded, site-addressed failure
 * scheduling for resilience testing.
 *
 * A FaultPlan names the failure sites it wants to exercise (with a
 * per-site firing rate) and a seed. Code under test is instrumented
 * with cheap TIGR_FAULT_POINT(site) hooks; a FaultScope activates a
 * plan on the current thread for the duration of one unit of work (one
 * query attempt, one snapshot load, ...), keyed by a caller-chosen
 * scope id. Whether a given hook fires is a pure function of
 *
 *     (seed, site, scope key, attempt, per-site hit counter)
 *
 * and of nothing else — not wall-clock time, not thread ids, not the
 * interleaving of other scopes. As long as scope keys are assigned
 * deterministically (the QueryScheduler keys them by batch position),
 * the same seed over the same batch produces a bit-identical failure
 * trace at any worker count, which makes fault runs differential-
 * testable like everything else in this repo.
 *
 * When no scope is armed the hook is a single thread-local load and a
 * predictable branch — cheap enough to compile into production paths
 * unconditionally (bench/fault_overhead pins the overhead at < 2%).
 */
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <optional>
#include <vector>

namespace tigr::fault {

/** Named failure sites threaded through the service stack. */
enum class Site : unsigned
{
    SnapshotRead,    ///< "snapshot.read": stream snapshot load.
    SnapshotMmap,    ///< "snapshot.mmap": mmap snapshot load.
    CacheInsert,     ///< "cache.insert": retaining a built schedule.
    TransformBuild,  ///< "transform.build": Schedule::build itself.
    EngineIteration, ///< "engine.iteration": a BSP iteration boundary.
    Alloc,           ///< "alloc": engine/result allocation.
    MutationApply,   ///< "mutation.apply": post-validation batch apply.
    MutationCompact, ///< "mutation.compact": slack-arena compaction.
    JournalAppend,   ///< "journal.append": WAL record write (crash).
    JournalSync,     ///< "journal.sync": WAL fsync barrier (crash).
};

/** Number of distinct sites (array sizing). */
inline constexpr std::size_t kSiteCount = 10;

/** All sites, in enum order. */
inline constexpr Site kAllSites[kSiteCount] = {
    Site::SnapshotRead,   Site::SnapshotMmap,    Site::CacheInsert,
    Site::TransformBuild, Site::EngineIteration, Site::Alloc,
    Site::MutationApply,  Site::MutationCompact, Site::JournalAppend,
    Site::JournalSync,
};

/** Dotted display name ("snapshot.read", "engine.iteration", ...). */
std::string_view siteName(Site site);

/** Parse a dotted site name back to a Site. */
std::optional<Site> parseSite(std::string_view name);

/** Per-site firing configuration. */
struct SiteConfig
{
    /** Probability in [0, 1] that an armed hook at this site fires. */
    double rate = 0.0;
    /** Fire only while the scope's attempt index is below this (lets a
     *  plan model transient faults that retries outlast). */
    unsigned attemptsBelow = std::numeric_limits<unsigned>::max();
    /** Fire only while the scope key is below this (lets a plan model
     *  faults that stop occurring — e.g. only the first batch). */
    std::uint64_t scopesBelow = std::numeric_limits<std::uint64_t>::max();
};

/**
 * A seeded fault schedule. Immutable while any FaultScope references
 * it; cheap to copy. A default-constructed plan is inert (every rate
 * is 0) and arming it is a no-op.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

    /** Fluent per-site configuration. @p rate outside [0, 1] throws. */
    FaultPlan &site(Site site, double rate,
                    unsigned attempts_below =
                        std::numeric_limits<unsigned>::max(),
                    std::uint64_t scopes_below =
                        std::numeric_limits<std::uint64_t>::max());

    const SiteConfig &config(Site site) const
    {
        return sites_[static_cast<std::size_t>(site)];
    }

    std::uint64_t seed() const { return seed_; }

    /** True when no site can ever fire (arming is pointless). */
    bool inert() const;

  private:
    std::uint64_t seed_ = 0;
    std::array<SiteConfig, kSiteCount> sites_{};
};

/** One injected fault, as recorded in a failure trace. */
struct FaultRecord
{
    Site site = Site::Alloc;
    /** Scope key of the FaultScope that was armed. */
    std::uint64_t scope = 0;
    /** Attempt index of that scope. */
    unsigned attempt = 0;
    /** Per-site hit counter value at which the site fired. */
    std::uint64_t hit = 0;

    friend bool operator==(const FaultRecord &,
                           const FaultRecord &) = default;
};

/** A failure trace: every fault a scope (or run) injected, in firing
 *  order. Bit-identical across runs of the same seeded plan. */
using FaultTrace = std::vector<FaultRecord>;

/** "site@scope.attempt.hit" lines, one per record — the compact form
 *  the differential tests diff. */
std::string formatTrace(const FaultTrace &trace);

/** Thrown by TIGR_FAULT_POINT when a site fires (except Site::Alloc,
 *  which raises std::bad_alloc to exercise real allocation-failure
 *  paths). */
class InjectedFault : public std::runtime_error
{
  public:
    InjectedFault(Site site, const std::string &message)
        : std::runtime_error(message), site_(site)
    {
    }

    Site site() const { return site_; }

  private:
    Site site_;
};

/**
 * The crash fault type: thrown when a crash site (Site::JournalAppend,
 * Site::JournalSync) fires, or when a service::io::CrashScope cuts a
 * raw file write at its armed byte offset. An InjectedCrash models the
 * *process dying* at that instant — bytes written before the cut are on
 * disk, nothing after is, and in-memory state is gone. Service code
 * must never catch-and-retry it (retrying a dead process is
 * meaningless); only a torture harness catches it, at the very top,
 * and then "restarts" by recovering a fresh store from the on-disk
 * bytes. Deliberately NOT derived from InjectedFault so resilience
 * retry paths that branch on that type cannot absorb a crash.
 */
class InjectedCrash : public std::runtime_error
{
  public:
    explicit InjectedCrash(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

namespace detail {

/** Thread-local activation record; null = disarmed (the hot path). */
struct Context
{
    const FaultPlan *plan = nullptr;
    std::uint64_t scope = 0;
    unsigned attempt = 0;
    FaultTrace *trace = nullptr;
    std::array<std::uint64_t, kSiteCount> hits{};
    Context *previous = nullptr;
};

/** constinit: a constant-initialized thread_local is read directly,
 *  with no TLS init-wrapper call on the armed() fast path. */
extern constinit thread_local Context *tlsContext;

} // namespace detail

/**
 * RAII activation of @p plan on the current thread. Scopes nest (the
 * previous scope is restored on destruction). An inert plan arms
 * nothing, so the hooks stay on their single-branch fast path.
 *
 * @param scope Deterministically assigned unit-of-work key.
 * @param attempt Retry attempt index within that unit.
 * @param trace Optional sink receiving a FaultRecord per fired site.
 */
class FaultScope
{
  public:
    FaultScope(const FaultPlan &plan, std::uint64_t scope,
               unsigned attempt = 0, FaultTrace *trace = nullptr);
    ~FaultScope();

    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;

  private:
    detail::Context context_;
    bool armed_ = false;
};

/** True when a plan is armed on this thread. */
inline bool
armed()
{
    return detail::tlsContext != nullptr;
}

/**
 * Deterministically decide whether @p site fires at its current hit
 * counter (always bumping the counter), recording to the scope's trace
 * when it does. Returns false when disarmed. Use this (instead of the
 * throwing hook) at sites that report failures through their own typed
 * error — the snapshot loaders turn a fired site into a SnapshotError.
 */
bool fired(Site site);

/** Throw the site's failure type: std::bad_alloc for Site::Alloc,
 *  InjectedCrash for the journal crash sites, InjectedFault
 *  otherwise. */
[[noreturn]] void raise(Site site);

/** The throwing hook behind TIGR_FAULT_POINT. */
inline void
check(Site site)
{
    if (fired(site))
        raise(site);
}

} // namespace tigr::fault

/**
 * A compiled-in failure site. Disarmed cost: one thread-local load and
 * a predictable branch. @p site is a tigr::fault::Site enumerator.
 */
#define TIGR_FAULT_POINT(site)                                         \
    do {                                                               \
        if (::tigr::fault::detail::tlsContext != nullptr)              \
            ::tigr::fault::check(site);                                \
    } while (0)
