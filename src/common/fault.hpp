/**
 * @file
 * Deterministic fault-injection registry. Production code marks the
 * places where the outside world can fail — opening a model file,
 * borrowing operands from an image, launching a batched forward — as
 * named *sites*; tests arm a site with a fail-Nth or fail-every-K
 * schedule (or a plan string) and the next matching hit fails
 * there, exactly there, and nowhere else. Because the schedule counts
 * hits rather than reading clocks, the same plan over the same call
 * sequence produces the same failure interleaving every run — which is
 * what lets tests script "batch 1 faults, batch 2 serves" and assert
 * bit-identical survivor outputs.
 *
 * The checkpoints are compiled in always and cost one relaxed atomic
 * load when nothing is armed (no lock, no map lookup, no string work),
 * so the sites stay in release binaries and the tested code path IS the
 * production code path.
 *
 * Failure modes:
 *  - Throw — the site throws FaultInjected, modeling an *unexpected*
 *    exception escaping a dependency (the serving layer must isolate
 *    it like any other foreign exception);
 *  - Error — the site reports through the library's own detected-error
 *    path (fatal(), i.e. FatalError), modeling an IO failure the code
 *    already knows how to diagnose.
 *
 * Arming is programmatic: arm() per site, or armFromPlan() over a plan
 * string (grammar there). resetAll() disarms everything and is how test
 * fixtures isolate themselves. Hit counters exist per armed site only:
 * an unarmed process counts nothing, by design (zero-cost rule above).
 *
 * Thread safety: every entry point is safe from any thread; the slow
 * path serializes on one internal mutex that is never held while user
 * code runs (throwing releases it by RAII).
 */

#ifndef MVQ_COMMON_FAULT_HPP
#define MVQ_COMMON_FAULT_HPP

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace mvq::fault {

/** Thrown by a Throw-mode site: a foreign exception, not a diagnosed
 *  library error (those are FatalError via Error mode). */
class FaultInjected : public std::runtime_error
{
  public:
    explicit FaultInjected(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

/** How an armed site fails when its schedule matches (see file docs). */
enum class FaultMode { Throw, Error };

/**
 * When an armed site fails. Exactly one of `nth` / `every` must be
 * positive: `nth` fails the nth hit after arming (once); `every` fails
 * every k-th hit (k, 2k, 3k, ...). Hits are counted per site from the
 * moment it is armed.
 */
struct FaultSpec
{
    std::int64_t nth = 0;   //!< fail exactly the nth hit (1-based)
    std::int64_t every = 0; //!< fail hits k, 2k, 3k, ...
    FaultMode mode = FaultMode::Throw;
};

/** Per-site counters since arming (zeros for unarmed sites). */
struct SiteStats
{
    std::int64_t hits = 0;  //!< checkpoints reached at this site
    std::int64_t fired = 0; //!< hits that failed
};

// The site catalog. Arming any other name is a FatalError, so plans
// cannot silently misspell a site.
inline constexpr const char *kArtifactOpen = "artifact.open";
inline constexpr const char *kOperandBorrow = "artifact.operand_borrow";
inline constexpr const char *kServeForward = "serve.forward";
inline constexpr const char *kBatcherStall = "serve.batcher_stall";

/** Every site name the registry accepts. */
const std::vector<const char *> &knownSites();

/** Arm `site` with `spec` (fresh counters; re-arming replaces). Fatal
 *  on unknown sites and invalid specs. */
void arm(const std::string &site, const FaultSpec &spec);

/** Disarm one site (keeps others armed). Unknown names are fatal;
 *  disarming an unarmed site is a no-op. */
void disarm(const std::string &site);

/** Disarm every site and zero all counters. */
void resetAll();

/**
 * Parse and arm a plan string:
 *
 *     plan  := entry (';' entry)*
 *     entry := site (':' field)+
 *     field := 'nth=' N | 'every=' K | 'mode=' ('throw'|'error')
 *
 * e.g. "serve.forward:nth=2;artifact.open:every=3:mode=error".
 * Empty plans are a no-op; malformed plans are fatal with the
 * offending entry named.
 */
void armFromPlan(const std::string &plan);

/** Counters for `site` since it was last armed. */
SiteStats stats(const std::string &site);

namespace detail {

/** Number of armed sites. The checkpoints' entire unarmed cost is
 *  loading this. */
extern std::atomic<int> g_armed;

bool fireSlow(const char *site);
void checkpointSlow(const char *site, const char *what);

} // namespace detail

/**
 * Non-throwing injection point: counts a hit at `site` and returns
 * whether this hit is scheduled to fail, leaving the reaction to the
 * caller (the batcher-stall site skips a claim cycle, for example).
 * Free when nothing is armed.
 */
inline bool
fires(const char *site)
{
    if (detail::g_armed.load(std::memory_order_acquire) == 0)
        return false;
    return detail::fireSlow(site);
}

/**
 * Throwing injection point: counts a hit at `site`; on a scheduled
 * failure throws FaultInjected (Throw mode) or FatalError via fatal()
 * (Error mode), with `what` naming the interrupted operation. Free
 * when nothing is armed.
 */
inline void
checkpoint(const char *site, const char *what)
{
    if (detail::g_armed.load(std::memory_order_acquire) == 0)
        return;
    detail::checkpointSlow(site, what);
}

} // namespace mvq::fault

#endif // MVQ_COMMON_FAULT_HPP
