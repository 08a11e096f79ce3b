#include "common/fault.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/logging.hpp"

namespace mvq::fault {

namespace {

/** One armed site: its schedule plus counters since arming. */
struct Armed
{
    FaultSpec spec;
    SiteStats st;
};

struct Registry
{
    std::mutex mu;
    std::map<std::string, Armed> sites;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

bool
isKnownSite(const std::string &site)
{
    const auto &known = knownSites();
    return std::find_if(known.begin(), known.end(),
                        [&](const char *s) { return site == s; })
        != known.end();
}

/** Publish the armed-site count to the checkpoints' fast path. mu held. */
void
publishCountLocked(Registry &r)
{
    detail::g_armed.store(static_cast<int>(r.sites.size()),
                          std::memory_order_release);
}

/** Count a hit and decide whether it fails. mu held. */
bool
fireLocked(Registry &r, const char *site)
{
    auto it = r.sites.find(site);
    if (it == r.sites.end())
        return false;
    Armed &a = it->second;
    ++a.st.hits;
    const bool fire = (a.spec.nth > 0 && a.st.hits == a.spec.nth)
        || (a.spec.every > 0 && a.st.hits % a.spec.every == 0);
    if (fire)
        ++a.st.fired;
    return fire;
}

void
armOne(const std::string &site, const FaultSpec &spec)
{
    fatalIf(!isKnownSite(site), "fault::arm: unknown site '", site,
            "'; known sites: artifact.open, artifact.operand_borrow, "
            "serve.forward, serve.batcher_stall");
    fatalIf(spec.nth < 0 || spec.every < 0,
            "fault::arm: negative schedule for site '", site, "' (nth=",
            spec.nth, ", every=", spec.every, ")");
    fatalIf((spec.nth > 0) == (spec.every > 0),
            "fault::arm: site '", site, "' needs exactly one of nth=N / "
            "every=K positive (got nth=", spec.nth, ", every=",
            spec.every, ")");
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.sites[site] = Armed{spec, SiteStats{}};
    publishCountLocked(r);
}

} // namespace

namespace detail {

std::atomic<int> g_armed{0};

bool
fireSlow(const char *site)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    return fireLocked(r, site);
}

void
checkpointSlow(const char *site, const char *what)
{
    FaultMode mode = FaultMode::Throw;
    std::int64_t hit = 0;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lk(r.mu);
        if (!fireLocked(r, site))
            return;
        const Armed &a = r.sites.find(site)->second;
        mode = a.spec.mode;
        hit = a.st.hits;
    }
    if (mode == FaultMode::Throw)
        throw FaultInjected(mvq::detail::concat(
            "injected fault at ", site, " (hit ", hit, "): ", what));
    fatal(what, ": injected fault at ", site, " (hit ", hit, ")");
}

} // namespace detail

const std::vector<const char *> &
knownSites()
{
    static const std::vector<const char *> sites = {
        kArtifactOpen, kOperandBorrow, kServeForward, kBatcherStall};
    return sites;
}

void
arm(const std::string &site, const FaultSpec &spec)
{
    armOne(site, spec);
}

void
disarm(const std::string &site)
{
    fatalIf(!isKnownSite(site), "fault::disarm: unknown site '", site,
            "'");
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.sites.erase(site);
    publishCountLocked(r);
}

void
resetAll()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.sites.clear();
    publishCountLocked(r);
}

void
armFromPlan(const std::string &plan)
{
    std::size_t pos = 0;
    while (pos <= plan.size()) {
        const std::size_t end = std::min(plan.find(';', pos), plan.size());
        const std::string entry = plan.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        const std::size_t colon = entry.find(':');
        fatalIf(colon == std::string::npos, "fault plan entry '",
                entry, "' has no schedule; want site:nth=N or "
                "site:every=K (optionally :mode=throw|error)");
        const std::string site = entry.substr(0, colon);
        FaultSpec spec;
        std::size_t fpos = colon + 1;
        while (fpos <= entry.size()) {
            const std::size_t fend =
                std::min(entry.find(':', fpos), entry.size());
            const std::string field = entry.substr(fpos, fend - fpos);
            fpos = fend + 1;
            const auto intField = [&](const char *key) -> std::int64_t {
                const std::string v = field.substr(field.find('=') + 1);
                try {
                    std::size_t used = 0;
                    const long long n = std::stoll(v, &used);
                    if (used == v.size() && n >= 0)
                        return static_cast<std::int64_t>(n);
                } catch (const std::exception &) {
                    // fall through to the diagnostic below
                }
                fatal("fault plan entry '", entry, "': ", key,
                      "= wants a non-negative integer, got '", v, "'");
            };
            if (field.rfind("nth=", 0) == 0)
                spec.nth = intField("nth");
            else if (field.rfind("every=", 0) == 0)
                spec.every = intField("every");
            else if (field == "mode=throw")
                spec.mode = FaultMode::Throw;
            else if (field == "mode=error")
                spec.mode = FaultMode::Error;
            else
                fatal("fault plan entry '", entry,
                      "': unrecognized field '", field,
                      "' (want nth=N, every=K, or mode=throw|error)");
        }
        armOne(site, spec);
    }
}

SiteStats
stats(const std::string &site)
{
    fatalIf(!isKnownSite(site), "fault::stats: unknown site '", site,
            "'");
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    const auto it = r.sites.find(site);
    return it == r.sites.end() ? SiteStats{} : it->second.st;
}

} // namespace mvq::fault
