#include "common/env.hpp"

#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>

#include "common/logging.hpp"

namespace mvq::env {

namespace {

// ------------------------------------------------------------ the registry
//
// Every MVQ_* environment variable any binary in this repo reads. The
// linter (scripts/mvq_lint.py) cross-checks this table against the quoted
// MVQ_* literals in the tree and against README's knob table, so adding a
// knob anywhere without registering *and* documenting it fails CI.

/** One registered knob. */
struct Knob
{
    const char *name;        //!< e.g. "MVQ_NUM_THREADS"
    const char *type;        //!< "flag", "int", "real", or "string"
    const char *def;         //!< printable default
    const char *description; //!< one-line summary (mirrors README's table)
};

const Knob kKnobs[] = {
    {"MVQ_NUM_THREADS", "int", "hardware concurrency",
     "worker count for the shared thread pool (bit-identical results for "
     "any value)"},
    {"MVQ_SIMD", "string", "auto-detect",
     "force a SIMD kernel path: scalar|avx2|neon (unavailable requests "
     "warn and fall back)"},
    {"MVQ_BENCH_FAST", "flag", "off",
     "shrink bench sweeps for smoke runs"},
    {"MVQ_BENCH_GATE_MIN_IMAGES_PER_SEC", "real", "0 (gate off)",
     "serve_load exits nonzero below this sustained images/s floor at "
     "the highest client count"},
    {"MVQ_WRITE_GOLDEN", "flag", "off",
     "model_artifact_test regenerates tests/data/golden_v3.mvqi instead "
     "of checking against it"},
};

const Knob *
findKnob(const std::string &name)
{
    for (const Knob &k : kKnobs)
        if (name == k.name)
            return &k;
    return nullptr;
}

/**
 * Raw-value cache: one std::getenv per knob for the process lifetime.
 * Guarded by a mutex so the first touch from N threads stays a single
 * read and every later touch sees the same snapshot.
 */
struct Registry
{
    std::mutex mu;
    std::map<std::string, std::optional<std::string>> raw;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::optional<std::string>
rawValue(const std::string &name)
{
    panicIf(findKnob(name) == nullptr, "env knob ", name,
            " is not in the registry table (src/common/env.cpp); register "
            "it there and document it in README's knob table");
    Registry &r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    auto it = r.raw.find(name);
    if (it == r.raw.end()) {
        // NOLINTNEXTLINE(concurrency-mt-unsafe) — serialized by registry mutex
        const char *v = std::getenv(name.c_str());
        it = r.raw
                 .emplace(name, v != nullptr
                                    ? std::optional<std::string>(v)
                                    : std::nullopt)
                 .first;
    }
    return it->second;
}

} // namespace

bool
flag(const std::string &name, bool def)
{
    const std::optional<std::string> v = rawValue(name);
    if (!v || v->empty())
        return def;
    if (*v == "0" || *v == "off" || *v == "false" || *v == "no")
        return false;
    if (*v == "1" || *v == "on" || *v == "true" || *v == "yes")
        return true;
    warn(name, "=", *v, " not recognized (want 0|off|false|no or "
         "1|on|true|yes); using default");
    return def;
}

std::int64_t
int_(const std::string &name, std::int64_t def)
{
    const std::optional<std::string> v = rawValue(name);
    if (!v || v->empty())
        return def;
    try {
        std::size_t pos = 0;
        const long long n = std::stoll(*v, &pos);
        if (pos == v->size())
            return static_cast<std::int64_t>(n);
    } catch (const std::exception &) {
        // fall through to the warning
    }
    warn(name, "=", *v, " is not an integer; using default");
    return def;
}

double
real(const std::string &name, double def)
{
    const std::optional<std::string> v = rawValue(name);
    if (!v || v->empty())
        return def;
    try {
        std::size_t pos = 0;
        const double x = std::stod(*v, &pos);
        if (pos == v->size())
            return x;
    } catch (const std::exception &) {
        // fall through to the warning
    }
    warn(name, "=", *v, " is not a number; using default");
    return def;
}

std::string
str(const std::string &name, const std::string &def)
{
    const std::optional<std::string> v = rawValue(name);
    return v ? *v : def;
}

bool
isSet(const std::string &name)
{
    return rawValue(name).has_value();
}

} // namespace mvq::env
