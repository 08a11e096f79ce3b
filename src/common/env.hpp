/**
 * @file
 * The environment-knob registry: the single place in the repo that reads
 * `MVQ_*` environment variables. Every knob is declared once in the
 * registry table (src/common/env.cpp) with its type, default, and a
 * one-line description; accessors read the process environment exactly
 * once per knob and cache the raw value behind a mutex, so every thread
 * observes the same setting for the lifetime of the process no matter
 * when it asks (the first-use race of scattered `std::getenv` calls in
 * hot paths is gone by construction).
 *
 * Discipline (machine-checked by scripts/mvq_lint.py):
 *  - raw `std::getenv` is banned everywhere except env.cpp;
 *  - every quoted `MVQ_*` name in the tree must be a registered knob;
 *  - every registered knob must have a row in README's knob table.
 *
 * Knobs that also need a *programmatic* override (tests/benches flipping
 * them mid-process) keep a module-local cached setter on top of this —
 * e.g. common/parallel's setNumThreads — because registry reads
 * are sticky by design: setenv after the first read has no effect.
 */

#ifndef MVQ_COMMON_ENV_HPP
#define MVQ_COMMON_ENV_HPP

#include <cstdint>
#include <string>

namespace mvq::env {

/**
 * Boolean knob. Unset or empty returns `def`; "0"/"off"/"false"/"no"
 * parse false and "1"/"on"/"true"/"yes" true (case-sensitive, matching
 * the documented spellings); anything else warns once and returns `def`.
 * The knob must be registered — unknown names panic.
 */
bool flag(const std::string &name, bool def);

/** Integer knob. Unset, empty, or unparsable returns `def`. */
std::int64_t int_(const std::string &name, std::int64_t def);

/** Floating-point knob. Unset, empty, or unparsable returns `def`. */
double real(const std::string &name, double def);

/** String knob. Unset returns `def` (empty values are returned as-is). */
std::string str(const std::string &name, const std::string &def);

/** True when the variable is present in the environment at all (cached
 *  like every other read), regardless of its value. */
bool isSet(const std::string &name);

} // namespace mvq::env

#endif // MVQ_COMMON_ENV_HPP
