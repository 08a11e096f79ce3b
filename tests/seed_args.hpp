/**
 * @file
 * Command-line seeds for the seed-driven tests: after gtest has taken its
 * own flags, `--seed <first>` and `--iters <count>` run seeds first,
 * first + 1, ..., first + count - 1 instead of the pinned seeds
 * 1..pinned (first defaults to 1, count to 1 once either flag is given).
 */

#ifndef MVQ_TESTS_SEED_ARGS_HPP
#define MVQ_TESTS_SEED_ARGS_HPP

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace mvq {

/** Append this run's seeds to `seeds`; false (after printing the usage)
 *  on an unknown argument. */
inline bool
parseSeedArgs(int argc, char **argv, long long pinned,
              std::vector<std::uint64_t> *seeds)
{
    std::uint64_t first = 1;
    long long iters = pinned;
    bool custom = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if ((arg != "--seed" && arg != "--iters") || i + 1 >= argc) {
            std::fprintf(stderr,
                         "usage: %s [gtest flags] [--seed S] [--iters N]\n",
                         argv[0]);
            return false;
        }
        const long long v = std::strtoll(argv[++i], nullptr, 10);
        if (!custom)
            iters = 1;
        custom = true;
        if (arg == "--seed")
            first = static_cast<std::uint64_t>(v);
        else
            iters = v;
    }
    for (long long s = 0; s < iters; ++s)
        seeds->push_back(first + static_cast<std::uint64_t>(s));
    return true;
}

} // namespace mvq

#endif // MVQ_TESTS_SEED_ARGS_HPP
