/**
 * @file
 * Sample statistics shared by every workload: the nearest-rank percentile
 * and the rule that decides which percentile a run's sample count can
 * support.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <cstdint>
#include <vector>

namespace perfbench {

/**
 * Samples the tail percentile must keep beyond it: a percentile with
 * fewer samples above it is decided by a handful of outliers.
 */
constexpr std::int64_t kTailSamples = 10;

/** The tail percentile every workload reports (latency_p90_ms). */
constexpr double kTailPercentile = 0.90;

/** 1-based nearest rank of percentile p (0 < p <= 1) among n samples. */
std::int64_t nearestRank(std::int64_t n, double p);

/** Samples strictly above the nearest-rank p-th percentile of n. */
std::int64_t samplesBeyond(std::int64_t n, double p);

/**
 * Smallest sample count whose p-th percentile keeps at least `beyond`
 * samples above it (100 for p90 with 10 beyond).
 */
std::int64_t minSamplesFor(double p, std::int64_t beyond);

/**
 * Nearest-rank percentile: the smallest sample with at least a share p of
 * the samples at or below it. Sorts a copy; 0 for an empty sample.
 */
double percentile(std::vector<double> v, double p);

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
