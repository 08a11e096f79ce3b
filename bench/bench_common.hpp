/**
 * @file
 * Shared plumbing for the experiment harnesses: the standard synthetic
 * dataset, dense mini-model training, and formatting helpers. Every
 * bench prints the paper's reported values next to our measured ones;
 * absolute numbers differ (mini models on synthetic data / analytic
 * hardware models), the *shape* — orderings, ratios, crossovers — is the
 * reproduction target (see EXPERIMENTS.md).
 */

#ifndef MVQ_BENCH_COMMON_HPP
#define MVQ_BENCH_COMMON_HPP

#include <memory>
#include <string>

#include "common/table.hpp"
#include "core/pipeline.hpp"
#include "models/mini_models.hpp"
#include "nn/trainer.hpp"

namespace mvq::bench {

/** True when MVQ_BENCH_FAST is set: shrink sweeps for smoke runs. */
bool fastMode();

/** The standard classification task shared by the algorithm benches. */
nn::ClassificationConfig stdDataConfig();

/**
 * Train a dense mini model of the given family on `data`.
 *
 * @param width  Base channel count (16 keeps everything d=16-groupable).
 * @param epochs Dense training epochs.
 * @param[out] test_acc Final dense test accuracy.
 */
std::unique_ptr<nn::Sequential> trainDenseMini(
    const std::string &family, const nn::ClassificationDataset &data,
    std::int64_t width, int epochs, double *test_acc);

/** Print the standard header naming the experiment and its substitute. */
void printExperimentHeader(const std::string &experiment,
                           const std::string &substitution);

/** Format helper: "x.xx" with two decimals. */
std::string f2(double v);

/** Format helper: one decimal. */
std::string f1(double v);

/**
 * The benchmark JSON output path: the argument after `--json` on the
 * command line. Empty string means JSON output is disabled.
 */
std::string benchJsonPath(int argc, char **argv);

/**
 * Append one `{"bench": ..., "metric": ..., "value": ...}` record to the
 * JSON-lines file at `path` (no-op when path is empty). Future PRs diff
 * these BENCH_*.json files to track the perf trajectory.
 */
void appendBenchRecord(const std::string &path, const std::string &bench,
                       const std::string &metric, double value);

} // namespace mvq::bench

#endif // MVQ_BENCH_COMMON_HPP
