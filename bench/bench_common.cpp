#include "bench_common.hpp"

#include <cmath>

#include "common/env.hpp"
#include <cstring>
#include <iomanip>
#include <fstream>
#include <iostream>

namespace mvq::bench {

bool
fastMode()
{
    return env::flag("MVQ_BENCH_FAST", false);
}

nn::ClassificationConfig
stdDataConfig()
{
    nn::ClassificationConfig cfg;
    cfg.classes = 10;
    cfg.size = 12;
    cfg.train_count = fastMode() ? 320 : 640;
    cfg.test_count = 160;
    cfg.noise = 0.55f; // hard enough that compression damage shows
    cfg.seed = 7;
    return cfg;
}

std::unique_ptr<nn::Sequential>
trainDenseMini(const std::string &family,
               const nn::ClassificationDataset &data, std::int64_t width,
               int epochs, double *test_acc)
{
    models::MiniConfig mc;
    mc.classes = data.config().classes;
    mc.width = width;
    auto net = models::miniModelByName(family, mc);
    nn::TrainConfig tc;
    tc.epochs = fastMode() ? std::max(1, epochs / 2) : epochs;
    const nn::TrainStats stats = nn::trainClassifier(*net, data, tc);
    if (test_acc != nullptr)
        *test_acc = stats.test_accuracy;
    return net;
}

void
printExperimentHeader(const std::string &experiment,
                      const std::string &substitution)
{
    std::cout << "\n==================================================\n"
              << experiment << "\n"
              << "substitute: " << substitution << "\n"
              << "==================================================\n";
}

std::string
f2(double v)
{
    return TextTable::num(v, 2);
}

std::string
f1(double v)
{
    return TextTable::num(v, 1);
}

std::string
benchJsonPath(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            return argv[i + 1];
    }
    return "";
}

void
appendBenchRecord(const std::string &path, const std::string &bench,
                  const std::string &metric, double value)
{
    if (path.empty())
        return;
    std::ofstream out(path, std::ios::app);
    if (!out) {
        std::cerr << "bench: cannot open " << path << " for append\n";
        return;
    }
    out << "{\"bench\": \"" << bench << "\", \"metric\": \"" << metric
        << "\", \"value\": ";
    // JSON has no inf/nan literal, and default stream precision would
    // round values the trajectory tooling wants to diff exactly.
    if (std::isfinite(value))
        out << std::setprecision(17) << value;
    else
        out << "null";
    out << "}\n";
}

} // namespace mvq::bench
