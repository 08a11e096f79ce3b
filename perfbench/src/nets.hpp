/**
 * @file
 * The network the benchmark serves: full-size ResNet-18 conv geometry
 * (models::resnet18Spec, every conv 4:16, k=256, d=16), synthetic weights
 * that keep activations O(1), the served forward over one artifact's
 * shared operands, and the dense oracle built from the repository's own nn
 * layers.
 */

#ifndef PERFBENCH_NETS_HPP
#define PERFBENCH_NETS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/compressed_layer.hpp"
#include "core/io/model_artifact.hpp"
#include "models/layer_spec.hpp"
#include "nn/compressed_conv2d.hpp"
#include "nn/network.hpp"

namespace perfbench {

/** N:M pattern and codebook shape of every synthesized layer. */
constexpr int kPatternN = 4;
constexpr int kPatternM = 16;
constexpr std::int64_t kCodewords = 256;
constexpr std::int64_t kSubvector = 16;

/**
 * A served ResNet-18: conv geometry in spec order (conv1, then per block
 * conv1, conv2 and an optional 1x1 down conv). The topology around the
 * convs (ReLU, 3x3/2 max-pool, residual adds) is the benchmark's glue.
 */
struct NetSpec
{
    std::string name;
    std::vector<mvq::models::ConvLayerSpec> convs;
    std::int64_t in_c = 3;
    std::int64_t in_hw = 224;
};

NetSpec resnet18Net();

/**
 * `net` with every channel count except the image's divided by
 * `channel_div` and the input shrunk to `in_hw` x `in_hw` (a small
 * geometry with the same topology, for tests).
 */
NetSpec scaledNet(const NetSpec &net, std::int64_t channel_div,
                  std::int64_t in_hw);

/** Per-layer metric class of a conv: stem, stage1..stage4, down. */
const char *convClass(const std::string &layer_name);

/** Every conv class, in report order. */
const std::vector<std::string> &convClasses();

/**
 * Synthetic compressed weights with `net`'s exact geometry. Each layer
 * gets its own codebook whose kept weights have variance 1 / (kept
 * fan-in), so every conv preserves its input's second moment and
 * activations stay O(1) through the whole network.
 */
mvq::core::CompressedModel synthesizeModel(const NetSpec &net,
                                           std::uint64_t seed);

/** MVQI writer options baking each layer's conv groups. */
mvq::core::io::MvqiWriteOptions bakedGroups(const NetSpec &net);

/** `count` N(0, 1) request images [C, H, W] drawn from `seed`. */
std::vector<mvq::Tensor> makeImages(const NetSpec &net, std::uint64_t seed,
                                    int count);

/** Stack same-shaped [C, H, W] images into one [N, C, H, W] batch. */
mvq::Tensor stackImages(const std::vector<mvq::Tensor> &images);

/**
 * The network served through serve::Server, built over one artifact's
 * shared packed operands: the benchmark's glue around each
 * CompressedConv2d::forward. With tracing on, each conv and glue op runs
 * inside a span.
 */
class ServedNet
{
  public:
    ServedNet(const NetSpec &net, const mvq::core::io::ModelArtifact &art);

    /** Batched NCHW forward. */
    mvq::Tensor forward(const mvq::Tensor &x) const;

    std::int64_t layerCount() const;
    const mvq::nn::CompressedConv2d &layer(std::int64_t i) const;

  private:
    struct Block
    {
        std::size_t conv1 = 0;
        std::size_t conv2 = 0;
        std::ptrdiff_t down = -1; //!< -1: identity shortcut
    };

    mvq::Tensor conv(std::size_t i, const mvq::Tensor &x) const;

    std::vector<const char *> cls_;
    std::vector<mvq::nn::CompressedConv2d> convs_;
    std::vector<Block> blocks_;
};

/**
 * The dense oracle: the same topology from the repository's own nn layers
 * (Conv2d, ReLU, MaxPool2d, Residual) with kernels densified by
 * CompressedModel::applyTo.
 */
std::unique_ptr<mvq::nn::Sequential>
denseOracle(const NetSpec &net, const mvq::core::CompressedModel &model);

/**
 * Median milliseconds of `reps` dense nn::Conv2d forwards of layer `c`
 * over `weight` at batch `batch` (after one warm-up forward).
 */
double denseConvMs(const mvq::models::ConvLayerSpec &c,
                   const mvq::Tensor &weight, std::int64_t batch, int reps);

/** max |a - b| / max |b| over n elements. */
double relError(const float *a, const float *b, std::int64_t n);

bool allFinite(const mvq::Tensor &t);

/** Root mean square of the elements. */
double rms(const mvq::Tensor &t);

} // namespace perfbench

#endif // PERFBENCH_NETS_HPP
