#include "nn/compressed_net.hpp"

#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"

namespace mvq::nn {

CompressedNet::CompressedNet(const core::io::ModelArtifact &artifact)
{
    const std::int64_t n = artifact.layerCount();
    fatalIf(n == 0, "CompressedNet: artifact ", artifact.path(),
            " has no layers");

    layers_.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
        // packedOperands(i) serves the layer's operand from the
        // artifact's shared per-layer cache as borrowed views into the
        // image — the zero-copy serving path.
        layers_.emplace_back(artifact.layerName(i), artifact.layerShape(i),
                             artifact.packedOperands(i), 1, 1,
                             artifact.layerGroups(i));
    }
    in_channels_ = artifact.layerShape(0).dim(1) * artifact.layerGroups(0);
}

Tensor
CompressedNet::forward(const Tensor &x) const
{
    // Diagnose shape mismatches here, by name, instead of letting the
    // first conv panic deep inside the im2col indexing — a serving
    // stack feeds this from untrusted requests and wants FatalError.
    fatalIf(x.rank() != 4, "CompressedNet::forward: input must be rank-4 "
            "[B, C, H, W], got ", x.shape().str());
    fatalIf(x.dim(1) != in_channels_,
            "CompressedNet::forward: input has ", x.dim(1),
            " channels but layer '", layers_.front().name(), "' expects ",
            in_channels_, " (input shape ", x.shape().str(), ")");
    Tensor y = layers_.front().forward(x);
    for (std::size_t i = 1; i < layers_.size(); ++i)
        y = layers_[i].forward(y);
    return y;
}

} // namespace mvq::nn
