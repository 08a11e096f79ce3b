/**
 * @file
 * The batched compressed-inference network: a forward-only chain of
 * CompressedConv2d layers built from one shared core::io::ModelArtifact.
 * Every layer borrows the artifact's cached packed operands
 * (ModelArtifact::packedOperands), so N CompressedNet instances — and,
 * with a mapped `.mvqi` file, N processes — share one operand set and
 * construction does no decode and no packing. forward() takes any batch
 * size B and is const, so one instance serves concurrent callers; it is
 * the batched forward entry the serving runtime (src/serve) coalesces
 * requests into.
 *
 * Like CompressedConv2d this is deliberately not an nn::Layer: no
 * backward, no parameters, no activations — a pure conv chain whose
 * per-image outputs are bit-identical whether images run batched or one
 * at a time (each (batch, group) pair is an independent gemm under the
 * repo determinism contract), which is what lets the serving layer
 * batch aggressively without changing results.
 */

#ifndef MVQ_NN_COMPRESSED_NET_HPP
#define MVQ_NN_COMPRESSED_NET_HPP

#include <cstdint>
#include <vector>

#include "nn/compressed_conv2d.hpp"

namespace mvq::core::io {
class ModelArtifact;
} // namespace mvq::core::io

namespace mvq::nn {

/** Forward-only chain of compressed convs over shared artifact operands. */
class CompressedNet
{
  public:
    /**
     * Build one CompressedConv2d per artifact layer, in artifact order,
     * each over the artifact's shared packed operands at its baked conv
     * group count, at stride 1 / pad 1 ("same" geometry for 3x3 kernels;
     * the artifact stores no conv geometry).
     */
    explicit CompressedNet(const core::io::ModelArtifact &artifact);

    /**
     * NCHW batched forward through every layer in order. Per-image
     * output slabs are bit-identical for any batch composition and any
     * MVQ_NUM_THREADS within an ISA.
     */
    Tensor forward(const Tensor &x) const;

    std::int64_t
    layerCount() const
    {
        return static_cast<std::int64_t>(layers_.size());
    }

    const CompressedConv2d &
    layer(std::int64_t i) const
    {
        return layers_[static_cast<std::size_t>(i)];
    }

    /** Channels the first layer expects (C of a [C, H, W] request). */
    std::int64_t inChannels() const { return in_channels_; }

  private:
    std::vector<CompressedConv2d> layers_;
    std::int64_t in_channels_ = 0;
};

} // namespace mvq::nn

#endif // MVQ_NN_COMPRESSED_NET_HPP
