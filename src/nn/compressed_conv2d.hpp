/**
 * @file
 * Inference path that consumes a compressed layer directly: the stored
 * N:M mask codes are decoded ONCE at construction into a per-row
 * compressed-column gemm operand (core::CompressedLayer::packSparseRows),
 * and every forward pass runs a direct sparse conv over it
 * (gemmSparseAIm2col: each kept weight reads its contiguous run of the
 * zero-padded input in place, nothing is packed) — pruned positions are
 * never multiplied, so the 4:16 MAC reduction the paper's accelerator
 * gets from its AND-gate weight loader is realized on the CPU too, with
 * the kept weights stationary and the activations streaming past them.
 * The operand is the layer's one CSR, exactly what MVQI images store;
 * conv group g runs its rows [g*K/groups, (g+1)*K/groups), so one driver
 * call covers every group of an image (a depthwise layer included), and
 * the sparse gemm splits each conv over the whole pool even at batch 1.
 * The forward is bit-identical per ISA to the materializing per-group
 * im2col + gemmSparseARaw composition, which stays as the test oracle
 * (see tensor/ops.hpp). Contrast with CompressedModel::applyTo, which
 * densifies the kernel and pays the full dense gemm.
 */

#ifndef MVQ_NN_COMPRESSED_CONV2D_HPP
#define MVQ_NN_COMPRESSED_CONV2D_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/compressed_layer.hpp"
#include "tensor/ops.hpp"

namespace mvq::nn {

/**
 * Forward-only convolution over MVQ-compressed weights. Not an nn::Layer:
 * there is no backward pass and no parameters — this is the deployment
 * path, mirroring how the accelerator consumes the compressed stream.
 */
class CompressedConv2d
{
  public:
    /**
     * Decode `layer`'s mask codes + assignments against `codebook` into
     * the packed sparse operand.
     *
     * @param stride/pad Convolution geometry (not stored in the
     *        compressed container, which only keeps the kernel shape).
     * @param groups     Channel groups of the original Conv2d; the layer's
     *        weight shape is [K, C/groups, R, S].
     */
    CompressedConv2d(const core::CompressedLayer &layer,
                     const core::Codebook &codebook, std::int64_t stride = 1,
                     std::int64_t pad = 0, std::int64_t groups = 1);

    /**
     * Construct over an *injected* pre-packed operand (a one-element
     * vector whose CSR, GroupedSparseMatrix::rows, is the layer's
     * [K, C/groups*R*S] matrix) instead of packing here — the serving
     * path: the operand comes from core::io::ModelArtifact::packedOperands,
     * so N conv instances (and, with an MVQI image, N processes) share one
     * packed operand and construction does no decode and no pack. The
     * shared_ptr keeps whatever owns the operand bytes (e.g. the
     * artifact's image) alive.
     *
     * @param weight_shape Original 4-D kernel shape [K, C/groups, R, S]
     *        (the operand only knows the unrolled 2-D geometry).
     * @param groups Channel groups of the conv (see
     *        core::io::ModelArtifact::layerGroups).
     */
    CompressedConv2d(
        std::string name, const Shape &weight_shape,
        std::shared_ptr<const std::vector<GroupedSparseMatrix>> operands,
        std::int64_t stride = 1, std::int64_t pad = 0,
        std::int64_t groups = 1);

    /**
     * NCHW forward through the direct sparse conv (one gemm per image
     * over every group, output slabs written in place).
     * Genuinely const (no hidden mutable state), so one instance can
     * serve concurrent forward calls. Output is bit-identical for any
     * `MVQ_NUM_THREADS` within an ISA.
     */
    Tensor forward(const Tensor &x) const;

    const std::string &name() const { return name_; }

    /** Multiply-adds one forward pass over `x` performs (sparse count:
     *  pruned positions cost nothing). */
    std::int64_t flopsFor(const Tensor &x) const;

    /** Kept fraction of the packed operand (N/M for an exact N:M layer). */
    double density() const;

    /** The packed CSR operand, every group's rows (tests/diagnostics). */
    const SparseRowMatrix &
    operand() const
    {
        return operands_->front().rows;
    }

    /**
     * This instance's packed operand, shareable with further instances
     * via the injected-operand constructor (no repack).
     */
    std::shared_ptr<const std::vector<GroupedSparseMatrix>>
    packedOperands() const
    {
        return operands_;
    }

  private:
    std::string name_;
    Shape weight_shape_; //!< [K, C/groups, R, S]
    std::int64_t stride_;
    std::int64_t pad_;
    std::int64_t groups_;
    /** The layer's one operand; shared (never copied) across instances
     *  built from the same artifact or via packedOperands(). */
    std::shared_ptr<const std::vector<GroupedSparseMatrix>> operands_;
};

} // namespace mvq::nn

#endif // MVQ_NN_COMPRESSED_CONV2D_HPP
