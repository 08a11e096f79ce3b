/**
 * @file
 * Storage containers for MVQ-compressed layers and models. The on-"disk"
 * format follows the paper's Section 5 accounting: per layer a list of
 * assignments (ceil(log2 k) bits each), per-M-group mask codes
 * (ceil(log2 C(M,N)) bits each), and one codebook (k * d * q_c bits),
 * possibly shared across layers (cross-layer clustering).
 *
 * Vanilla (unmasked) VQ is represented with the degenerate pattern 1:1,
 * whose mask costs zero bits and keeps every weight — so every ablation
 * case of the paper (Fig. 12) shares this container and its accounting.
 */

#ifndef MVQ_CORE_COMPRESSED_LAYER_HPP
#define MVQ_CORE_COMPRESSED_LAYER_HPP

#include <string>
#include <vector>

#include "core/codebook.hpp"
#include "core/grouping.hpp"
#include "core/mask_codec.hpp"
#include "core/masked_kmeans.hpp"
#include "core/nm_pruning.hpp"
#include "tensor/ops.hpp"

namespace mvq::nn {
class Layer;
} // namespace mvq::nn

namespace mvq::core {

/** Per-layer compression settings. */
struct MvqLayerConfig
{
    std::int64_t k = 512;   //!< codewords
    std::int64_t d = 16;    //!< subvector length
    NmPattern pattern{4, 16};
    Grouping grouping = Grouping::OutputChannelWise;
    int codebook_bits = 8;  //!< 0 disables codebook quantization
};

/** Bit-level storage accounting (inputs to Eq. 7). */
struct StorageCost
{
    std::int64_t weight_count = 0;   //!< N_G * d
    std::int64_t assignment_bits = 0; //!< b_a
    std::int64_t mask_bits = 0;       //!< b_m
    std::int64_t codebook_bits = 0;   //!< b_c

    std::int64_t
    totalBits() const
    {
        return assignment_bits + mask_bits + codebook_bits;
    }

    double
    bitsPerWeight() const
    {
        return weight_count
            ? static_cast<double>(totalBits())
                / static_cast<double>(weight_count)
            : 0.0;
    }

    /** Eq. 7 with b_f full-precision bits per weight (32 for fp32). */
    double
    compressionRatio(int bf = 32) const
    {
        return totalBits()
            ? static_cast<double>(weight_count) * bf
                / static_cast<double>(totalBits())
            : 0.0;
    }

    StorageCost &operator+=(const StorageCost &other);
};

/** One compressed convolution kernel. */
struct CompressedLayer
{
    std::string name;       //!< matches the Conv2d layer name
    Shape weight_shape;     //!< original [K, C, R, S]
    MvqLayerConfig cfg;
    int codebook_id = 0;    //!< index into CompressedModel::codebooks
    std::vector<std::int32_t> assignments;  //!< N_G entries
    std::vector<std::uint32_t> mask_codes;  //!< N_G * d/M group codes
    std::int64_t dense_flops = 0; //!< MACs of the dense layer (for reports)

    std::int64_t ng() const
    {
        return static_cast<std::int64_t>(assignments.size());
    }

    /** Expand the stored mask codes into an N_G*d bitmask. */
    Mask decodeMask() const;

    /** Sparse-reconstruct the 4-D kernel: codeword o mask per subvector. */
    Tensor reconstruct(const Codebook &cb) const;

    /**
     * Decode straight into the sparse gemm operand: a per-row
     * compressed-column (CSR) view of the unrolled [K, C*R*S] weight
     * matrix holding only the positions the stored mask codes keep, with
     * codeword values filled in from `cb`. The N:M structure makes those
     * positions statically known per M-group, so this is built once at
     * load time and reused for every forward pass (see
     * nn::CompressedConv2d) — inference never touches pruned positions,
     * realizing the N/M flop reduction the accelerator sim models.
     * This is the one operand per layer that MVQI images store and
     * nn::CompressedConv2d runs; a conv's groups are row ranges of it.
     */
    SparseRowMatrix packSparseRows(const Codebook &cb) const;

    /** Dense-reconstruct (mask ignored; ablation cases A/B). */
    Tensor reconstructDense(const Codebook &cb) const;

    /** Storage cost of assignments + masks (codebook counted separately). */
    StorageCost assignmentStorage() const;

    /** FLOPs after pruning: dense * N / M. */
    std::int64_t
    sparseFlops() const
    {
        return dense_flops * cfg.pattern.n / cfg.pattern.m;
    }
};

/** A fully compressed model: layers plus one or more codebooks. */
struct CompressedModel
{
    std::vector<CompressedLayer> layers;
    std::vector<Codebook> codebooks;
    /**
     * When the reconstruction is dense (ablation cases A/B), masks are not
     * stored and not applied; reconstruct() then ignores them and
     * storage() omits b_m.
     */
    bool dense_reconstruct = false;

    /** Total storage including each codebook once. */
    StorageCost storage() const;

    /** Eq. 7 over the whole model. */
    double
    compressionRatio(int bf = 32) const
    {
        return storage().compressionRatio(bf);
    }

    /** Reconstruct layer i with its codebook. */
    Tensor reconstructLayer(std::size_t i) const;

    /**
     * Write reconstructed kernels into the matching Conv2d layers of a
     * model (matched by layer name; fatal when a name is missing).
     */
    void applyTo(nn::Layer &model) const;

    /** Sum of sparse FLOPs over compressed layers. */
    std::int64_t compressedFlops() const;

    /** Sum of dense FLOPs over compressed layers. */
    std::int64_t denseFlops() const;
};

/**
 * Build a compressed layer from a clustering result.
 *
 * @param name     Conv layer name.
 * @param w4_shape Original kernel shape.
 * @param cfg      Compression settings (k, d, pattern, grouping).
 * @param mask     N_G*d bitmask (from nmMask); pattern 1:1 accepted.
 * @param result   Codebook + assignments from (masked) k-means.
 * @param codebook_id Index of the codebook in the owning model.
 */
CompressedLayer makeCompressedLayer(const std::string &name,
                                    const Shape &w4_shape,
                                    const MvqLayerConfig &cfg,
                                    const Mask &mask,
                                    const KmeansResult &result,
                                    int codebook_id);

} // namespace mvq::core

#endif // MVQ_CORE_COMPRESSED_LAYER_HPP
