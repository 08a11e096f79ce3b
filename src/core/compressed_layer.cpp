#include "core/compressed_layer.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"

namespace mvq::core {

StorageCost &
StorageCost::operator+=(const StorageCost &other)
{
    weight_count += other.weight_count;
    assignment_bits += other.assignment_bits;
    mask_bits += other.mask_bits;
    codebook_bits += other.codebook_bits;
    return *this;
}

Mask
CompressedLayer::decodeMask() const
{
    const MaskCodec codec(cfg.pattern);
    const std::int64_t groups_per_sub = cfg.d / cfg.pattern.m;
    panicIf(static_cast<std::int64_t>(mask_codes.size())
                != ng() * groups_per_sub,
            name, ": mask code count mismatch");
    Mask mask(static_cast<std::size_t>(ng() * cfg.d), 0);
    codec.decodeInto(mask_codes.data(),
                     static_cast<std::int64_t>(mask_codes.size()),
                     mask.data());
    return mask;
}

namespace {

/**
 * The pack walk indexes the mask and the assignments by grouped
 * coordinate and the codebook by assignment. A layer read from a file
 * (a stream is packed as soon as it is opened) must keep every one of
 * those indices in range: FatalError otherwise, never an out-of-bounds
 * read. Mask codes are range-checked where they are decoded.
 */
void
checkPackInputs(const CompressedLayer &layer, const Codebook &cb)
{
    fatalIf(cb.d() != layer.cfg.d, layer.name, ": codebook d ", cb.d(),
            " != layer d ", layer.cfg.d);
    const std::int64_t ng = groupCount(layer.weight_shape, layer.cfg.d,
                                       layer.cfg.grouping);
    fatalIf(layer.ng() != ng, layer.name, ": ", layer.ng(),
            " assignments, but a ", layer.weight_shape.str(),
            " kernel at d=", layer.cfg.d, " has ", ng, " subvectors");
    for (const std::int32_t a : layer.assignments)
        fatalIf(a < 0 || a >= cb.k(), layer.name, ": assignment ", a,
                " is outside its ", cb.k(), "-codeword codebook");
}

/**
 * The shared pack walk: rows [k0, k1) of the layer's unrolled [K, C*R*S]
 * weight matrix as a standalone CSR operand (rows rebased to k0). One LUT
 * pass has already expanded the stored group codes into `mask`; the walk
 * consumes the bits in unrolled weight-matrix order. A kept position
 * keeps its codeword value even when that value is 0.0f — the operand
 * mirrors the mask structure, not incidental zeros.
 */
SparseRowMatrix
packRowRange(const CompressedLayer &layer, const Mask &mask,
             const Codebook &cb, std::int64_t k0, std::int64_t k1)
{
    const Shape &w4 = layer.weight_shape;
    const std::int64_t cc = w4.dim(1);
    const std::int64_t rr = w4.dim(2);
    const std::int64_t ss = w4.dim(3);
    const std::int64_t d = layer.cfg.d;
    const float *cw = cb.codewords.data();

    SparseRowMatrix sp;
    sp.rows = k1 - k0;
    sp.cols = cc * rr * ss;
    sp.row_ptr.reserve(static_cast<std::size_t>(sp.rows) + 1);
    sp.row_ptr.push_back(0);
    const std::int64_t keep_estimate = sp.rows * sp.cols
        * layer.cfg.pattern.n / layer.cfg.pattern.m;
    sp.col_idx.reserve(static_cast<std::size_t>(keep_estimate));
    sp.values.reserve(static_cast<std::size_t>(keep_estimate));
    for (std::int64_t k = k0; k < k1; ++k) {
        for (std::int64_t c = 0; c < cc; ++c) {
            for (std::int64_t r = 0; r < rr; ++r) {
                for (std::int64_t s = 0; s < ss; ++s) {
                    const GroupedCoord gc =
                        groupedCoords(k, c, r, s, w4, d, layer.cfg.grouping);
                    if (!mask[static_cast<std::size_t>(
                            gc.row * d + gc.col)])
                        continue;
                    const std::int32_t a = layer.assignments[
                        static_cast<std::size_t>(gc.row)];
                    sp.col_idx.push_back(static_cast<std::int32_t>(
                        (c * rr + r) * ss + s));
                    sp.values.push_back(cw[a * d + gc.col]);
                }
            }
        }
        sp.row_ptr.push_back(
            static_cast<std::int64_t>(sp.values.size()));
    }
    validateSparseOperand(sp);
    return sp;
}

} // namespace

SparseRowMatrix
CompressedLayer::packSparseRows(const Codebook &cb) const
{
    checkPackInputs(*this, cb);
    const Mask mask = decodeMask();
    return packRowRange(*this, mask, cb, 0, weight_shape.dim(0));
}

std::vector<GroupedSparseMatrix>
CompressedLayer::packGroupedRows(const Codebook &cb,
                                 std::int64_t groups) const
{
    checkPackInputs(*this, cb);
    const std::int64_t kk = weight_shape.dim(0);
    fatalIf(groups <= 0 || kk % groups != 0,
            name, ": out channels ", kk, " not divisible by groups ",
            groups);
    const std::int64_t kg = kk / groups;

    // Bucket in M-row blocks: under output-channel-wise grouping one mask
    // code governs M consecutive gemm rows at one column, so M-blocks are
    // exactly the spans within which rows can share a kept-column
    // pattern. Degenerate patterns (M < 2, i.e. dense vanilla VQ) have no
    // code granularity to align with; a 16-row block tiles them fully.
    const std::int64_t mb = cfg.pattern.m >= 2
        ? std::min<std::int64_t>(cfg.pattern.m, 32)
        : 16;

    const Mask mask = decodeMask();
    std::vector<GroupedSparseMatrix> out;
    out.reserve(static_cast<std::size_t>(groups));
    for (std::int64_t grp = 0; grp < groups; ++grp)
        out.push_back(groupSparseRows(
            packRowRange(*this, mask, cb, grp * kg, (grp + 1) * kg), mb));
    return out;
}

Tensor
CompressedLayer::reconstruct(const Codebook &cb) const
{
    const Mask mask = decodeMask();
    Tensor wr = reconstructGrouped(cb.codewords, assignments, mask);
    return ungroupWeights(wr, weight_shape, cfg.d, cfg.grouping);
}

Tensor
CompressedLayer::reconstructDense(const Codebook &cb) const
{
    Tensor wr = reconstructGroupedDense(cb.codewords, assignments);
    return ungroupWeights(wr, weight_shape, cfg.d, cfg.grouping);
}

StorageCost
CompressedLayer::assignmentStorage() const
{
    const MaskCodec codec(cfg.pattern);
    StorageCost cost;
    cost.weight_count = ng() * cfg.d;
    cost.assignment_bits = ng() * log2Ceil(
        static_cast<std::uint64_t>(cfg.k));
    cost.mask_bits = static_cast<std::int64_t>(mask_codes.size())
        * codec.bitsPerGroup();
    return cost;
}

StorageCost
CompressedModel::storage() const
{
    StorageCost total;
    for (const auto &layer : layers) {
        StorageCost c = layer.assignmentStorage();
        if (dense_reconstruct)
            c.mask_bits = 0; // masks not stored for dense reconstruction
        total += c;
    }
    for (const auto &cb : codebooks)
        total.codebook_bits += cb.storageBits();
    return total;
}

Tensor
CompressedModel::reconstructLayer(std::size_t i) const
{
    fatalIf(i >= layers.size(), "layer index out of range");
    const auto &layer = layers[i];
    fatalIf(layer.codebook_id < 0
                || layer.codebook_id
                    >= static_cast<int>(codebooks.size()),
            layer.name, ": bad codebook id");
    const Codebook &cb =
        codebooks[static_cast<std::size_t>(layer.codebook_id)];
    return dense_reconstruct ? layer.reconstructDense(cb)
                             : layer.reconstruct(cb);
}

void
CompressedModel::applyTo(nn::Layer &model) const
{
    auto convs = nn::convLayers(model);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        nn::Conv2d *target = nullptr;
        for (nn::Conv2d *conv : convs) {
            if (conv->name() == layers[i].name) {
                target = conv;
                break;
            }
        }
        fatalIf(target == nullptr, "no conv layer named ", layers[i].name);
        target->setWeight(reconstructLayer(i));
    }
}

std::int64_t
CompressedModel::compressedFlops() const
{
    std::int64_t total = 0;
    for (const auto &layer : layers) {
        total += dense_reconstruct ? layer.dense_flops
                                   : layer.sparseFlops();
    }
    return total;
}

std::int64_t
CompressedModel::denseFlops() const
{
    std::int64_t total = 0;
    for (const auto &layer : layers)
        total += layer.dense_flops;
    return total;
}

CompressedLayer
makeCompressedLayer(const std::string &name, const Shape &w4_shape,
                    const MvqLayerConfig &cfg, const Mask &mask,
                    const KmeansResult &result, int codebook_id)
{
    const std::int64_t ng = groupCount(w4_shape, cfg.d, cfg.grouping);
    fatalIf(static_cast<std::int64_t>(result.assignments.size()) != ng,
            name, ": assignment count ", result.assignments.size(),
            " != N_G ", ng);
    fatalIf(static_cast<std::int64_t>(mask.size()) != ng * cfg.d,
            name, ": mask size mismatch");

    CompressedLayer layer;
    layer.name = name;
    layer.weight_shape = w4_shape;
    layer.cfg = cfg;
    layer.codebook_id = codebook_id;
    layer.assignments = result.assignments;

    const MaskCodec codec(cfg.pattern);
    layer.mask_codes.reserve(static_cast<std::size_t>(
        ng * (cfg.d / cfg.pattern.m)));
    for (std::int64_t j = 0; j < ng; ++j) {
        const auto codes =
            codec.encodeSubvector(mask.data() + j * cfg.d, cfg.d);
        layer.mask_codes.insert(layer.mask_codes.end(), codes.begin(),
                                codes.end());
    }
    return layer;
}

} // namespace mvq::core
