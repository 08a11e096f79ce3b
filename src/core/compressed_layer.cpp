#include "core/compressed_layer.hpp"

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
 * A weight's place in the grouped [NG, d] matrix as a subvector row plus
 * the flat mask index row * d + pos.
 */
struct GroupedOffset
{
    std::int64_t row = 0;
    std::int64_t flat = 0;
};

GroupedOffset
groupedOffset(const GroupedCoord &gc, std::int64_t d)
{
    return {gc.row, gc.row * d + gc.col};
}

/**
 * For every grouping, groupedCoords(k, c, r, s) is the sum of
 * groupedCoords(k, 0, 0, 0) and groupedCoords(0, c, r, s), with no carry
 * from the position into the row. So the grouped offset of weight (k, j),
 * j = (c*R + r)*S + s the unrolled column, is a per-row base plus these
 * per-column tables, computed once per layer in O(C*R*S).
 */
struct ColumnOffsets
{
    std::vector<std::int64_t> row;
    std::vector<std::int64_t> flat;
};

ColumnOffsets
columnOffsets(const CompressedLayer &layer)
{
    const Shape &w4 = layer.weight_shape;
    const std::size_t ncols =
        static_cast<std::size_t>(w4.dim(1) * w4.dim(2) * w4.dim(3));
    ColumnOffsets off;
    off.row.reserve(ncols);
    off.flat.reserve(ncols);
    for (std::int64_t c = 0; c < w4.dim(1); ++c) {
        for (std::int64_t r = 0; r < w4.dim(2); ++r) {
            for (std::int64_t s = 0; s < w4.dim(3); ++s) {
                const GroupedOffset o = groupedOffset(
                    groupedCoords(0, c, r, s, w4, layer.cfg.d,
                                  layer.cfg.grouping),
                    layer.cfg.d);
                off.row.push_back(o.row);
                off.flat.push_back(o.flat);
            }
        }
    }
    return off;
}

} // namespace

/**
 * The pack walk. One LUT pass expands the stored group codes into a
 * mask; the walk reads each weight's bit at its row base plus the
 * per-column offsets, once to size the arrays exactly and once to fill
 * them. A kept position keeps its codeword value even when that value is
 * 0.0f — the operand mirrors the mask structure, not incidental zeros.
 */
SparseRowMatrix
CompressedLayer::packSparseRows(const Codebook &cb) const
{
    checkPackInputs(*this, cb);
    const Mask mask = decodeMask();
    const ColumnOffsets col_off = columnOffsets(*this);
    const Shape &w4 = weight_shape;
    const std::int64_t d = cfg.d;
    const std::int64_t ncols = static_cast<std::int64_t>(col_off.flat.size());
    const std::int64_t *col_row = col_off.row.data();
    const std::int64_t *col_flat = col_off.flat.data();
    const std::uint8_t *keep = mask.data(); // 0/1 per weight
    auto rowBase = [&](std::int64_t k) {
        return groupedOffset(groupedCoords(k, 0, 0, 0, w4, d, cfg.grouping),
                             d);
    };

    const std::int64_t rows = w4.dim(0);
    std::vector<std::int64_t> ptr(static_cast<std::size_t>(rows) + 1);
    std::int64_t *row_ptr = ptr.data();
    row_ptr[0] = 0;
    for (std::int64_t k = 0; k < rows; ++k) {
        const std::uint8_t *row_keep = keep + rowBase(k).flat;
        std::int64_t kept = 0;
        for (std::int64_t j = 0; j < ncols; ++j)
            kept += row_keep[col_flat[j]];
        row_ptr[k + 1] = row_ptr[k] + kept;
    }

    std::vector<std::int32_t> idx(static_cast<std::size_t>(row_ptr[rows]));
    std::vector<float> vals(static_cast<std::size_t>(row_ptr[rows]));
    std::int32_t *col_idx = idx.data();
    float *values = vals.data();
    const float *cw = cb.codewords.data();
    const std::int32_t *assign = assignments.data();
    // A row's kept columns are collected without a branch (N of every M
    // bits set at random defeats the predictor), then filled in.
    std::vector<std::int32_t> kept_cols(static_cast<std::size_t>(ncols));
    for (std::int64_t k = 0; k < rows; ++k) {
        const GroupedOffset base = rowBase(k);
        const std::uint8_t *row_keep = keep + base.flat;
        std::int64_t n = 0;
        for (std::int64_t j = 0; j < ncols; ++j) {
            kept_cols[static_cast<std::size_t>(n)] =
                static_cast<std::int32_t>(j);
            n += row_keep[col_flat[j]];
        }
        const std::int64_t e0 = row_ptr[k];
        for (std::int64_t q = 0; q < n; ++q) {
            const std::int32_t j = kept_cols[static_cast<std::size_t>(q)];
            const std::int64_t row = base.row + col_row[j];
            const std::int64_t pos = base.flat + col_flat[j] - row * d;
            col_idx[e0 + q] = j;
            values[e0 + q] = cw[assign[row] * d + pos];
        }
    }
    return SparseRowMatrix::fromVectors(rows, ncols, std::move(ptr),
                                        std::move(idx), std::move(vals));
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
