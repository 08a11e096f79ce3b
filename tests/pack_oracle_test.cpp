/**
 * @file
 * Byte-identity oracles for the operand builders. The O(nnz) pack walk
 * behind CompressedLayer::packSparseRows / packGroupedRows and the
 * sort-free groupSparseRows must reproduce, array for array, the direct
 * versions kept here: a per-weight groupedCoords walk, and a bucketing
 * that sorts each block's entries by (column, row), maps kept-row keys
 * to buckets through a hash map, and sorts the remainder triples once at
 * the end. A stream-opened ResNet-18-geometry image is compared with the
 * writer's image carrying the oracle operands.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "models/layer_spec.hpp"
#include "tensor/ops.hpp"

namespace mvq::core {
namespace {

using Tile = GroupedSparseMatrix::Tile;

// ------------------------------------------------------------- the oracles

/** Rows [k0, k1) of the unrolled weight matrix, one groupedCoords call
 *  per weight. */
SparseRowMatrix
oraclePackRowRange(const CompressedLayer &layer, const Mask &mask,
                   const Codebook &cb, std::int64_t k0, std::int64_t k1)
{
    const Shape &w4 = layer.weight_shape;
    const std::int64_t d = layer.cfg.d;
    SparseRowMatrix sp;
    sp.rows = k1 - k0;
    sp.cols = w4.dim(1) * w4.dim(2) * w4.dim(3);
    sp.row_ptr.push_back(0);
    for (std::int64_t k = k0; k < k1; ++k) {
        for (std::int64_t c = 0; c < w4.dim(1); ++c) {
            for (std::int64_t r = 0; r < w4.dim(2); ++r) {
                for (std::int64_t s = 0; s < w4.dim(3); ++s) {
                    const GroupedCoord gc =
                        groupedCoords(k, c, r, s, w4, d, layer.cfg.grouping);
                    if (!mask[static_cast<std::size_t>(gc.row * d + gc.col)])
                        continue;
                    const std::int32_t a = layer.assignments[
                        static_cast<std::size_t>(gc.row)];
                    sp.col_idx.push_back(static_cast<std::int32_t>(
                        (c * w4.dim(2) + r) * w4.dim(3) + s));
                    sp.values.push_back(cb.codewords[a * d + gc.col]);
                }
            }
        }
        sp.row_ptr.push_back(static_cast<std::int64_t>(sp.values.size()));
    }
    return sp;
}

/** Bucket each block's columns by kept-row key through sorts and a hash
 *  map; the remainder is assembled from one global sort. */
GroupedSparseMatrix
oracleGroupSparseRows(SparseRowMatrix rows, std::int64_t m_block,
                      std::int64_t min_cols)
{
    GroupedSparseMatrix out;
    out.rows = std::move(rows);
    const SparseRowMatrix &src = out.rows;
    struct Entry
    {
        std::int32_t row;
        std::int32_t col;
        float val;
    };
    std::vector<Entry> rem;
    struct Bucket
    {
        std::uint32_t key = 0;
        std::vector<std::int32_t> cols;
        std::vector<float> vals; // per column, rows ascending
    };

    for (std::int64_t r0 = 0; r0 < src.rows; r0 += m_block) {
        const std::int64_t r1 = std::min(src.rows, r0 + m_block);
        std::vector<Entry> ents; // row is block-local here
        for (std::int64_t r = r0; r < r1; ++r)
            for (std::int64_t e = src.row_ptr[static_cast<std::size_t>(r)];
                 e < src.row_ptr[static_cast<std::size_t>(r + 1)]; ++e)
                ents.push_back({static_cast<std::int32_t>(r - r0),
                                src.col_idx[static_cast<std::size_t>(e)],
                                src.values[static_cast<std::size_t>(e)]});
        std::sort(ents.begin(), ents.end(),
                  [](const Entry &x, const Entry &y) {
                      return x.col != y.col ? x.col < y.col : x.row < y.row;
                  });

        std::vector<Bucket> buckets;
        std::unordered_map<std::uint32_t, std::size_t> bucket_of;
        for (std::size_t e = 0; e < ents.size();) {
            std::size_t e1 = e;
            std::uint32_t key = 0;
            while (e1 < ents.size() && ents[e1].col == ents[e].col)
                key |= 1u << ents[e1++].row;
            const auto [it, fresh] =
                bucket_of.try_emplace(key, buckets.size());
            if (fresh)
                buckets.push_back({key, {}, {}});
            Bucket &bk = buckets[it->second];
            bk.cols.push_back(ents[e].col);
            for (std::size_t q = e; q < e1; ++q)
                bk.vals.push_back(ents[q].val);
            e = e1;
        }

        const std::size_t band_start = out.tiles.size();
        for (const Bucket &bk : buckets) {
            const int krows = std::popcount(bk.key);
            const std::int64_t ncols =
                static_cast<std::int64_t>(bk.cols.size());
            std::vector<std::int32_t> rl;
            for (std::uint32_t bits = bk.key; bits != 0; bits &= bits - 1)
                rl.push_back(std::countr_zero(bits));
            auto toRemainder = [&](int t) {
                for (std::int64_t q = 0; q < ncols; ++q)
                    rem.push_back({static_cast<std::int32_t>(r0) + rl[t],
                                   bk.cols[static_cast<std::size_t>(q)],
                                   bk.vals[static_cast<std::size_t>(
                                       q * krows + t)]});
            };
            if (krows < 2 || ncols < min_cols) {
                for (int t = 0; t < krows; ++t)
                    toRemainder(t);
                continue;
            }
            const std::int64_t col_off =
                static_cast<std::int64_t>(out.cols.size());
            for (std::int32_t c : bk.cols)
                out.cols.push_back(c);
            for (int t0 = 0; t0 < krows;) {
                const int trows = std::min<int>(kSparseTileMaxRows,
                                                krows - t0);
                if (trows == 1) {
                    toRemainder(t0++);
                    continue;
                }
                Tile tl;
                tl.nrows = trows;
                for (int r = 0; r < trows; ++r)
                    tl.row[r] = static_cast<std::int32_t>(r0) + rl[t0 + r];
                tl.col_off = col_off;
                tl.ncols = ncols;
                tl.val_off = static_cast<std::int64_t>(out.vals.size());
                for (int r = 0; r < trows; ++r)
                    for (std::int64_t q = 0; q < ncols; ++q)
                        out.vals.push_back(bk.vals[static_cast<std::size_t>(
                            q * krows + t0 + r)]);
                out.tiles.push_back(tl);
                t0 += trows;
            }
        }
        if (out.tiles.size() > band_start)
            out.band_ptr.push_back(
                static_cast<std::int64_t>(out.tiles.size()));
    }

    std::sort(rem.begin(), rem.end(), [](const Entry &x, const Entry &y) {
        return x.row != y.row ? x.row < y.row : x.col < y.col;
    });
    out.remainder.rows = src.rows;
    out.remainder.cols = src.cols;
    out.remainder.row_ptr.push_back(0);
    std::size_t e = 0;
    for (std::int64_t r = 0; r < src.rows; ++r) {
        for (; e < rem.size() && rem[e].row == r; ++e) {
            out.remainder.col_idx.push_back(rem[e].col);
            out.remainder.values.push_back(rem[e].val);
        }
        out.remainder.row_ptr.push_back(
            static_cast<std::int64_t>(out.remainder.values.size()));
    }
    return out;
}

/** packGroupedRows through the oracles, with its block-size rule. */
std::vector<GroupedSparseMatrix>
oraclePackGroupedRows(const CompressedLayer &layer, const Codebook &cb,
                      std::int64_t groups)
{
    const std::int64_t kg = layer.weight_shape.dim(0) / groups;
    const std::int64_t mb = layer.cfg.pattern.m >= 2
        ? std::min<std::int64_t>(layer.cfg.pattern.m, 32)
        : 16;
    const Mask mask = layer.decodeMask();
    std::vector<GroupedSparseMatrix> out;
    for (std::int64_t grp = 0; grp < groups; ++grp)
        out.push_back(oracleGroupSparseRows(
            oraclePackRowRange(layer, mask, cb, grp * kg, (grp + 1) * kg),
            mb, kSparseTileMinCols));
    return out;
}

// ------------------------------------------------------------- comparison

template <typename T>
bool
sameBytes(const OperandArray<T> &a, const OperandArray<T> &b)
{
    return a.size() == b.size()
        && (a.empty()
            || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

void
expectSameCsr(const SparseRowMatrix &want, const SparseRowMatrix &got,
              const std::string &what)
{
    EXPECT_EQ(got.rows, want.rows) << what;
    EXPECT_EQ(got.cols, want.cols) << what;
    EXPECT_TRUE(sameBytes(got.row_ptr, want.row_ptr)) << what << " row_ptr";
    EXPECT_TRUE(sameBytes(got.col_idx, want.col_idx)) << what << " col_idx";
    EXPECT_TRUE(sameBytes(got.values, want.values)) << what << " values";
}

void
expectSameGrouped(const GroupedSparseMatrix &want,
                  const GroupedSparseMatrix &got, const std::string &what)
{
    expectSameCsr(want.rows, got.rows, what + " rows");
    ASSERT_EQ(got.tiles.size(), want.tiles.size()) << what << " tiles";
    for (std::size_t t = 0; t < want.tiles.size(); ++t) {
        const Tile &w = want.tiles[t];
        const Tile &g = got.tiles[t];
        ASSERT_EQ(g.nrows, w.nrows) << what << " tile " << t;
        for (std::int32_t r = 0; r < w.nrows; ++r)
            EXPECT_EQ(g.row[r], w.row[r]) << what << " tile " << t;
        EXPECT_EQ(g.col_off, w.col_off) << what << " tile " << t;
        EXPECT_EQ(g.ncols, w.ncols) << what << " tile " << t;
        EXPECT_EQ(g.val_off, w.val_off) << what << " tile " << t;
    }
    EXPECT_TRUE(sameBytes(got.cols, want.cols)) << what << " cols";
    EXPECT_TRUE(sameBytes(got.vals, want.vals)) << what << " vals";
    EXPECT_TRUE(sameBytes(got.band_ptr, want.band_ptr)) << what
                                                        << " band_ptr";
    expectSameCsr(want.remainder, got.remainder, what + " remainder");
}

// ------------------------------------------------------------- inputs

Codebook
randomCodebook(Rng &rng, std::int64_t k, std::int64_t d)
{
    Codebook cb;
    cb.codewords = Tensor(Shape({k, d}));
    cb.codewords.fillNormal(rng, 0.0f, 1.0f);
    return cb;
}

/** Random assignments; mask codes random, or one repeated code (every
 *  block then shares one kept-row pattern, the tile-heavy extreme). */
CompressedLayer
randomLayer(Rng &rng, const Shape &shape, Grouping g, NmPattern p,
            std::int64_t d, std::int64_t k, bool repeat_code)
{
    CompressedLayer l;
    l.name = "conv";
    l.weight_shape = shape;
    l.cfg.k = k;
    l.cfg.d = d;
    l.cfg.pattern = p;
    l.cfg.grouping = g;
    const std::int64_t ng = groupCount(shape, d, g);
    for (std::int64_t j = 0; j < ng; ++j)
        l.assignments.push_back(static_cast<std::int32_t>(rng.intIn(0, k - 1)));
    const MaskCodec codec(p);
    const auto ncodes = static_cast<std::int64_t>(codec.codeCount());
    const std::int64_t fixed = rng.intIn(0, ncodes - 1);
    for (std::int64_t j = 0; j < ng * (d / p.m); ++j)
        l.mask_codes.push_back(static_cast<std::uint32_t>(
            repeat_code ? fixed : rng.intIn(0, ncodes - 1)));
    return l;
}

struct LayerCase
{
    const char *name;
    Grouping grouping;
    NmPattern pattern;
    std::int64_t d;
    Shape shape;
};

std::string
caseName(const ::testing::TestParamInfo<LayerCase> &info)
{
    return info.param.name;
}

class PackOracle : public ::testing::TestWithParam<LayerCase>
{
};

TEST_P(PackOracle, PackedOperandsMatchTheOracleArrayForArray)
{
    const LayerCase &lc = GetParam();
    Rng rng(0x5eed + static_cast<std::uint64_t>(lc.shape.numel()));
    const Codebook cb = randomCodebook(rng, 32, lc.d);
    std::int64_t tiles = 0;
    for (const bool repeat : {false, true}) {
        const CompressedLayer layer = randomLayer(
            rng, lc.shape, lc.grouping, lc.pattern, lc.d, 32, repeat);
        const std::string mode = repeat ? " repeated-code" : " random";
        expectSameCsr(oraclePackRowRange(layer, layer.decodeMask(), cb, 0,
                                         lc.shape.dim(0)),
                      layer.packSparseRows(cb), lc.name + mode + " csr");
        for (const std::int64_t groups : {1, 2, 4}) {
            const auto want = oraclePackGroupedRows(layer, cb, groups);
            const auto got = layer.packGroupedRows(cb, groups);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t g = 0; g < want.size(); ++g) {
                expectSameGrouped(want[g], got[g],
                                  lc.name + mode + " groups "
                                      + std::to_string(groups) + " group "
                                      + std::to_string(g));
                tiles += static_cast<std::int64_t>(got[g].tiles.size());
            }
        }
    }
    // The repeated-code masks must actually exercise the tile layout.
    EXPECT_GT(tiles, 0);
}

// Row counts per group (K / groups) include ones that are not a multiple
// of the pattern's M-row block; d differs from M in the 2:4 and 8:16
// cases. Forced-repeat 5:16 output-channel masks leave a one-row chunk per
// block; kernel-wise K=20 at groups 4 blocks 5 rows, leaving one as well.
INSTANTIATE_TEST_SUITE_P(
    Layers, PackOracle,
    ::testing::Values(
        LayerCase{"ocw_4of16_d16", Grouping::OutputChannelWise, {4, 16}, 16,
                  Shape({48, 6, 3, 3})},
        LayerCase{"ocw_2of4_d16", Grouping::OutputChannelWise, {2, 4}, 16,
                  Shape({48, 5, 3, 3})},
        LayerCase{"ocw_8of16_d32", Grouping::OutputChannelWise, {8, 16}, 32,
                  Shape({64, 3, 3, 3})},
        LayerCase{"ocw_5of16_d16", Grouping::OutputChannelWise, {5, 16}, 16,
                  Shape({48, 4, 3, 3})},
        LayerCase{"kw_4of16_d16", Grouping::KernelWise, {4, 16}, 16,
                  Shape({20, 6, 4, 4})},
        LayerCase{"kw_2of4_d16", Grouping::KernelWise, {2, 4}, 16,
                  Shape({20, 3, 4, 4})},
        LayerCase{"kw_8of16_d32", Grouping::KernelWise, {8, 16}, 32,
                  Shape({12, 4, 4, 8})},
        LayerCase{"icw_4of16_d16", Grouping::InputChannelWise, {4, 16}, 16,
                  Shape({20, 32, 3, 3})},
        LayerCase{"icw_2of4_d16", Grouping::InputChannelWise, {2, 4}, 16,
                  Shape({20, 16, 3, 3})},
        LayerCase{"icw_8of16_d32", Grouping::InputChannelWise, {8, 16}, 32,
                  Shape({8, 64, 2, 2})}),
    caseName);

/**
 * A random operand built for the bucketing's corner cases: per block,
 * buckets of 1, 2, 3, 4, 5, 8, 9 or all rows over min_cols - 1, min_cols
 * or more shared columns, scattered single entries, and (half the time)
 * one row left empty.
 */
SparseRowMatrix
tileHeavyOperand(Rng &rng, std::int64_t rows, std::int64_t cols,
                 std::int64_t m_block, std::int64_t min_cols)
{
    std::vector<std::uint8_t> kept(static_cast<std::size_t>(rows * cols), 0);
    for (std::int64_t r0 = 0; r0 < rows; r0 += m_block) {
        const std::int64_t brows = std::min(m_block, rows - r0);
        std::vector<std::int64_t> free_rows(static_cast<std::size_t>(brows));
        std::iota(free_rows.begin(), free_rows.end(), r0);
        rng.shuffle(free_rows);
        if (rng.intIn(0, 1) == 1)
            free_rows.pop_back(); // this row stays empty
        std::vector<std::int64_t> free_cols(static_cast<std::size_t>(cols));
        std::iota(free_cols.begin(), free_cols.end(), 0);
        rng.shuffle(free_cols);

        const std::int64_t nbuckets = rng.intIn(0, 6);
        for (std::int64_t b = 0; b < nbuckets && !free_cols.empty(); ++b) {
            const std::int64_t sizes[] = {1, 2, 3, 4, 5, 8, 9, brows};
            const std::int64_t want_rows = std::min<std::int64_t>(
                sizes[rng.index(8)],
                static_cast<std::int64_t>(free_rows.size()));
            const std::int64_t widths[] = {min_cols - 1, min_cols,
                                           min_cols + rng.intIn(1, 6)};
            const std::int64_t want_cols = std::min<std::int64_t>(
                widths[rng.index(3)],
                static_cast<std::int64_t>(free_cols.size()));
            rng.shuffle(free_rows);
            for (std::int64_t q = 0; q < want_cols; ++q) {
                const std::int64_t c = free_cols.back();
                free_cols.pop_back();
                for (std::int64_t i = 0; i < want_rows; ++i)
                    kept[static_cast<std::size_t>(
                        free_rows[static_cast<std::size_t>(i)] * cols + c)] =
                        1;
            }
        }
        for (const std::int64_t c : free_cols)
            if (!free_rows.empty() && rng.intIn(0, 3) == 0)
                kept[static_cast<std::size_t>(
                    free_rows[rng.index(free_rows.size())] * cols + c)] = 1;
    }

    SparseRowMatrix sp;
    sp.rows = rows;
    sp.cols = cols;
    sp.row_ptr.push_back(0);
    for (std::int64_t r = 0; r < rows; ++r) {
        for (std::int64_t c = 0; c < cols; ++c) {
            if (kept[static_cast<std::size_t>(r * cols + c)]) {
                sp.col_idx.push_back(static_cast<std::int32_t>(c));
                sp.values.push_back(rng.uniform(-1.0f, 1.0f));
            }
        }
        sp.row_ptr.push_back(static_cast<std::int64_t>(sp.values.size()));
    }
    return sp;
}

TEST(GroupSparseRowsOracle, TileHeavyOperandsMatchTheOracleArrayForArray)
{
    Rng rng(16);
    std::int64_t tiles = 0;
    std::int64_t leftovers = 0;
    for (const std::int64_t m_block : {2, 16, 32, 5, 13}) {
        for (const std::int64_t min_cols : {1, 3, 8, 12}) {
            for (int rep = 0; rep < 6; ++rep) {
                const std::int64_t rows = rng.intIn(1, 3 * m_block + 7);
                const std::int64_t cols = rng.intIn(1, 160);
                const SparseRowMatrix op =
                    tileHeavyOperand(rng, rows, cols, m_block, min_cols);
                const GroupedSparseMatrix want =
                    oracleGroupSparseRows(op, m_block, min_cols);
                const GroupedSparseMatrix got =
                    groupSparseRows(op, m_block, min_cols);
                expectSameGrouped(want, got,
                                  "m_block " + std::to_string(m_block)
                                      + " min_cols "
                                      + std::to_string(min_cols) + " rows "
                                      + std::to_string(rows));
                tiles += static_cast<std::int64_t>(got.tiles.size());
                for (const Tile &t : got.tiles)
                    leftovers += t.nrows < kSparseTileMaxRows;
            }
        }
    }
    EXPECT_GT(tiles, 100);
    EXPECT_GT(leftovers, 10); // short last chunks were exercised
}

TEST(PackOracleImage, StreamOpenedResNet18ImageMatchesOracleOperands)
{
    // ResNet-18's conv geometry with random 4:16 symbols.
    Rng rng(18);
    CompressedModel model;
    model.codebooks.push_back(randomCodebook(rng, 256, 16));
    for (const models::ConvLayerSpec &c : models::resnet18Spec().convs) {
        if (c.weightCount() % 16 != 0)
            continue;
        CompressedLayer l = randomLayer(
            rng, Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel}),
            Grouping::OutputChannelWise, {4, 16}, 16, 256, false);
        l.name = c.name;
        model.layers.push_back(std::move(l));
    }
    const std::string path = "/tmp/mvq_pack_oracle_test.mvq";
    io::saveArtifact(model, path, io::ArtifactFormat::Stream);
    const auto art = io::openArtifact(path);
    std::remove(path.c_str());

    // The writer's image for the model, with every operand section
    // overwritten by the oracle's arrays (tiles zero-padded as written).
    io::MvqiBytes want = io::buildMvqiImage(model);
    const io::MvqiView view(want.data(),
                            static_cast<std::int64_t>(want.size()), "want");
    ASSERT_EQ(view.layerCount(),
              static_cast<std::int64_t>(model.layers.size()));
    auto put = [&](const io::MvqiArray &sec, const auto &arr) {
        using T = std::remove_cvref_t<decltype(arr[0])>;
        ASSERT_EQ(sec.count, static_cast<std::int64_t>(arr.size()));
        if (!arr.empty())
            std::memcpy(want.data() + sec.off, arr.data(),
                        arr.size() * sizeof(T));
    };
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        const auto ops = oraclePackGroupedRows(model.layers[i],
                                               model.codebooks[0], 1);
        const io::MvqiOperand &rec =
            view.operands(static_cast<std::int64_t>(i))[0];
        const GroupedSparseMatrix &op = ops[0];
        put(rec.row_ptr, op.rows.row_ptr);
        put(rec.col_idx, op.rows.col_idx);
        put(rec.values, op.rows.values);
        std::vector<Tile> tiles(op.tiles.size());
        if (!tiles.empty())
            std::memset(static_cast<void *>(tiles.data()), 0,
                        tiles.size() * sizeof(Tile));
        for (std::size_t t = 0; t < tiles.size(); ++t) {
            for (std::int32_t r = 0; r < op.tiles[t].nrows; ++r)
                tiles[t].row[r] = op.tiles[t].row[r];
            tiles[t].nrows = op.tiles[t].nrows;
            tiles[t].col_off = op.tiles[t].col_off;
            tiles[t].ncols = op.tiles[t].ncols;
            tiles[t].val_off = op.tiles[t].val_off;
        }
        put(rec.tiles, tiles);
        put(rec.tile_cols, op.cols);
        put(rec.tile_vals, op.vals);
        put(rec.band_ptr, op.band_ptr);
        put(rec.rem_row_ptr, op.remainder.row_ptr);
        put(rec.rem_col_idx, op.remainder.col_idx);
        put(rec.rem_values, op.remainder.values);
    }
    ASSERT_EQ(art->view().size(), static_cast<std::int64_t>(want.size()));
    EXPECT_EQ(std::memcmp(art->view().data(), want.data(), want.size()), 0);
}

} // namespace
} // namespace mvq::core
