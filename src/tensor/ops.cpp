#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"

namespace mvq {

namespace {

void
checkRank2(const Tensor &t, const char *name)
{
    fatalIf(t.rank() != 2, name, " must be rank-2, got ", t.shape().str());
}

void
checkGemmShapes(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
                const Tensor &c, std::int64_t &m, std::int64_t &n,
                std::int64_t &k)
{
    checkRank2(a, "gemm A");
    checkRank2(b, "gemm B");
    checkRank2(c, "gemm C");
    m = trans_a ? a.dim(1) : a.dim(0);
    k = trans_a ? a.dim(0) : a.dim(1);
    const std::int64_t kb = trans_b ? b.dim(1) : b.dim(0);
    n = trans_b ? b.dim(0) : b.dim(1);
    fatalIf(k != kb, "gemm inner dims mismatch: ", k, " vs ", kb);
    fatalIf(c.dim(0) != m || c.dim(1) != n,
            "gemm output shape mismatch: ", c.shape().str());
}

// Cache-blocking parameters. The active ISA's micro-kernel (see
// common/simd_dispatch.hpp) computes an mr x nr tile of C in registers —
// the tile shape is per-ISA (scalar 4x8, AVX2 6x16, NEON 4x16). Both dense
// drivers pack op(A) (MC x KC) into contiguous, zero-padded mr-row panels.
// The matrix gemm also packs op(B) (KC x NC) into nr-column panels, so its
// macro-kernel is branchless and all four transpose cases pack to one
// format; the dense conv reads B in place (see DirectB). The constants
// live in simd_dispatch.hpp so tests can block with the same values.
constexpr std::int64_t MC = simd::kGemmMC;
constexpr std::int64_t KC = simd::kGemmKC;
constexpr std::int64_t NC = simd::kGemmNC;

// Tasks per available thread that each driver splits its columns into
// (see forEachTask). A sparse task has no set-up of its own, so the
// sparse driver splits finely for load balance. Each dense task packs its
// own row block of A, which a panel split repeats, so the dense drivers
// split only as far as it takes to occupy the pool — run inline, they do
// exactly the unsplit work.
constexpr std::int64_t kSparseTasksPerThread = 8;
constexpr std::int64_t kDenseTasksPerThread = 1;

/**
 * Pack op(A)[i0:i0+mc, k0:k0+kc] into mr-row panels: panel p holds
 * columns-of-mr values ap[kk*mr + r] = op(A)(i0 + p*mr + r, k0 + kk).
 * Rows past mc pad with zeros.
 */
void
packA(const float *pa, std::int64_t lda, bool trans_a, std::int64_t i0,
      std::int64_t k0, std::int64_t mc, std::int64_t kc, std::int64_t mr,
      float *ap)
{
    for (std::int64_t p = 0; p < mc; p += mr) {
        const std::int64_t rows = std::min(mr, mc - p);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
            for (std::int64_t r = 0; r < rows; ++r) {
                const std::int64_t i = i0 + p + r;
                const std::int64_t kidx = k0 + kk;
                ap[kk * mr + r] =
                    trans_a ? pa[kidx * lda + i] : pa[i * lda + kidx];
            }
            for (std::int64_t r = rows; r < mr; ++r)
                ap[kk * mr + r] = 0.0f;
        }
        ap += kc * mr;
    }
}

/**
 * Pack op(B)[k0:k0+kc, j0:j0+nc] into nr-column panels: panel q holds
 * bp[kk*nr + cidx] = op(B)(k0 + kk, j0 + q*nr + cidx), zero-padded past nc.
 */
void
packB(const float *pb, std::int64_t ldb, bool trans_b, std::int64_t k0,
      std::int64_t j0, std::int64_t kc, std::int64_t nc, std::int64_t nr,
      float *bp)
{
    const std::int64_t npanels = (nc + nr - 1) / nr;
    for (std::int64_t q = 0; q < npanels; ++q) {
        float *dst = bp + q * kc * nr;
        const std::int64_t cols = std::min(nr, nc - q * nr);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
            const std::int64_t kidx = k0 + kk;
            for (std::int64_t cidx = 0; cidx < cols; ++cidx) {
                const std::int64_t j = j0 + q * nr + cidx;
                dst[kk * nr + cidx] =
                    trans_b ? pb[j * ldb + kidx] : pb[kidx * ldb + j];
            }
            for (std::int64_t cidx = cols; cidx < nr; ++cidx)
                dst[kk * nr + cidx] = 0.0f;
        }
    }
}

/**
 * The compute partition every driver shares. C[0:m, ...) is cut into
 * npanels column panels (the matrix gemm's packed B panels of one
 * (strip, K block) iteration, the conv drivers' grid tiles) and split
 * into tasks of one MC-row block x one range of consecutive panels, so a
 * layer with a single row block (m <= MC: ResNet's stem and stage1) still
 * spreads over the pool. Ranges are sized to give about tasks_per_thread
 * tasks per thread the call can occupy (parallelWidth()). When pack is
 * set, pack(q0, q1) first fills panels [q0, q1) — one call per range,
 * ranges in parallel (the panels are disjoint). Then task(i0, q0, q1)
 * runs every row-block x range pair in one parallel region (tasks write
 * disjoint C tiles). Neither split reaches the arithmetic: each (row,
 * panel) pair is one kernel call whichever task holds it, so C is
 * bit-identical for any thread count and between pool and nested
 * (inline) execution, and every panel is packed exactly once.
 */
void
forEachTask(
    std::int64_t m, std::int64_t npanels, std::int64_t tasks_per_thread,
    const std::function<void(std::int64_t, std::int64_t)> &pack,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)>
        &task)
{
    const std::int64_t mblocks = (m + MC - 1) / MC;
    const std::int64_t tasks = tasks_per_thread * parallelWidth();
    const std::int64_t want = std::clamp<std::int64_t>(
        (tasks + mblocks - 1) / mblocks, 1, npanels);
    const std::int64_t span = (npanels + want - 1) / want;
    const std::int64_t nranges = (npanels + span - 1) / span;
    if (pack) {
        parallelFor(0, nranges, 1, [&](std::int64_t rb, std::int64_t re) {
            for (std::int64_t r = rb; r < re; ++r)
                pack(r * span, std::min(npanels, (r + 1) * span));
        });
    }
    parallelFor(0, mblocks * nranges, 1,
                [&](std::int64_t tb, std::int64_t te) {
        for (std::int64_t t = tb; t < te; ++t) {
            const std::int64_t r = t % nranges;
            task(t / nranges * MC, r * span,
                 std::min(npanels, (r + 1) * span));
        }
    });
}

void
checkSparseGemmShapes(const SparseRowMatrix &a, const Tensor &b,
                      const Tensor &c, const char *what)
{
    checkRank2(b, "sparse gemm B");
    checkRank2(c, "sparse gemm C");
    fatalIf(b.dim(0) != a.cols, what, " inner dims mismatch: ", a.cols,
            " vs ", b.dim(0));
    fatalIf(c.dim(0) != a.rows || c.dim(1) != b.dim(1),
            what, " output shape mismatch: ", c.shape().str());
}

void
checkSparseOperand(const SparseRowMatrix &a)
{
    panicIf(static_cast<std::int64_t>(a.row_ptr.size()) != a.rows + 1,
            "sparse operand row_ptr size ", a.row_ptr.size(),
            " does not match rows ", a.rows);
    panicIf(a.col_idx.size() != a.values.size(),
            "sparse operand col_idx/values size mismatch");
    panicIf(!a.row_ptr.empty()
                && (a.row_ptr.front() != 0
                    || a.row_ptr.back()
                        != static_cast<std::int64_t>(a.values.size())),
            "sparse operand row_ptr does not cover all entries");
    for (std::int64_t i = 0; i < a.rows; ++i)
        panicIf(a.row_ptr[static_cast<std::size_t>(i)]
                    > a.row_ptr[static_cast<std::size_t>(i + 1)],
                "sparse operand row_ptr not monotone at row ", i);
    // The micro-kernels look each column up in an offset table of cols
    // entries, so the column range is memory safety, not just
    // correctness — a malformed operand must panic here rather than read
    // out of bounds. O(nnz), paid once when the operand is built.
    for (std::int64_t i = 0; i < a.rows; ++i) {
        std::int32_t prev = -1;
        for (std::int64_t e = a.row_ptr[static_cast<std::size_t>(i)];
             e < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            const std::int32_t col =
                a.col_idx[static_cast<std::size_t>(e)];
            panicIf(col <= prev, "sparse operand row ", i,
                    ": col_idx not strictly ascending at entry ", e);
            panicIf(col >= a.cols, "sparse operand row ", i,
                    ": col_idx ", col, " out of range [0, ", a.cols, ")");
            prev = col;
        }
    }
}

/** The arrays of an operand built by SparseRowMatrix::fromVectors. */
struct OwnedArrays
{
    std::vector<std::int64_t> row_ptr;
    std::vector<std::int32_t> col_idx;
    std::vector<float> values;
};

} // namespace

SparseRowMatrix::SparseRowMatrix(std::int64_t n_rows, std::int64_t n_cols,
                                 std::span<const std::int64_t> ptr,
                                 std::span<const std::int32_t> idx,
                                 std::span<const float> vals,
                                 std::shared_ptr<const void> keepalive)
    : rows(n_rows), cols(n_cols), row_ptr(ptr), col_idx(idx), values(vals),
      keepalive_(std::move(keepalive))
{
    checkSparseOperand(*this);
}

SparseRowMatrix
SparseRowMatrix::fromVectors(std::int64_t n_rows, std::int64_t n_cols,
                             std::vector<std::int64_t> ptr,
                             std::vector<std::int32_t> idx,
                             std::vector<float> vals)
{
    const auto owned = std::make_shared<const OwnedArrays>(
        OwnedArrays{std::move(ptr), std::move(idx), std::move(vals)});
    return SparseRowMatrix(n_rows, n_cols, owned->row_ptr, owned->col_idx,
                           owned->values, owned);
}

SparseRowMatrix
SparseRowMatrix::borrow(std::int64_t n_rows, std::int64_t n_cols,
                        std::span<const std::int64_t> ptr,
                        std::span<const std::int32_t> idx,
                        std::span<const float> vals,
                        std::shared_ptr<const void> keepalive)
{
    return SparseRowMatrix(n_rows, n_cols, ptr, idx, vals,
                           std::move(keepalive));
}

void
gemmReferenceRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *pa, std::int64_t lda, bool trans_a,
                 const float *pb, std::int64_t ldb, bool trans_b, float *pc,
                 std::int64_t ldc, bool accumulate)
{
    if (!accumulate) {
        for (std::int64_t i = 0; i < m; ++i)
            std::memset(pc + i * ldc, 0,
                        static_cast<std::size_t>(n) * sizeof(float));
    }

    // i-k-j loop order keeps the inner loop contiguous on B and C for the
    // common non-transposed case.
    if (!trans_a && !trans_b) {
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = pa[i * lda + kk];
                if (av == 0.0f)
                    continue;
                const float *brow = pb + kk * ldb;
                float *crow = pc + i * ldc;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] += av * brow[j];
            }
        }
        return;
    }

    auto a_at = [&](std::int64_t i, std::int64_t kk) {
        return trans_a ? pa[kk * lda + i] : pa[i * lda + kk];
    };
    auto b_at = [&](std::int64_t kk, std::int64_t j) {
        return trans_b ? pb[j * ldb + kk] : pb[kk * ldb + j];
    };
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += a_at(i, kk) * b_at(kk, j);
            pc[i * ldc + j] += acc;
        }
    }
}

void
gemmReference(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
              Tensor &c, bool accumulate)
{
    std::int64_t m, n, k;
    checkGemmShapes(a, trans_a, b, trans_b, c, m, n, k);
    gemmReferenceRaw(m, n, k, a.data(), a.dim(1), trans_a, b.data(),
                     b.dim(1), trans_b, c.data(), n, accumulate);
}

void
gemmRaw(std::int64_t m, std::int64_t n, std::int64_t k, const float *pa,
        std::int64_t lda, bool trans_a, const float *pb, std::int64_t ldb,
        bool trans_b, float *pc, std::int64_t ldc, bool accumulate)
{
    // Very small problems: packing overhead dominates, use the scalar
    // kernel. The threshold is in multiply-adds.
    if (m * n * k <= kGemmScalarFallbackMacs) {
        gemmReferenceRaw(m, n, k, pa, lda, trans_a, pb, ldb, trans_b, pc,
                         ldc, accumulate);
        return;
    }

    // Register-tile shape comes from the active ISA's micro-kernel.
    const simd::Kernels &kn = simd::kernels();
    const std::int64_t mr = kn.mr;
    const std::int64_t nr = kn.nr;

    const std::int64_t kc_max = std::min(KC, k);
    const std::int64_t nc_max = std::min(NC, n);
    std::vector<float> bpack(static_cast<std::size_t>(
        kc_max * ((nc_max + nr - 1) / nr) * nr));
    // A packed panel holds B row kk at kk*nr.
    std::vector<std::int32_t> off(static_cast<std::size_t>(kc_max));
    for (std::int64_t kk = 0; kk < kc_max; ++kk)
        off[static_cast<std::size_t>(kk)] =
            static_cast<std::int32_t>(kk * nr);

    // jc/kc loops are sequential (each C element accumulates its KC blocks
    // in a fixed order); inside, row-block x panel-range tasks run in
    // parallel over disjoint C tiles, each packing its own row block of A,
    // so results are identical for any thread count (within a given ISA —
    // different micro-kernels reorder the lane sums). Overwriting, the
    // first block stores 0.0f + acc: the bits a zeroed C plus that block
    // would hold, -0.0f included.
    for (std::int64_t jc = 0; jc < n; jc += NC) {
        const std::int64_t nc = std::min(NC, n - jc);
        for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
            const std::int64_t kc = std::min(KC, k - k0);
            const bool store = k0 == 0 && !accumulate;
            forEachTask(
                m, (nc + nr - 1) / nr, kDenseTasksPerThread,
                [&](std::int64_t q0, std::int64_t q1) {
                    packB(pb, ldb, trans_b, k0, jc + q0 * nr, kc,
                          std::min(nc, q1 * nr) - q0 * nr, nr,
                          bpack.data() + q0 * kc * nr);
                },
                [&](std::int64_t i0, std::int64_t q0, std::int64_t q1) {
                    const std::int64_t mc = std::min(MC, m - i0);
                    std::vector<float> apack(static_cast<std::size_t>(
                        kc * ((mc + mr - 1) / mr) * mr));
                    packA(pa, lda, trans_a, i0, k0, mc, kc, mr,
                          apack.data());
                    float acc[simd::kMaxGemmMr * simd::kMaxGemmNr];
                    const std::int64_t mpanels = (mc + mr - 1) / mr;
                    for (std::int64_t q = q0; q < q1; ++q) {
                        const float *bp = bpack.data() + q * kc * nr;
                        const std::int64_t cols = std::min(nr, nc - q * nr);
                        for (std::int64_t p = 0; p < mpanels; ++p) {
                            const float *ap = apack.data() + p * kc * mr;
                            kn.gemmMicroKernel(ap, bp, off.data(), kc, acc);
                            const std::int64_t rows =
                                std::min(mr, mc - p * mr);
                            for (std::int64_t r = 0; r < rows; ++r) {
                                float *crow = pc + (i0 + p * mr + r) * ldc
                                    + jc + q * nr;
                                const float *arow = acc + r * nr;
                                for (std::int64_t cidx = 0; cidx < cols;
                                     ++cidx)
                                    crow[cidx] = (store ? 0.0f : crow[cidx])
                                        + arow[cidx];
                            }
                        }
                    }
                });
        }
    }
}

void
gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
     Tensor &c, bool accumulate)
{
    std::int64_t m, n, k;
    checkGemmShapes(a, trans_a, b, trans_b, c, m, n, k);
    gemmRaw(m, n, k, a.data(), a.dim(1), trans_a, b.data(), b.dim(1),
            trans_b, c.data(), n, accumulate);
}

SparseRowMatrix
sparsifyRows(const Tensor &a)
{
    checkRank2(a, "sparsifyRows input");
    const std::int64_t rows = a.dim(0);
    const std::int64_t cols = a.dim(1);
    std::vector<std::int64_t> row_ptr;
    std::vector<std::int32_t> col_idx;
    std::vector<float> values;
    row_ptr.reserve(static_cast<std::size_t>(rows + 1));
    row_ptr.push_back(0);
    const float *pa = a.data();
    for (std::int64_t i = 0; i < rows; ++i) {
        const float *arow = pa + i * cols;
        for (std::int64_t j = 0; j < cols; ++j) {
            if (arow[j] != 0.0f) {
                col_idx.push_back(static_cast<std::int32_t>(j));
                values.push_back(arow[j]);
            }
        }
        row_ptr.push_back(static_cast<std::int64_t>(values.size()));
    }
    return SparseRowMatrix::fromVectors(rows, cols, std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

void
gemmSparseAReference(const SparseRowMatrix &a, const Tensor &b, Tensor &c)
{
    checkSparseGemmShapes(a, b, c, "gemmSparseAReference");
    // Plain compressed-row scan, no blocking: each kept A entry streams
    // one B row into one C row. It sums in double, so at deep reductions
    // (k = 4608 of unit-variance values) the oracle's own rounding stays
    // far below the 1e-4 the fast paths are held to; a float sum there is
    // already ~8e-5 off the exact one.
    const std::int64_t n = b.dim(1);
    std::vector<double> acc(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < a.rows; ++i) {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (std::int64_t e = a.row_ptr[static_cast<std::size_t>(i)];
             e < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            const double av = a.values[static_cast<std::size_t>(e)];
            const float *brow =
                b.data() + a.col_idx[static_cast<std::size_t>(e)] * n;
            for (std::int64_t j = 0; j < n; ++j)
                acc[static_cast<std::size_t>(j)] += av * brow[j];
        }
        std::copy(acc.begin(), acc.end(), c.data() + i * n);
    }
}

Tensor
matmul(const Tensor &a, const Tensor &b, bool trans_a, bool trans_b)
{
    const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
    const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
    Tensor c(Shape({m, n}));
    gemm(a, trans_a, b, trans_b, c);
    return c;
}

namespace {

/** Panic unless the geometry yields a non-empty output feature map. */
void
checkConvOutputDims(const ConvGeom &g, const char *what)
{
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    panicIf(oh <= 0 || ow <= 0, what, ": non-positive output dims ", oh,
            "x", ow, " (kernel ", g.k_h, "x", g.k_w,
            " larger than padded input ", g.in_h, "x", g.in_w, " pad ",
            g.pad, "?)");
}

/**
 * Materialize the virtual im2col matrix row-major into pc (row stride
 * outH*outW). Shared by the Tensor-returning im2col() and the dense
 * conv's small-problem fallback, so that fallback and the unfused path
 * gather padding with the same code.
 */
void
im2colInto(const Im2colB &b, float *pc)
{
    const ConvGeom &g = b.g;
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    const float *pin = b.slab;

    // Each row (c, kh, kw) writes a disjoint slab of cols.
    const std::int64_t nrows = g.in_c * g.k_h * g.k_w;
    const std::int64_t grain =
        std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, oh * ow));
    parallelFor(0, nrows, grain, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t row = rb; row < re; ++row) {
            const std::int64_t c = row / (g.k_h * g.k_w);
            const std::int64_t kh = (row / g.k_w) % g.k_h;
            const std::int64_t kw = row % g.k_w;
            const float *src = pin + c * g.in_h * g.in_w;
            float *dst = pc + row * oh * ow;
            for (std::int64_t y = 0; y < oh; ++y) {
                const std::int64_t ih = y * g.stride - g.pad + kh;
                float *drow = dst + y * ow;
                if (ih < 0 || ih >= g.in_h) {
                    std::memset(drow, 0,
                                static_cast<std::size_t>(ow)
                                    * sizeof(float));
                    continue;
                }
                const float *srow = src + ih * g.in_w;
                for (std::int64_t x = 0; x < ow; ++x) {
                    const std::int64_t iw = x * g.stride - g.pad + kw;
                    drow[x] = (iw >= 0 && iw < g.in_w) ? srow[iw] : 0.0f;
                }
            }
        }
    });
}

/**
 * The B operand of both direct conv drivers: one image's slab of conv
 * groups laid out once as its zero-padded input and read in place
 * through a table of one int32 offset per im2col row of a group.
 *
 * Output (oh, ow) at tap (c, kh, kw) reads padded pixel (oh*s + kh,
 * ow*s + kw): pixel (oh + kh/s, ow + kw/s) of phase plane (c, kh%s,
 * kw%s), the padded rows and columns congruent to (kh, kw) mod s. On the
 * grid j = oh*wq + ow, im2col row col = (c*k_h + kh)*k_w + kw is
 * therefore image[off[col] + j], and tile t's nr grid positions meet
 * every im2col row as one contiguous run at tile(t) + off[col]. Only the
 * phases some tap reads are built: one at stride 1, four for a 3x3/2,
 * one for a 1x1/2. The grid's wq - ow slack columns per row compute
 * lanes no output takes (see runs()). Group g's planes follow group g -
 * 1's, so its im2col row col is image[g*gstride + off[col] + j]: every
 * group shares the one offset table.
 */
struct DirectB
{
    std::int64_t nr = 0;      //!< lanes per tile (the kernel's width)
    std::int64_t ow = 0;      //!< outputs per grid row
    std::int64_t wq = 0;      //!< grid row width (phase-plane width)
    std::int64_t ngrid = 0;   //!< grid positions through the last output
    std::int64_t gstride = 0; //!< floats from one group's planes to the next
    std::unique_ptr<float[]> image;
    std::vector<std::int32_t> off; //!< per im2col row of one group

    std::int64_t
    tiles() const
    {
        return (ngrid + nr - 1) / nr;
    }

    const float *
    tile(std::int64_t t) const
    {
        return image.get() + t * nr;
    }

    /** Lanes [lane, lane + len) of a tile are C columns [dst, dst + len). */
    struct Run
    {
        std::int64_t lane, len, dst;
    };

    /** Tile t's lanes with ow < outW as runs of output columns, one per
     *  grid row the tile touches; returns the count (at most nr). */
    std::int64_t
    runs(std::int64_t t, Run *out) const
    {
        std::int64_t nruns = 0;
        const std::int64_t j1 = std::min(ngrid, (t + 1) * nr);
        for (std::int64_t j = t * nr; j < j1; j += wq - j % wq) {
            const std::int64_t x = j % wq;
            if (x < ow)
                out[nruns++] = {j - t * nr, std::min(ow - x, j1 - j),
                                j / wq * ow + x};
        }
        return nruns;
    }
};

/**
 * Lay out the `groups` * b.g.in_c channels at b.slab for a kernel nr
 * lanes wide. The image ends in nr zero floats, since the last tile
 * reads up to nr - 1 past the last plane. A slab whose planes the
 * group-shifted int32 offsets cannot address panics (naming `what`)
 * before anything is allocated.
 */
DirectB
directB(const Im2colB &b, std::int64_t groups, std::int64_t nr,
        const char *what)
{
    const ConvGeom &g = b.g;
    const std::int64_t s = g.stride;
    const std::int64_t oh = g.outH();
    DirectB db;
    db.nr = nr;
    db.ow = g.outW();
    const std::int64_t py_n = std::min(s, g.k_h);
    const std::int64_t px_n = std::min(s, g.k_w);
    const std::int64_t hq = oh + (g.k_h - 1) / s;
    const std::int64_t wq = db.wq = db.ow + (g.k_w - 1) / s;
    db.ngrid = (oh - 1) * wq + db.ow;
    db.gstride = g.in_c * py_n * px_n * hq * wq;
    const std::int64_t planes = groups * g.in_c * py_n * px_n;
    const std::int64_t image_floats = planes * hq * wq + nr;
    panicIf(image_floats > std::numeric_limits<std::int32_t>::max(), what,
            ": ", planes, " phase planes of ", hq, "x", wq,
            " overflow the int32 input offsets");

    // Uninitialized on purpose: the rows below write every plane float.
    db.image.reset(new float[static_cast<std::size_t>(image_floats)]);
    float *image = db.image.get();
    std::fill(image + planes * hq * wq, image + image_floats, 0.0f);
    auto ceilDiv = [s](std::int64_t v) {
        return (std::max<std::int64_t>(v, 0) + s - 1) / s;
    };
    parallelFor(0, planes * hq, std::max<std::int64_t>(1, 4096 / wq),
                [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t row = rb; row < re; ++row) {
            const std::int64_t p = row / hq;
            const std::int64_t c = p / (py_n * px_n);
            const std::int64_t px = p % px_n;
            const std::int64_t ih = row % hq * s + p / px_n % py_n - g.pad;
            // Columns x whose input column x*s + px - pad lies in the row.
            std::int64_t lo = 0;
            std::int64_t hi = 0;
            if (ih >= 0 && ih < g.in_h) {
                lo = std::min(wq, ceilDiv(g.pad - px));
                hi = std::clamp(ceilDiv(g.in_w + g.pad - px), lo, wq);
            }
            float *dst = image + row * wq;
            std::fill(dst, dst + lo, 0.0f);
            if (hi > lo) {
                const float *src =
                    b.slab + (c * g.in_h + ih) * g.in_w + lo * s + px - g.pad;
                if (s == 1) {
                    std::memcpy(dst + lo, src,
                                static_cast<std::size_t>(hi - lo)
                                    * sizeof(float));
                } else {
                    for (std::int64_t x = lo; x < hi; ++x, src += s)
                        dst[x] = *src;
                }
            }
            std::fill(dst + hi, dst + wq, 0.0f);
        }
    });

    db.off.resize(static_cast<std::size_t>(b.rows()));
    for (std::int64_t col = 0; col < b.rows(); ++col) {
        const std::int64_t kh = col / g.k_w % g.k_h;
        const std::int64_t kw = col % g.k_w;
        const std::int64_t p =
            (col / (g.k_h * g.k_w) * py_n + kh % s) * px_n + kw % s;
        db.off[static_cast<std::size_t>(col)] = static_cast<std::int32_t>(
            p * hq * wq + kh / s * wq + kw / s);
    }
    return db;
}

} // namespace

Tensor
im2col(const Tensor &input, std::int64_t n, const ConvGeom &g,
       std::int64_t c0)
{
    fatalIf(input.rank() != 4, "im2col expects NCHW input");
    fatalIf(c0 < 0 || c0 + g.in_c > input.dim(1)
                || input.dim(2) != g.in_h || input.dim(3) != g.in_w,
            "im2col geometry mismatch with input ", input.shape().str());
    checkConvOutputDims(g, "im2col");

    Tensor cols(Shape({g.in_c * g.k_h * g.k_w, g.outH() * g.outW()}));
    const float *pin = input.data()
        + (n * input.dim(1) + c0) * g.in_h * g.in_w;
    im2colInto(Im2colB{pin, g}, cols.data());
    return cols;
}

void
gemmIm2colRaw(std::int64_t m, const float *pa, std::int64_t lda,
              const Im2colB &b, float *pc, std::int64_t ldc)
{
    checkConvOutputDims(b.g, "gemmIm2colRaw");
    const std::int64_t k = b.rows();
    const std::int64_t n = b.cols();

    // Small problems take the same materialize + scalar-reference route
    // the unfused path does (im2col + gemmRaw), keeping the two
    // bit-identical on both sides of the crossover; it also keeps m = 0
    // (no row block) away from forEachTask.
    if (m * n * k <= kGemmScalarFallbackMacs) {
        std::vector<float> cols(static_cast<std::size_t>(k * n));
        im2colInto(b, cols.data());
        gemmReferenceRaw(m, n, k, pa, lda, false, cols.data(), n, false, pc,
                         ldc);
        return;
    }

    const simd::Kernels &kn = simd::kernels();
    const std::int64_t mr = kn.mr;
    const std::int64_t nr = kn.nr;
    const DirectB db = directB(b, 1, nr, "gemmIm2colRaw");

    // One parallel region of row-block x tile-range tasks. Each task walks
    // the K blocks in order, packing its A block once per block, and runs
    // the kernel on every (tile, A panel) pair, tile-outer so a tile's
    // input runs stay hot across its panels. The first block stores
    // 0.0f + acc, as an overwriting gemmRaw's does (-0.0f included), and
    // later blocks add, so every C element sums its blocks in gemmRaw's
    // order whichever task holds it.
    forEachTask(
        m, db.tiles(), kDenseTasksPerThread, nullptr,
        [&](std::int64_t i0, std::int64_t t0, std::int64_t t1) {
            const std::int64_t mc = std::min(MC, m - i0);
            const std::int64_t mpanels = (mc + mr - 1) / mr;
            std::vector<float> apack(
                static_cast<std::size_t>(std::min(KC, k) * mpanels * mr));
            float acc[simd::kMaxGemmMr * simd::kMaxGemmNr];
            DirectB::Run runs[simd::kMaxGemmNr];
            for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
                const std::int64_t kc = std::min(KC, k - k0);
                packA(pa, lda, false, i0, k0, mc, kc, mr, apack.data());
                for (std::int64_t t = t0; t < t1; ++t) {
                    const std::int64_t nruns = db.runs(t, runs);
                    for (std::int64_t p = 0; p < mpanels; ++p) {
                        kn.gemmMicroKernel(apack.data() + p * kc * mr,
                                           db.tile(t), db.off.data() + k0,
                                           kc, acc);
                        const std::int64_t rows = std::min(mr, mc - p * mr);
                        for (std::int64_t r = 0; r < rows; ++r) {
                            float *crow = pc + (i0 + p * mr + r) * ldc;
                            for (std::int64_t q = 0; q < nruns; ++q) {
                                float *dst = crow + runs[q].dst;
                                const float *src =
                                    acc + r * nr + runs[q].lane;
                                for (std::int64_t c = 0; c < runs[q].len; ++c)
                                    dst[c] =
                                        (k0 == 0 ? 0.0f : dst[c]) + src[c];
                            }
                        }
                    }
                }
            }
        });
}

void
gemmSparseAIm2col(const SparseRowMatrix &a, const Im2colB &b, float *pc,
                  std::int64_t ldc, std::int64_t groups)
{
    checkConvOutputDims(b.g, "gemmSparseAIm2col");
    panicIf(a.cols != b.rows(), "gemmSparseAIm2col inner dims mismatch: ",
            a.cols, " vs ", b.rows());
    panicIf(groups < 1 || a.rows % groups != 0, "gemmSparseAIm2col: ",
            a.rows, " rows do not split into ", groups, " groups");
    const std::int64_t m = a.rows;
    if (m == 0)
        return;
    const simd::Kernels &kn = simd::kernels();
    const std::int64_t nr = kn.sparse_nr;
    const DirectB db = directB(b, groups, nr, "gemmSparseAIm2col");
    const std::int64_t kg = m / groups;

    // Row-block x tile-range tasks, tile-outer within a task so a tile's
    // input runs stay hot across its rows. Each (row, tile) pair is one
    // kernel call over the row's entries in order, so C does not depend
    // on the partition; its output lanes go straight to C, which is
    // overwritten. The rows of group gi read the tile shifted to that
    // group's planes; a task walks its rows one group segment at a time,
    // so the shift costs no division per call.
    const std::int64_t *rp = a.row_ptr.data();
    const float *vals = a.values.data();
    const std::int32_t *idx = a.col_idx.data();
    forEachTask(
        m, db.tiles(), kSparseTasksPerThread, nullptr,
        [&](std::int64_t i0, std::int64_t t0, std::int64_t t1) {
            DirectB::Run runs[simd::kMaxSparseNr];
            float acc[simd::kMaxSparseNr];
            const std::int64_t i1 = std::min(m, i0 + MC);
            const std::int64_t g0 = i0 / kg;
            for (std::int64_t t = t0; t < t1; ++t) {
                const std::int64_t nruns = db.runs(t, runs);
                std::int64_t r = i0;
                for (std::int64_t gi = g0; r < i1; ++gi) {
                    const float *base = db.tile(t) + gi * db.gstride;
                    for (const std::int64_t re = std::min(i1, (gi + 1) * kg);
                         r < re; ++r) {
                        kn.gemmSparseMicroKernel(
                            vals + rp[r], idx + rp[r], rp[r + 1] - rp[r],
                            db.off.data(), base, acc);
                        for (std::int64_t q = 0; q < nruns; ++q)
                            std::memcpy(pc + r * ldc + runs[q].dst,
                                        acc + runs[q].lane,
                                        static_cast<std::size_t>(runs[q].len)
                                            * sizeof(float));
                    }
                }
            }
        });
}

void
gemmSparseARaw(const SparseRowMatrix &a, const float *pb, std::int64_t n,
               float *pc, std::int64_t ldc)
{
    // B is the im2col of itself viewed as an a.cols-channel 1 x n image
    // under a 1x1 kernel, so the one sparse driver serves it unchanged.
    if (n > 0)
        gemmSparseAIm2col(a, Im2colB{pb, ConvGeom{a.cols, 1, n, 1, 1, 1, 0}},
                          pc, ldc, 1);
}

void
gemmSparseA(const SparseRowMatrix &a, const Tensor &b, Tensor &c)
{
    checkSparseGemmShapes(a, b, c, "gemmSparseA");
    gemmSparseARaw(a, b.data(), b.dim(1), c.data(), b.dim(1));
}

void
col2im(const Tensor &cols, Tensor &grad, std::int64_t n, const ConvGeom &g,
       std::int64_t c0)
{
    fatalIf(grad.rank() != 4, "col2im expects NCHW grad");
    fatalIf(c0 < 0 || c0 + g.in_c > grad.dim(1) || grad.dim(2) != g.in_h
                || grad.dim(3) != g.in_w,
            "col2im geometry mismatch with grad ", grad.shape().str());
    const std::int64_t oh = g.outH();
    const std::int64_t ow = g.outW();
    panicIf(oh <= 0 || ow <= 0, "col2im: non-positive output dims ", oh,
            "x", ow, " (kernel ", g.k_h, "x", g.k_w,
            " larger than padded input ", g.in_h, "x", g.in_w, " pad ",
            g.pad, "?)");
    fatalIf(cols.dim(0) != g.in_c * g.k_h * g.k_w || cols.dim(1) != oh * ow,
            "col2im column shape mismatch: ", cols.shape().str());

    const float *pc = cols.data();
    float *pg = grad.data() + (n * grad.dim(1) + c0) * g.in_h * g.in_w;

    // Rows sharing a channel scatter into the same image plane, so the
    // parallel split is over channels (disjoint planes); the kh/kw rows of
    // a channel run sequentially within a chunk.
    parallelFor(0, g.in_c, 1, [&](std::int64_t cb, std::int64_t ce) {
        for (std::int64_t c = cb; c < ce; ++c) {
            float *plane = pg + c * g.in_h * g.in_w;
            for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
                for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
                    const std::int64_t row =
                        (c * g.k_h + kh) * g.k_w + kw;
                    const float *src = pc + row * oh * ow;
                    for (std::int64_t y = 0; y < oh; ++y) {
                        const std::int64_t ih = y * g.stride - g.pad + kh;
                        if (ih < 0 || ih >= g.in_h)
                            continue;
                        float *prow = plane + ih * g.in_w;
                        const float *srow = src + y * ow;
                        for (std::int64_t x = 0; x < ow; ++x) {
                            const std::int64_t iw =
                                x * g.stride - g.pad + kw;
                            if (iw >= 0 && iw < g.in_w)
                                prow[iw] += srow[x];
                        }
                    }
                }
            }
        }
    });
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "add shape mismatch");
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

void
addInPlace(Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "addInPlace shape mismatch");
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a[i] += b[i];
}

void
axpy(Tensor &a, float alpha, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "axpy shape mismatch");
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a[i] += alpha * b[i];
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "mul shape mismatch");
    Tensor out(a.shape());
    for (std::int64_t i = 0; i < a.numel(); ++i)
        out[i] = a[i] * b[i];
    return out;
}

void
scaleInPlace(Tensor &a, float s)
{
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a[i] *= s;
}

double
sse(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "sse shape mismatch");
    double s = 0.0;
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
        s += d * d;
    }
    return s;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    fatalIf(a.shape() != b.shape(), "maxAbsDiff shape mismatch");
    float m = 0.0f;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace mvq
