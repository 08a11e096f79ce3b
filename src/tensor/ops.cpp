#include "tensor/ops.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"

namespace mvq {

// ops.hpp avoids including the dispatch layer, so the tile row bound is
// duplicated there; keep the two constants in lockstep.
static_assert(kSparseTileMaxRows == simd::kSparseMultiRowMr,
              "grouped-operand tile rows must match the multi-row kernel");

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
// the tile shape is per-ISA (scalar 4x8, AVX2 6x16, NEON 4x16); panels of
// op(A) (MC x KC) and op(B) (KC x NC) are packed into contiguous,
// zero-padded buffers so the macro-kernel is branchless and
// layout-independent (all four transpose cases pack to one format). The
// constants live in simd_dispatch.hpp so B-panel producers and tests can
// block with the same values.
constexpr std::int64_t MC = simd::kGemmMC;
constexpr std::int64_t KC = simd::kGemmKC;
constexpr std::int64_t NC = simd::kGemmNC;

// K-block for the grouped (multi-row) sparse driver. Dense-style KC keeps
// a B panel L1-resident because every A row re-reads it; bucket tiles do
// NOT have that reuse — within a band each packed B row is read at most
// once (the kept-column sets of a block's buckets partition its columns),
// so a small K block buys nothing, while it shreds a bucket's shared
// column list (~50 columns spread over the whole K extent) into slivers
// whose per-(panel, tile) accumulator zero-fill + alpha-scatter dwarf the
// kernel work. A K block covering the whole reduction amortizes that
// fixed cost over the full shared-column list; the cap only bounds the
// packed-panel buffer (4096 * NR floats = 256 KiB per panel) for
// pathologically deep reductions.
constexpr std::int64_t kGroupedKC = 4096;

// N-strip budget for the grouped driver, in packed floats (~1.5 MiB).
// The reuse the tile phase lives on is ACROSS bands: every band re-reads
// the strip's packed panels once per K block, so the whole strip must
// stay L2-resident or the B rows stream from L3 on every band. With the
// K block covering the reduction whole, the strip width is what bounds
// the buffer: nc per jc strip is chosen as budget / kc (floored to a
// panel multiple), e.g. 160 columns at k = 2304.
constexpr std::int64_t kGroupedNcBudget = 384 * 1024;

/**
 * B-panel producer the blocked drivers call once per (jc, k0) block:
 * fill bp with the packed nr-column panels of op(B)[k0:k0+kc, j0:j0+nc].
 * Bound to packB for a dense operand and to packBFromIm2col for the
 * fused conv path; invoked at block granularity, so the std::function
 * indirection costs nothing measurable.
 */
using PackBFn = std::function<void(std::int64_t k0, std::int64_t j0,
                                   std::int64_t kc, std::int64_t nc,
                                   std::int64_t nr, float *bp)>;

/**
 * Pack op(A)[i0:i0+mc, k0:k0+kc] (alpha pre-applied) into mr-row panels:
 * panel p holds columns-of-mr values ap[kk*mr + r] = alpha * op(A)(i0 +
 * p*mr + r, k0 + kk). Rows past mc pad with zeros.
 */
void
packA(const float *pa, std::int64_t lda, bool trans_a, std::int64_t i0,
      std::int64_t k0, std::int64_t mc, std::int64_t kc, float alpha,
      std::int64_t mr, float *ap)
{
    for (std::int64_t p = 0; p < mc; p += mr) {
        const std::int64_t rows = std::min(mr, mc - p);
        for (std::int64_t kk = 0; kk < kc; ++kk) {
            for (std::int64_t r = 0; r < rows; ++r) {
                const std::int64_t i = i0 + p + r;
                const std::int64_t kidx = k0 + kk;
                ap[kk * mr + r] = alpha
                    * (trans_a ? pa[kidx * lda + i] : pa[i * lda + kidx]);
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
    // Panels write disjoint bpack regions, so packing runs in parallel
    // (the pool is otherwise idle here) without affecting determinism.
    const std::int64_t npanels = (nc + nr - 1) / nr;
    parallelFor(0, npanels, 4, [&](std::int64_t qb, std::int64_t qe) {
        for (std::int64_t q = qb; q < qe; ++q) {
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
    });
}

/** Scale C (m x n, row stride ldc) by beta, in parallel over rows. */
void
scaleCRows(float *pc, std::int64_t m, std::int64_t n, std::int64_t ldc,
           float beta)
{
    if (beta == 0.0f) {
        parallelFor(0, m, 16, [&](std::int64_t rb, std::int64_t re) {
            for (std::int64_t i = rb; i < re; ++i)
                std::memset(pc + i * ldc, 0,
                            static_cast<std::size_t>(n) * sizeof(float));
        });
    } else if (beta != 1.0f) {
        parallelFor(0, m, 16, [&](std::int64_t rb, std::int64_t re) {
            for (std::int64_t i = rb; i < re; ++i) {
                float *crow = pc + i * ldc;
                for (std::int64_t j = 0; j < n; ++j)
                    crow[j] *= beta;
            }
        });
    }
}

/**
 * Plain compressed-row scan (no packing, no blocking): each kept A entry
 * streams one B row into one C row. Serves as the oracle body and the
 * small-problem path; assumes beta has already been applied to C.
 */
void
sparseRowScanRaw(const SparseRowMatrix &a, const float *pb, std::int64_t ldb,
                 std::int64_t n, float alpha, float *pc, std::int64_t ldc)
{
    for (std::int64_t i = 0; i < a.rows; ++i) {
        float *crow = pc + i * ldc;
        for (std::int64_t e = a.row_ptr[static_cast<std::size_t>(i)];
             e < a.row_ptr[static_cast<std::size_t>(i + 1)]; ++e) {
            const float av =
                alpha * a.values[static_cast<std::size_t>(e)];
            const float *brow =
                pb + a.col_idx[static_cast<std::size_t>(e)] * ldb;
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] += av * brow[j];
        }
    }
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
    // The blocked driver binary-searches each row's index range and the
    // micro-kernels index packed B rows with kidx - k0, so the column
    // invariants (ascending within a row, within [0, cols)) are memory
    // safety, not just correctness — a malformed operand must panic here
    // rather than read out of bounds. O(nnz); operands packed through
    // validateSparseOperand pay this once at pack time, hand-built ones
    // per gemm call.
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

} // namespace

void
validateSparseOperand(SparseRowMatrix &a)
{
    checkSparseOperand(a);
    a.validated = true;
}

void
gemmReferenceRaw(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float *pa, std::int64_t lda, bool trans_a,
                 const float *pb, std::int64_t ldb, bool trans_b, float beta,
                 float *pc, std::int64_t ldc)
{
    if (beta == 0.0f) {
        for (std::int64_t i = 0; i < m; ++i)
            std::memset(pc + i * ldc, 0,
                        static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
        for (std::int64_t i = 0; i < m; ++i) {
            float *crow = pc + i * ldc;
            for (std::int64_t j = 0; j < n; ++j)
                crow[j] *= beta;
        }
    }

    // i-k-j loop order keeps the inner loop contiguous on B and C for the
    // common non-transposed case.
    if (!trans_a && !trans_b) {
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t kk = 0; kk < k; ++kk) {
                const float av = alpha * pa[i * lda + kk];
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
            pc[i * ldc + j] += alpha * acc;
        }
    }
}

void
gemmReference(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
              Tensor &c, float alpha, float beta)
{
    std::int64_t m, n, k;
    checkGemmShapes(a, trans_a, b, trans_b, c, m, n, k);
    gemmReferenceRaw(m, n, k, alpha, a.data(), a.dim(1), trans_a, b.data(),
                     b.dim(1), trans_b, beta, c.data(), n);
}

/**
 * The blocked dense macro-driver shared by gemmRaw (dense B, packB) and
 * gemmIm2colRaw (virtual B, packBFromIm2col). beta has already been
 * applied to C by the caller.
 */
void
gemmBlockedDriver(std::int64_t m, std::int64_t n, std::int64_t k,
                  float alpha, const float *pa, std::int64_t lda,
                  bool trans_a, const PackBFn &pack_b, float *pc,
                  std::int64_t ldc)
{
    // Register-tile shape comes from the active ISA's micro-kernel.
    const simd::Kernels &kn = simd::kernels();
    const std::int64_t mr = kn.mr;
    const std::int64_t nr = kn.nr;

    const std::int64_t kc_max = std::min(KC, k);
    const std::int64_t nc_max = std::min(NC, n);
    std::vector<float> bpack(static_cast<std::size_t>(
        kc_max * ((nc_max + nr - 1) / nr) * nr));

    // jc/kc loops are sequential (each C element accumulates its KC blocks
    // in a fixed order); the MC row blocks inside run in parallel and touch
    // disjoint rows of C, so results are identical for any thread count
    // (within a given ISA — different micro-kernels reorder the lane sums).
    for (std::int64_t jc = 0; jc < n; jc += NC) {
        const std::int64_t nc = std::min(NC, n - jc);
        const std::int64_t npanels = (nc + nr - 1) / nr;
        for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
            const std::int64_t kc = std::min(KC, k - k0);
            pack_b(k0, jc, kc, nc, nr, bpack.data());

            parallelFor(0, (m + MC - 1) / MC, 1,
                        [&](std::int64_t blk_b, std::int64_t blk_e) {
                std::vector<float> apack(static_cast<std::size_t>(
                    kc * ((MC + mr - 1) / mr) * mr));
                float acc[simd::kMaxGemmMr * simd::kMaxGemmNr];
                for (std::int64_t blk = blk_b; blk < blk_e; ++blk) {
                    const std::int64_t i0 = blk * MC;
                    const std::int64_t mc = std::min(MC, m - i0);
                    packA(pa, lda, trans_a, i0, k0, mc, kc, alpha, mr,
                          apack.data());
                    const std::int64_t mpanels = (mc + mr - 1) / mr;
                    for (std::int64_t q = 0; q < npanels; ++q) {
                        const float *bp = bpack.data() + q * kc * nr;
                        const std::int64_t cols =
                            std::min(nr, nc - q * nr);
                        for (std::int64_t p = 0; p < mpanels; ++p) {
                            const float *ap = apack.data() + p * kc * mr;
                            std::fill(acc, acc + mr * nr, 0.0f);
                            kn.gemmMicroKernel(ap, bp, kc, acc);
                            const std::int64_t rows =
                                std::min(mr, mc - p * mr);
                            for (std::int64_t r = 0; r < rows; ++r) {
                                float *crow = pc
                                    + (i0 + p * mr + r) * ldc + jc
                                    + q * nr;
                                const float *arow = acc + r * nr;
                                for (std::int64_t cidx = 0; cidx < cols;
                                     ++cidx)
                                    crow[cidx] += arow[cidx];
                            }
                        }
                    }
                }
            });
        }
    }
}

void
gemmRaw(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
        const float *pa, std::int64_t lda, bool trans_a, const float *pb,
        std::int64_t ldb, bool trans_b, float beta, float *pc,
        std::int64_t ldc)
{
    // Very small problems: packing overhead dominates, use the scalar
    // kernel. The threshold is in multiply-adds.
    if (m * n * k <= kGemmScalarFallbackMacs) {
        gemmReferenceRaw(m, n, k, alpha, pa, lda, trans_a, pb, ldb, trans_b,
                         beta, pc, ldc);
        return;
    }

    scaleCRows(pc, m, n, ldc, beta);
    gemmBlockedDriver(m, n, k, alpha, pa, lda, trans_a,
                      [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
                          std::int64_t nc, std::int64_t nr, float *bp) {
                          packB(pb, ldb, trans_b, k0, j0, kc, nc, nr, bp);
                      },
                      pc, ldc);
}

void
gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
     Tensor &c, float alpha, float beta)
{
    std::int64_t m, n, k;
    checkGemmShapes(a, trans_a, b, trans_b, c, m, n, k);
    gemmRaw(m, n, k, alpha, a.data(), a.dim(1), trans_a, b.data(), b.dim(1),
            trans_b, beta, c.data(), n);
}

SparseRowMatrix
sparsifyRows(const Tensor &a)
{
    checkRank2(a, "sparsifyRows input");
    SparseRowMatrix sp;
    sp.rows = a.dim(0);
    sp.cols = a.dim(1);
    sp.row_ptr.reserve(static_cast<std::size_t>(sp.rows + 1));
    sp.row_ptr.push_back(0);
    const float *pa = a.data();
    for (std::int64_t i = 0; i < sp.rows; ++i) {
        const float *arow = pa + i * sp.cols;
        for (std::int64_t j = 0; j < sp.cols; ++j) {
            if (arow[j] != 0.0f) {
                sp.col_idx.push_back(static_cast<std::int32_t>(j));
                sp.values.push_back(arow[j]);
            }
        }
        sp.row_ptr.push_back(static_cast<std::int64_t>(sp.values.size()));
    }
    validateSparseOperand(sp);
    return sp;
}

GroupedSparseMatrix
groupSparseRows(SparseRowMatrix rows, std::int64_t m_block,
                std::int64_t min_cols)
{
    panicIf(m_block < 2 || m_block > 32,
            "groupSparseRows m_block must be in [2, 32], got ", m_block);
    panicIf(min_cols < 1, "groupSparseRows min_cols must be positive, got ",
            min_cols);
    if (!rows.validated)
        validateSparseOperand(rows);

    GroupedSparseMatrix out;
    out.rows = std::move(rows);
    const SparseRowMatrix &src = out.rows;
    const std::int64_t *row_ptr = src.row_ptr.data();
    const std::int32_t *col_idx = src.col_idx.data();
    const float *values = src.values.data();
    const std::size_t ncols = static_cast<std::size_t>(src.cols);

    // The remainder is the CSR minus the tiled entries, so it streams out
    // in CSR order. Reserved at the bound (every entry) so growing it
    // leaves no freed copies behind: on the largest ResNet-18 layer those
    // doubled the peak heap of a pack.
    SparseRowMatrix &rem = out.remainder;
    rem.rows = src.rows;
    rem.cols = src.cols;
    rem.row_ptr.resize(static_cast<std::size_t>(src.rows) + 1);
    rem.row_ptr[0] = 0;
    rem.col_idx.reserve(static_cast<std::size_t>(src.nnz()));
    rem.values.reserve(static_cast<std::size_t>(src.nnz()));

    // Per-column scratch, reused across blocks. A column's key is the
    // bitmask of the block rows that keep it; `touched` marks the columns
    // with a key so they can be visited in ascending order.
    std::vector<std::uint32_t> key(ncols, 0);
    std::vector<std::uint64_t> touched((ncols + 63) / 64, 0);
    std::vector<std::int32_t> col_bucket(ncols); // tiled bucket, or -1
    std::vector<std::int32_t> col_pos(ncols);    // index in its bucket

    // Key -> bucket, open addressing; a slot belongs to the current block
    // only when it carries the block's stamp, so it never needs clearing.
    struct Slot
    {
        std::uint32_t key = 0;
        std::uint32_t stamp = 0;
        std::int32_t bucket = -1;
    };
    int slot_bits = 4;
    while ((std::size_t{1} << slot_bits) < 2 * ncols)
        ++slot_bits;
    std::vector<Slot> slots(std::size_t{1} << slot_bits);
    const std::size_t slot_mask = slots.size() - 1;

    struct Bucket
    {
        std::uint32_t key;
        std::int64_t ncols = 0;
        std::int64_t tiled_rows = 0; // 0: the bucket stays in the remainder
        std::int64_t col_off = 0;
        std::int64_t val_off = 0;
    };
    std::vector<Bucket> buckets;
    std::vector<std::int32_t> multi_cols; // columns kept by >= 2 rows

    const std::int64_t nblocks = (src.rows + m_block - 1) / m_block;
    for (std::int64_t b = 0; b < nblocks; ++b) {
        const std::int64_t r0 = b * m_block;
        const std::int64_t r1 = std::min(src.rows, r0 + m_block);
        const std::uint32_t stamp = static_cast<std::uint32_t>(b + 1);

        for (std::int64_t r = r0; r < r1; ++r) {
            const std::uint32_t bit = 1u << (r - r0);
            for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
                const auto c = static_cast<std::size_t>(col_idx[e]);
                key[c] |= bit;
                touched[c / 64] |= std::uint64_t{1} << (c % 64);
            }
        }

        // Columns in ascending order: a key seen for the first time opens
        // a bucket, so buckets come out in ascending first-column order.
        buckets.clear();
        multi_cols.clear();
        for (std::size_t w = 0; w < touched.size(); ++w) {
            for (std::uint64_t bits = touched[w]; bits != 0;
                 bits &= bits - 1) {
                const std::size_t c =
                    w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                const std::uint32_t k = key[c];
                key[c] = 0;
                col_bucket[c] = -1;
                if (std::popcount(k) < 2)
                    continue; // kept by one row: nothing to share
                std::size_t h = static_cast<std::size_t>(
                    (k * 0x9E3779B97F4A7C15ull) >> (64 - slot_bits));
                while (slots[h].stamp == stamp && slots[h].key != k)
                    h = (h + 1) & slot_mask;
                if (slots[h].stamp != stamp) {
                    slots[h] = {k, stamp,
                                static_cast<std::int32_t>(buckets.size())};
                    buckets.push_back({k});
                }
                col_bucket[c] = slots[h].bucket;
                col_pos[c] = static_cast<std::int32_t>(
                    buckets[static_cast<std::size_t>(slots[h].bucket)]
                        .ncols++);
                multi_cols.push_back(static_cast<std::int32_t>(c));
            }
            touched[w] = 0;
        }

        // Lay out the buckets worth tiling: each stores its ascending
        // column list once, and its kept rows in chunks of up to
        // kSparseTileMaxRows, every chunk a row-major [nrows x ncols]
        // tile. A last chunk of one row gains nothing from the tile
        // kernel and stays in the remainder, as do thin buckets.
        const std::int64_t band_start =
            static_cast<std::int64_t>(out.tiles.size());
        for (Bucket &bk : buckets) {
            if (bk.ncols < min_cols)
                continue;
            const std::int64_t krows = std::popcount(bk.key);
            bk.tiled_rows =
                krows - (krows % kSparseTileMaxRows == 1 ? 1 : 0);
            bk.col_off = static_cast<std::int64_t>(out.cols.size());
            bk.val_off = static_cast<std::int64_t>(out.vals.size());
            out.cols.resize(out.cols.size()
                            + static_cast<std::size_t>(bk.ncols));
            out.vals.resize(out.vals.size()
                            + static_cast<std::size_t>(bk.tiled_rows
                                                       * bk.ncols));
            std::uint32_t bits = bk.key;
            for (std::int64_t t0 = 0; t0 < bk.tiled_rows;
                 t0 += kSparseTileMaxRows) {
                GroupedSparseMatrix::Tile tl;
                tl.nrows = static_cast<std::int32_t>(std::min(
                    kSparseTileMaxRows, bk.tiled_rows - t0));
                for (std::int32_t r = 0; r < tl.nrows; ++r, bits &= bits - 1)
                    tl.row[r] = static_cast<std::int32_t>(r0)
                        + std::countr_zero(bits);
                tl.col_off = bk.col_off;
                tl.ncols = bk.ncols;
                tl.val_off = bk.val_off + t0 * bk.ncols;
                out.tiles.push_back(tl);
            }
        }
        if (static_cast<std::int64_t>(out.tiles.size()) > band_start)
            out.band_ptr.push_back(
                static_cast<std::int64_t>(out.tiles.size()));

        for (const std::int32_t c : multi_cols) {
            const auto cs = static_cast<std::size_t>(c);
            const Bucket &bk =
                buckets[static_cast<std::size_t>(col_bucket[cs])];
            if (bk.tiled_rows == 0)
                col_bucket[cs] = -1;
            else
                out.cols[static_cast<std::size_t>(bk.col_off + col_pos[cs])] =
                    c;
        }

        // One pass over the block's entries: a tiled entry lands in its
        // tile slot (row rank within the bucket, column position), every
        // other entry appends to the remainder.
        float *tile_vals = out.vals.data();
        for (std::int64_t r = r0; r < r1; ++r) {
            const std::uint32_t below = (1u << (r - r0)) - 1;
            for (std::int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
                const std::int32_t c = col_idx[e];
                const std::int32_t bi = col_bucket[static_cast<std::size_t>(c)];
                if (bi >= 0) {
                    const Bucket &bk = buckets[static_cast<std::size_t>(bi)];
                    const std::int64_t rank = std::popcount(bk.key & below);
                    if (rank < bk.tiled_rows) {
                        tile_vals[bk.val_off + rank * bk.ncols
                                  + col_pos[static_cast<std::size_t>(c)]] =
                            values[e];
                        continue;
                    }
                }
                rem.col_idx.push_back(c);
                rem.values.push_back(values[e]);
            }
            rem.row_ptr[static_cast<std::size_t>(r + 1)] =
                static_cast<std::int64_t>(rem.values.size());
        }
    }
    rem.validated = true;

    panicIf(out.tileNnz() + rem.nnz() != src.nnz(),
            "groupSparseRows accounting mismatch: ", out.tileNnz(), " + ",
            rem.nnz(), " != ", src.nnz());
    out.validated = true;
    return out;
}

/**
 * One (jc, k0) block of the single-row sparse pass: every row of `a`
 * slices its entry range against [k0, k0 + kc) and streams the packed
 * panels through the per-ISA single-row kernel. MC row blocks run in
 * parallel over disjoint C rows. Shared by the single-row driver (whole
 * operand) and the grouped driver (remainder entries), so the fallback
 * path is literally the same code.
 */
void
sparseRowsKcPass(const SparseRowMatrix &a, std::int64_t k0, std::int64_t kc,
                 std::int64_t jc, std::int64_t nc, std::int64_t npanels,
                 float alpha, const float *bpack, float *pc,
                 std::int64_t ldc, const simd::Kernels &kn)
{
    const std::int64_t m = a.rows;
    const std::int64_t nr = kn.nr;
    parallelFor(0, (m + MC - 1) / MC, 1,
                [&](std::int64_t blk_b, std::int64_t blk_e) {
        float acc[simd::kMaxGemmNr];
        std::int64_t ent0[MC];
        std::int64_t entn[MC];
        for (std::int64_t blk = blk_b; blk < blk_e; ++blk) {
            const std::int64_t i0 = blk * MC;
            const std::int64_t mc = std::min(MC, m - i0);
            const std::int32_t *idx = a.col_idx.data();
            for (std::int64_t r = 0; r < mc; ++r) {
                const std::size_t row =
                    static_cast<std::size_t>(i0 + r);
                const std::int32_t *lo = std::lower_bound(
                    idx + a.row_ptr[row], idx + a.row_ptr[row + 1],
                    static_cast<std::int32_t>(k0));
                const std::int32_t *hi = std::lower_bound(
                    lo, idx + a.row_ptr[row + 1],
                    static_cast<std::int32_t>(k0 + kc));
                ent0[r] = lo - idx;
                entn[r] = hi - lo;
            }
            // Panel-outer, row-inner: the kc x nr packed panel
            // stays hot across the whole row block.
            for (std::int64_t q = 0; q < npanels; ++q) {
                const float *bp = bpack + q * kc * nr;
                const std::int64_t cols =
                    std::min(nr, nc - q * nr);
                for (std::int64_t r = 0; r < mc; ++r) {
                    if (entn[r] == 0)
                        continue;
                    std::fill(acc, acc + nr, 0.0f);
                    kn.gemmSparseMicroKernel(
                        a.values.data() + ent0[r], idx + ent0[r],
                        entn[r], k0, bp, nr, acc);
                    float *crow =
                        pc + (i0 + r) * ldc + jc + q * nr;
                    // x * 1.0f == x bitwise, so the branch is a pure
                    // fast path (drops a multiply per element in the
                    // overwhelmingly common alpha == 1 case).
                    if (alpha == 1.0f) {
                        for (std::int64_t cidx = 0; cidx < cols;
                             ++cidx)
                            crow[cidx] += acc[cidx];
                    } else {
                        for (std::int64_t cidx = 0; cidx < cols;
                             ++cidx)
                            crow[cidx] += alpha * acc[cidx];
                    }
                }
            }
        }
    });
}

/**
 * The blocked sparse-A macro-driver shared by gemmSparseARaw (dense B,
 * packB) and gemmSparseAIm2col (virtual B, packBFromIm2col). beta has
 * already been applied to C and the operand validated by the caller.
 */
void
gemmSparseBlockedDriver(const SparseRowMatrix &a, std::int64_t n,
                        float alpha, const PackBFn &pack_b, float *pc,
                        std::int64_t ldc)
{
    const std::int64_t k = a.cols;

    const simd::Kernels &kn = simd::kernels();
    const std::int64_t nr = kn.nr;

    const std::int64_t kc_max = std::min(KC, k);
    const std::int64_t nc_max = std::min(NC, n);
    std::vector<float> bpack(static_cast<std::size_t>(
        kc_max * ((nc_max + nr - 1) / nr) * nr));

    // Same loop nest as the dense driver: jc/kc sequential so every C
    // element accumulates its KC blocks in a fixed order, MC row blocks in
    // parallel over disjoint C rows — bit-identical for any thread count
    // within an ISA. The A side needs no packing at all: the compressed
    // rows *are* the packed format, built once from the mask codes; each
    // row block only slices its entry range per KC block (the indices are
    // ascending, so two binary searches per row per block).
    for (std::int64_t jc = 0; jc < n; jc += NC) {
        const std::int64_t nc = std::min(NC, n - jc);
        const std::int64_t npanels = (nc + nr - 1) / nr;
        for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
            const std::int64_t kc = std::min(KC, k - k0);
            pack_b(k0, jc, kc, nc, nr, bpack.data());
            sparseRowsKcPass(a, k0, kc, jc, nc, npanels, alpha,
                             bpack.data(), pc, ldc, kn);
        }
    }
}

/**
 * Structural check of a grouped operand's tile/band layer (the CSR
 * members are checked by checkSparseOperand). Like the CSR invariants,
 * these are memory safety: the grouped driver binary-searches each tile's
 * shared column list and indexes C rows and the vals/cols pools straight
 * from the tile fields. Builders validate once at pack time; hand-built
 * operands pay per call.
 */
void
checkGroupedOperand(const GroupedSparseMatrix &a)
{
    const std::int64_t ncols_pool =
        static_cast<std::int64_t>(a.cols.size());
    const std::int64_t nvals_pool =
        static_cast<std::int64_t>(a.vals.size());
    panicIf(a.remainder.rows != a.rows.rows
                || a.remainder.cols != a.rows.cols,
            "grouped operand remainder shape mismatch");
    panicIf(a.band_ptr.empty() || a.band_ptr.front() != 0
                || a.band_ptr.back()
                    != static_cast<std::int64_t>(a.tiles.size()),
            "grouped operand band_ptr does not cover tiles");
    for (std::size_t b = 1; b < a.band_ptr.size(); ++b)
        panicIf(a.band_ptr[b - 1] > a.band_ptr[b],
                "grouped operand band_ptr not monotone");
    std::int64_t covered = 0;
    for (const GroupedSparseMatrix::Tile &t : a.tiles) {
        panicIf(t.nrows < 1 || t.nrows > kSparseTileMaxRows,
                "grouped operand tile row count ", t.nrows,
                " out of range");
        for (std::int32_t r = 0; r < t.nrows; ++r) {
            panicIf(t.row[r] < 0 || t.row[r] >= a.rows.rows,
                    "grouped operand tile row ", t.row[r],
                    " out of range");
            panicIf(r > 0 && t.row[r] <= t.row[r - 1],
                    "grouped operand tile rows not ascending");
        }
        panicIf(t.ncols <= 0 || t.col_off < 0
                    || t.col_off + t.ncols > ncols_pool,
                "grouped operand tile column range out of bounds");
        panicIf(t.val_off < 0
                    || t.val_off + t.nrows * t.ncols > nvals_pool,
                "grouped operand tile value range out of bounds");
        std::int32_t prev = -1;
        for (std::int64_t q = 0; q < t.ncols; ++q) {
            const std::int32_t col =
                a.cols[static_cast<std::size_t>(t.col_off + q)];
            panicIf(col <= prev,
                    "grouped operand tile columns not strictly ascending");
            panicIf(col >= a.rows.cols,
                    "grouped operand tile column ", col, " out of range");
            prev = col;
        }
        covered += static_cast<std::int64_t>(t.nrows) * t.ncols;
    }
    panicIf(covered + a.remainder.nnz() != a.rows.nnz(),
            "grouped operand tiles + remainder do not partition nnz: ",
            covered, " + ", a.remainder.nnz(), " != ", a.rows.nnz());
}

/**
 * The blocked multi-row macro-driver behind the GroupedSparseMatrix gemm
 * entry points. Same jc/kc loop nest and packed-B layout as the
 * single-row driver, but K-blocked by kGroupedKC (see the constant for
 * why tile phases want deep K blocks); within a (jc, k0) block the bucket
 * tiles run first — panel-outer, bands in parallel inside each panel
 * (bands touch disjoint C rows; a band's tiles run sequentially) — then
 * the remainder entries run through the unchanged single-row pass. Tile
 * phase then remainder phase is a fixed order per C element, so the
 * thread-count determinism contract carries over. beta has already been
 * applied to C and the operand validated by the caller.
 */
void
gemmSparseGroupedBlockedDriver(const GroupedSparseMatrix &a, std::int64_t n,
                               float alpha, const PackBFn &pack_b, float *pc,
                               std::int64_t ldc)
{
    const std::int64_t k = a.rows.cols;

    const simd::Kernels &kn = simd::kernels();
    const std::int64_t nr = kn.nr;

    const std::int64_t kc_max = std::min(kGroupedKC, k);
    const std::int64_t nc_blk = std::min<std::int64_t>(
        NC,
        std::max<std::int64_t>(nr, kGroupedNcBudget / kc_max / nr * nr));
    // Uninitialized on purpose: pack_b overwrites every panel byte the
    // drivers read, and the deep grouped K block makes this buffer large
    // enough (a megabyte-plus) that a vector's zero-fill shows up in
    // profiles.
    const std::int64_t nc_max = std::min(nc_blk, n);
    std::unique_ptr<float[]> bpack(new float[static_cast<std::size_t>(
        kc_max * ((nc_max + nr - 1) / nr) * nr)]);

    // Per-tile slice of the shared column list against the current K
    // block, computed once per k0 (two binary searches per tile, exactly
    // like the per-row slicing of the single-row driver). With
    // kGroupedKC covering typical conv reductions whole, the common case
    // is one K block whose slice is the entire shared column list.
    const std::int64_t ntiles = static_cast<std::int64_t>(a.tiles.size());
    const std::int64_t nbands =
        static_cast<std::int64_t>(a.band_ptr.size()) - 1;
    std::vector<std::int64_t> tlo(static_cast<std::size_t>(ntiles));
    std::vector<std::int64_t> tcnt(static_cast<std::size_t>(ntiles));
    std::vector<std::int64_t> act_tiles;
    std::vector<std::int64_t> act_ptr;
    act_tiles.reserve(static_cast<std::size_t>(ntiles));
    act_ptr.reserve(static_cast<std::size_t>(nbands) + 1);

    for (std::int64_t jc = 0; jc < n; jc += nc_blk) {
        const std::int64_t nc = std::min(nc_blk, n - jc);
        const std::int64_t npanels = (nc + nr - 1) / nr;
        for (std::int64_t k0 = 0; k0 < k; k0 += kGroupedKC) {
            const std::int64_t kc = std::min(kGroupedKC, k - k0);
            pack_b(k0, jc, kc, nc, nr, bpack.get());

            parallelFor(0, ntiles, 64,
                        [&](std::int64_t tb, std::int64_t te) {
                for (std::int64_t t = tb; t < te; ++t) {
                    const GroupedSparseMatrix::Tile &tl =
                        a.tiles[static_cast<std::size_t>(t)];
                    const std::int32_t *cbase =
                        a.cols.data() + tl.col_off;
                    const std::int32_t *lo = std::lower_bound(
                        cbase, cbase + tl.ncols,
                        static_cast<std::int32_t>(k0));
                    const std::int32_t *hi = std::lower_bound(
                        lo, cbase + tl.ncols,
                        static_cast<std::int32_t>(k0 + kc));
                    tlo[static_cast<std::size_t>(t)] = lo - cbase;
                    tcnt[static_cast<std::size_t>(t)] = hi - lo;
                }
            });

            // Active tiles per band for this K block, as a flat CSR so
            // the panel loop below doesn't rescan tcnt per panel.
            act_ptr.assign(1, 0);
            act_tiles.clear();
            for (std::int64_t b = 0; b < nbands; ++b) {
                for (std::int64_t t = a.band_ptr
                         [static_cast<std::size_t>(b)];
                     t < a.band_ptr[static_cast<std::size_t>(b + 1)]; ++t) {
                    if (tcnt[static_cast<std::size_t>(t)] != 0)
                        act_tiles.push_back(t);
                }
                act_ptr.push_back(
                    static_cast<std::int64_t>(act_tiles.size()));
            }

            // Panel-outer, bands-inner: one packed panel is consumed by
            // every band before moving on, so the panel stays cache-hot
            // across bands (bands have no intra-band B reuse to exploit —
            // a block's bucket column sets are disjoint — the only reuse
            // is ACROSS bands). The value/column streams re-read per
            // panel stream sequentially, which the hardware prefetcher
            // hides; the band-outer nest that would read them only once
            // measures ~20% slower on AVX2 because it loses the hot
            // panel. Bands touch disjoint C rows, so they run in
            // parallel; each tile's K-block contribution is still one
            // kernel call + one scatter, so the per-C-element
            // accumulation order is independent of both the loop nest
            // and the thread count.
            for (std::int64_t q = 0; q < npanels; ++q) {
                const float *bp = bpack.get() + q * kc * nr;
                const std::int64_t cols = std::min(nr, nc - q * nr);
                parallelFor(0, nbands, 1,
                            [&](std::int64_t bb, std::int64_t be) {
                    float acc[kSparseTileMaxRows * simd::kMaxGemmNr];
                    for (std::int64_t b = bb; b < be; ++b) {
                        for (std::int64_t i = act_ptr
                                 [static_cast<std::size_t>(b)];
                             i < act_ptr[static_cast<std::size_t>(b + 1)];
                             ++i) {
                            const std::int64_t t = act_tiles
                                [static_cast<std::size_t>(i)];
                            const GroupedSparseMatrix::Tile &tl =
                                a.tiles[static_cast<std::size_t>(t)];
                            const std::int64_t lo =
                                tlo[static_cast<std::size_t>(t)];
                            kn.gemmSparseMultiRowMicroKernel(
                                a.vals.data() + tl.val_off + lo,
                                tl.ncols, tl.nrows,
                                a.cols.data() + tl.col_off + lo,
                                tcnt[static_cast<std::size_t>(t)], k0, bp,
                                nr, acc);
                            // x * 1.0f == x bitwise, so the alpha == 1
                            // branch is a pure fast path (drops a
                            // multiply per scattered element).
                            if (alpha == 1.0f) {
                                for (std::int32_t r = 0; r < tl.nrows;
                                     ++r) {
                                    float *crow = pc + tl.row[r] * ldc
                                        + jc + q * nr;
                                    const float *arow = acc + r * nr;
                                    for (std::int64_t cidx = 0;
                                         cidx < cols; ++cidx)
                                        crow[cidx] += arow[cidx];
                                }
                            } else {
                                for (std::int32_t r = 0; r < tl.nrows;
                                     ++r) {
                                    float *crow = pc + tl.row[r] * ldc
                                        + jc + q * nr;
                                    const float *arow = acc + r * nr;
                                    for (std::int64_t cidx = 0;
                                         cidx < cols; ++cidx)
                                        crow[cidx] += alpha * arow[cidx];
                                }
                            }
                        }
                    }
                });
            }

            if (a.remainder.nnz() != 0)
                sparseRowsKcPass(a.remainder, k0, kc, jc, nc, npanels,
                                 alpha, bpack.get(), pc, ldc, kn);
        }
    }
}

void
gemmSparseARaw(const SparseRowMatrix &a, const float *pb, std::int64_t ldb,
               std::int64_t n, float alpha, float beta, float *pc,
               std::int64_t ldc)
{
    if (!a.validated)
        checkSparseOperand(a);
    const std::int64_t m = a.rows;

    scaleCRows(pc, m, n, ldc, beta);
    if (m == 0 || n == 0 || a.nnz() == 0)
        return;

    // Small problems: panel packing overhead dominates. The threshold is
    // in *useful* multiply-adds, which for the sparse operand is nnz * n.
    if (a.nnz() * n <= kGemmScalarFallbackMacs) {
        sparseRowScanRaw(a, pb, ldb, n, alpha, pc, ldc);
        return;
    }

    gemmSparseBlockedDriver(
        a, n, alpha,
        [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
            std::int64_t nc, std::int64_t nr, float *bp) {
            packB(pb, ldb, false, k0, j0, kc, nc, nr, bp);
        },
        pc, ldc);
}

void
gemmSparseA(const SparseRowMatrix &a, const Tensor &b, Tensor &c,
            float alpha, float beta)
{
    checkSparseGemmShapes(a, b, c, "gemmSparseA");
    gemmSparseARaw(a, b.data(), b.dim(1), b.dim(1), alpha, beta, c.data(),
                   b.dim(1));
}

void
validateGroupedOperand(GroupedSparseMatrix &a)
{
    checkSparseOperand(a.rows);
    checkSparseOperand(a.remainder);
    checkGroupedOperand(a);
    a.rows.validated = true;
    a.remainder.validated = true;
    a.validated = true;
}

void
gemmSparseARaw(const GroupedSparseMatrix &a, const float *pb,
               std::int64_t ldb, std::int64_t n, float alpha, float beta,
               float *pc, std::int64_t ldc)
{
    // Disabled knob, tile-free operands, and small problems all route
    // through the single-row entry point on the embedded full operand —
    // the exact code the ungrouped path runs, so results are bit-identical.
    if (!sparseMultiRowEnabled() || a.tiles.empty()
        || a.rows.nnz() * n <= kGemmScalarFallbackMacs) {
        gemmSparseARaw(a.rows, pb, ldb, n, alpha, beta, pc, ldc);
        return;
    }
    if (!a.validated) {
        checkSparseOperand(a.rows);
        checkSparseOperand(a.remainder);
        checkGroupedOperand(a);
    }
    const std::int64_t m = a.rows.rows;

    scaleCRows(pc, m, n, ldc, beta);
    if (m == 0 || n == 0 || a.rows.nnz() == 0)
        return;

    gemmSparseGroupedBlockedDriver(
        a, n, alpha,
        [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
            std::int64_t nc, std::int64_t nr, float *bp) {
            packB(pb, ldb, false, k0, j0, kc, nc, nr, bp);
        },
        pc, ldc);
}

void
gemmSparseA(const GroupedSparseMatrix &a, const Tensor &b, Tensor &c,
            float alpha, float beta)
{
    checkSparseGemmShapes(a.rows, b, c, "gemmSparseA");
    gemmSparseARaw(a, b.data(), b.dim(1), b.dim(1), alpha, beta, c.data(),
                   b.dim(1));
}

void
gemmSparseAReference(const SparseRowMatrix &a, const Tensor &b, Tensor &c,
                     float alpha, float beta)
{
    checkSparseGemmShapes(a, b, c, "gemmSparseAReference");
    if (!a.validated)
        checkSparseOperand(a);
    const std::int64_t n = b.dim(1);
    float *pc = c.data();
    if (beta == 0.0f) {
        for (std::int64_t i = 0; i < a.rows * n; ++i)
            pc[i] = 0.0f;
    } else if (beta != 1.0f) {
        for (std::int64_t i = 0; i < a.rows * n; ++i)
            pc[i] *= beta;
    }
    sparseRowScanRaw(a, b.data(), n, n, alpha, pc, n);
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
 * outH*outW). Shared by the Tensor-returning im2col() and the fused
 * entry points' small-problem fallbacks, so fused and unfused paths
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
packBFromIm2col(const Im2colB &b, std::int64_t k0, std::int64_t j0,
                std::int64_t kc, std::int64_t nc, std::int64_t nr,
                float *bp)
{
    const ConvGeom &g = b.g;
    checkConvOutputDims(g, "packBFromIm2col");
    const std::int64_t ow = g.outW();
    const float *pin = b.slab;

    // Panels write disjoint bp regions, so packing runs in parallel (the
    // pool is otherwise idle between macro-kernel sweeps) without
    // affecting the packed bytes — same split as packB. Within a panel
    // the kk loop walks the virtual rows (c, kh, kw); the cidx loop walks
    // output positions of one im2col row, split into runs that stay on
    // one output row y (ih fixed), so the padding tests hoist out of the
    // per-element loop and the stride-1 common case degenerates to one
    // memcpy per run.
    const std::int64_t npanels = (nc + nr - 1) / nr;
    parallelFor(0, npanels, 4, [&](std::int64_t qb, std::int64_t qe) {
        for (std::int64_t q = qb; q < qe; ++q) {
            float *dst = bp + q * kc * nr;
            const std::int64_t cols = std::min(nr, nc - q * nr);
            const std::int64_t jbase = j0 + q * nr;
            // Walk the (c, kh, kw) decomposition of the virtual row
            // incrementally: kw carries into kh carries into c, so the kk
            // loop does no divisions.
            std::int64_t c = k0 / (g.k_h * g.k_w);
            std::int64_t kh = (k0 / g.k_w) % g.k_h;
            std::int64_t kw = k0 % g.k_w;
            const float *src = pin + c * g.in_h * g.in_w;
            for (std::int64_t kk = 0; kk < kc; ++kk) {
                float *drow = dst + kk * nr;
                std::int64_t cidx = 0;
                while (cidx < cols) {
                    const std::int64_t j = jbase + cidx;
                    const std::int64_t y = j / ow;
                    const std::int64_t x0 = j % ow;
                    const std::int64_t run =
                        std::min(cols - cidx, ow - x0);
                    const std::int64_t ih = y * g.stride - g.pad + kh;
                    if (ih < 0 || ih >= g.in_h) {
                        std::memset(drow + cidx, 0,
                                    static_cast<std::size_t>(run)
                                        * sizeof(float));
                    } else if (g.stride == 1) {
                        // iw = x - pad + kw is contiguous in x; split the
                        // run into left padding / in-bounds memcpy / right
                        // padding.
                        const std::int64_t iw0 = x0 - g.pad + kw;
                        const std::int64_t lo =
                            std::clamp<std::int64_t>(-iw0, 0, run);
                        const std::int64_t hi =
                            std::clamp<std::int64_t>(g.in_w - iw0, lo, run);
                        if (lo > 0)
                            std::memset(drow + cidx, 0,
                                        static_cast<std::size_t>(lo)
                                            * sizeof(float));
                        if (hi > lo)
                            std::memcpy(drow + cidx + lo,
                                        src + ih * g.in_w + iw0 + lo,
                                        static_cast<std::size_t>(hi - lo)
                                            * sizeof(float));
                        if (run > hi)
                            std::memset(drow + cidx + hi, 0,
                                        static_cast<std::size_t>(run - hi)
                                            * sizeof(float));
                    } else {
                        const float *srow = src + ih * g.in_w;
                        for (std::int64_t t = 0; t < run; ++t) {
                            const std::int64_t iw =
                                (x0 + t) * g.stride - g.pad + kw;
                            drow[cidx + t] = (iw >= 0 && iw < g.in_w)
                                ? srow[iw]
                                : 0.0f;
                        }
                    }
                    cidx += run;
                }
                for (std::int64_t t = cols; t < nr; ++t)
                    drow[t] = 0.0f;
                if (++kw == g.k_w) {
                    kw = 0;
                    if (++kh == g.k_h) {
                        kh = 0;
                        ++c;
                        src += g.in_h * g.in_w;
                    }
                }
            }
        }
    });
}

void
gemmIm2colRaw(std::int64_t m, float alpha, const float *pa,
              std::int64_t lda, const Im2colB &b, float beta, float *pc,
              std::int64_t ldc)
{
    checkConvOutputDims(b.g, "gemmIm2colRaw");
    const std::int64_t k = b.rows();
    const std::int64_t n = b.cols();

    // Small problems take the same materialize + scalar-reference route
    // the unfused path does (im2col + gemmRaw), keeping fused and unfused
    // bit-identical on both sides of the crossover.
    if (m * n * k <= kGemmScalarFallbackMacs) {
        std::vector<float> cols(static_cast<std::size_t>(k * n));
        im2colInto(b, cols.data());
        gemmReferenceRaw(m, n, k, alpha, pa, lda, false, cols.data(), n,
                         false, beta, pc, ldc);
        return;
    }

    scaleCRows(pc, m, n, ldc, beta);
    gemmBlockedDriver(m, n, k, alpha, pa, lda, false,
                      [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
                          std::int64_t nc, std::int64_t nr, float *bp) {
                          packBFromIm2col(b, k0, j0, kc, nc, nr, bp);
                      },
                      pc, ldc);
}

void
gemmSparseAIm2col(const SparseRowMatrix &a, const Im2colB &b, float alpha,
                  float beta, float *pc, std::int64_t ldc)
{
    if (!a.validated)
        checkSparseOperand(a);
    checkConvOutputDims(b.g, "gemmSparseAIm2col");
    panicIf(a.cols != b.rows(), "gemmSparseAIm2col inner dims mismatch: ",
            a.cols, " vs ", b.rows());
    const std::int64_t m = a.rows;
    const std::int64_t k = b.rows();
    const std::int64_t n = b.cols();

    scaleCRows(pc, m, n, ldc, beta);
    if (m == 0 || n == 0 || a.nnz() == 0)
        return;

    // Same crossover as gemmSparseARaw, same materialize fallback as the
    // unfused composition — bit-identity holds on both sides.
    if (a.nnz() * n <= kGemmScalarFallbackMacs) {
        std::vector<float> cols(static_cast<std::size_t>(k * n));
        im2colInto(b, cols.data());
        sparseRowScanRaw(a, cols.data(), n, n, alpha, pc, ldc);
        return;
    }

    gemmSparseBlockedDriver(
        a, n, alpha,
        [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
            std::int64_t nc, std::int64_t nr, float *bp) {
            packBFromIm2col(b, k0, j0, kc, nc, nr, bp);
        },
        pc, ldc);
}

void
gemmSparseAIm2col(const GroupedSparseMatrix &a, const Im2colB &b,
                  float alpha, float beta, float *pc, std::int64_t ldc)
{
    // Same forwarding rule as the grouped gemmSparseARaw: knob off,
    // nothing tiled, or below the crossover -> the single-row entry point
    // on the embedded full operand, bit-identical to the ungrouped path.
    if (!sparseMultiRowEnabled() || a.tiles.empty()
        || a.rows.nnz() * b.cols() <= kGemmScalarFallbackMacs) {
        gemmSparseAIm2col(a.rows, b, alpha, beta, pc, ldc);
        return;
    }
    if (!a.validated) {
        checkSparseOperand(a.rows);
        checkSparseOperand(a.remainder);
        checkGroupedOperand(a);
    }
    checkConvOutputDims(b.g, "gemmSparseAIm2col");
    panicIf(a.rows.cols != b.rows(),
            "gemmSparseAIm2col inner dims mismatch: ", a.rows.cols, " vs ",
            b.rows());
    const std::int64_t m = a.rows.rows;
    const std::int64_t n = b.cols();

    scaleCRows(pc, m, n, ldc, beta);
    if (m == 0 || n == 0 || a.rows.nnz() == 0)
        return;

    gemmSparseGroupedBlockedDriver(
        a, n, alpha,
        [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
            std::int64_t nc, std::int64_t nr, float *bp) {
            packBFromIm2col(b, k0, j0, kc, nc, nr, bp);
        },
        pc, ldc);
}

namespace {

/** -1 = unresolved (read MVQ_SPARSE_MULTIROW on first query). */
std::atomic<int> g_sparse_multirow{-1};

} // namespace

bool
sparseMultiRowEnabled()
{
    int v = g_sparse_multirow.load(std::memory_order_acquire);
    if (v < 0) {
        v = env::flag("MVQ_SPARSE_MULTIROW", true) ? 1 : 0;
        g_sparse_multirow.store(v, std::memory_order_release);
    }
    return v == 1;
}

void
setSparseMultiRowEnabled(bool on)
{
    g_sparse_multirow.store(on ? 1 : 0, std::memory_order_release);
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
