#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
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
// the tile shape is per-ISA (scalar 4x8, AVX2 6x16, NEON 4x16); panels of
// op(A) (MC x KC) and op(B) (KC x NC) are packed into contiguous,
// zero-padded buffers so the macro-kernel is branchless and
// layout-independent (all four transpose cases pack to one format). The
// constants live in simd_dispatch.hpp so B-panel producers and tests can
// block with the same values.
constexpr std::int64_t MC = simd::kGemmMC;
constexpr std::int64_t KC = simd::kGemmKC;
constexpr std::int64_t NC = simd::kGemmNC;

// K block of the sparse driver. Dense-style KC keeps a B panel
// L1-resident because every A row re-reads all of it; a compressed row
// reads only its kept rows of the panel, so a shallow K block buys little
// reuse while multiplying the per-(row, panel) fixed cost — accumulator
// zero-fill, kernel entry, and the C scatter — by k / KC. A K block
// covering the whole reduction pays that cost once per (row, panel); the
// cap only bounds the packed strip (4096 * nr floats per panel) for
// pathologically deep reductions. At KC = 256 the same driver ran
// ResNet-18's batch-1 conv trunk ~20% slower, its stage4 convs ~1.6x
// slower (4 threads, avx2).
constexpr std::int64_t kSparseKC = 4096;

// N-strip budget of the sparse driver, in packed floats (~1.5 MiB): every
// row block re-reads the strip's packed panels once per K block, so the
// strip must stay L2-resident or the B rows stream from L3 on every row
// block. With the K block covering the reduction whole, the strip width
// is what bounds the buffer: nc per strip is budget / kc (floored to a
// panel multiple), e.g. 160 columns at k = 2304.
constexpr std::int64_t kSparseNcBudget = 384 * 1024;

// Tasks per available thread that each blocked driver splits one (strip,
// K block) iteration into (see forEachStripTask). A sparse task has no
// set-up of its own, so the sparse driver splits finely for load
// balance. Each dense task packs its own row block of A, which a panel
// split repeats, so the dense driver splits only as far as it takes to
// occupy the pool — run inline, it does exactly the unsplit work.
constexpr std::int64_t kSparseTasksPerThread = 8;
constexpr std::int64_t kDenseTasksPerThread = 1;

/**
 * B-panel producer the blocked drivers call once per panel range of each
 * (strip, K block) iteration: fill bp with the packed nr-column panels of
 * op(B)[k0:k0+kc, j0:j0+nc]. Bound to packB for a dense operand and to
 * packBFromIm2col for the fused conv path; invoked per range of panels,
 * so the std::function indirection costs nothing measurable.
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
 * The compute partition both blocked drivers share. One (strip, K block)
 * iteration covers C[0:m, jc:jc+nc); it splits into tasks of one MC-row
 * block x one range of consecutive nr-column panels, so a layer with a
 * single row block (m <= MC: ResNet's stem and stage1) still spreads over
 * the pool. Ranges are sized to give about tasks_per_thread tasks per
 * thread the call can occupy (parallelWidth()). First pack(q0, q1) fills
 * panels [q0, q1) of the strip — one call per range, ranges in parallel
 * (the panels are disjoint) — then task(i0, q0, q1) runs every row-block
 * x range pair in parallel (tasks write disjoint C tiles). Neither split reaches the arithmetic: each
 * (row, panel) pair is one kernel call per K block whichever task holds
 * it, so C is bit-identical for any thread count and between pool and
 * nested (inline) execution, and every panel is packed exactly once.
 */
void
forEachStripTask(
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
    parallelFor(0, nranges, 1, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t r = rb; r < re; ++r)
            pack(r * span, std::min(npanels, (r + 1) * span));
    });
    parallelFor(0, mblocks * nranges, 1,
                [&](std::int64_t tb, std::int64_t te) {
        for (std::int64_t t = tb; t < te; ++t) {
            const std::int64_t r = t % nranges;
            task(t / nranges * MC, r * span,
                 std::min(npanels, (r + 1) * span));
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
    // in a fixed order); inside, row-block x panel-range tasks run in
    // parallel over disjoint C tiles, each packing its own row block of A,
    // so results are identical for any thread count (within a given ISA —
    // different micro-kernels reorder the lane sums).
    for (std::int64_t jc = 0; jc < n; jc += NC) {
        const std::int64_t nc = std::min(NC, n - jc);
        for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
            const std::int64_t kc = std::min(KC, k - k0);
            forEachStripTask(
                m, (nc + nr - 1) / nr, kDenseTasksPerThread,
                [&](std::int64_t q0, std::int64_t q1) {
                    pack_b(k0, jc + q0 * nr, kc,
                           std::min(nc, q1 * nr) - q0 * nr, nr,
                           bpack.data() + q0 * kc * nr);
                },
                [&](std::int64_t i0, std::int64_t q0, std::int64_t q1) {
                    const std::int64_t mc = std::min(MC, m - i0);
                    std::vector<float> apack(static_cast<std::size_t>(
                        kc * ((mc + mr - 1) / mr) * mr));
                    packA(pa, lda, trans_a, i0, k0, mc, kc, alpha, mr,
                          apack.data());
                    float acc[simd::kMaxGemmMr * simd::kMaxGemmNr];
                    const std::int64_t mpanels = (mc + mr - 1) / mr;
                    for (std::int64_t q = q0; q < q1; ++q) {
                        const float *bp = bpack.data() + q * kc * nr;
                        const std::int64_t cols = std::min(nr, nc - q * nr);
                        for (std::int64_t p = 0; p < mpanels; ++p) {
                            const float *ap = apack.data() + p * kc * mr;
                            std::fill(acc, acc + mr * nr, 0.0f);
                            kn.gemmMicroKernel(ap, bp, kc, acc);
                            const std::int64_t rows =
                                std::min(mr, mc - p * mr);
                            for (std::int64_t r = 0; r < rows; ++r) {
                                float *crow = pc + (i0 + p * mr + r) * ldc
                                    + jc + q * nr;
                                const float *arow = acc + r * nr;
                                for (std::int64_t cidx = 0; cidx < cols;
                                     ++cidx)
                                    crow[cidx] += arow[cidx];
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

/**
 * The sparse-A macro-driver behind every sparse entry point (dense B via
 * packB, virtual B via packBFromIm2col). The A side needs no packing:
 * the compressed rows *are* the packed format, built once from the mask
 * codes. Blocking comes from
 * the shape alone — K blocks of kSparseKC, N strips of the
 * kSparseNcBudget width — and each (strip, K block) iteration packs B
 * once, then runs the single-row micro-kernel over forEachStripTask's
 * row-block x panel-range tasks, panel-outer within a task so the packed
 * panel stays hot across its rows. Strips and K blocks run in a fixed
 * order, so each C element sums its K blocks in an order the thread
 * count cannot change. beta has already been applied to C and the
 * operand validated by the caller.
 */
void
gemmSparseDriver(const SparseRowMatrix &a, std::int64_t n, float alpha,
                 const PackBFn &pack_b, float *pc, std::int64_t ldc)
{
    const std::int64_t m = a.rows;
    const std::int64_t k = a.cols;

    const simd::Kernels &kn = simd::kernels();
    const std::int64_t nr = kn.nr;

    const std::int64_t kc_max = std::min(kSparseKC, k);
    const std::int64_t nc_blk = std::min<std::int64_t>(
        NC, std::max<std::int64_t>(nr, kSparseNcBudget / kc_max / nr * nr));
    // Uninitialized on purpose: pack_b overwrites every panel byte the
    // kernel reads, and the deep K block makes this buffer large enough
    // (a megabyte-plus) that a vector's zero-fill shows up in profiles.
    const std::int64_t nc_max = std::min(nc_blk, n);
    std::unique_ptr<float[]> bpack(new float[static_cast<std::size_t>(
        kc_max * ((nc_max + nr - 1) / nr) * nr)]);

    // Each row's entry range per K block, sliced once per call: row r's
    // entries in K block b are [split[b*m + r], split[(b+1)*m + r]). The
    // column indices ascend within a row, so interior block boundaries
    // are binary searches; the outer two are row_ptr itself.
    const std::int64_t nkb = (k + kSparseKC - 1) / kSparseKC;
    std::vector<std::int64_t> split(static_cast<std::size_t>((nkb + 1) * m));
    const std::int32_t *idx = a.col_idx.data();
    for (std::int64_t r = 0; r < m; ++r) {
        const std::int64_t lo = a.row_ptr[static_cast<std::size_t>(r)];
        const std::int64_t hi = a.row_ptr[static_cast<std::size_t>(r + 1)];
        split[static_cast<std::size_t>(r)] = lo;
        split[static_cast<std::size_t>(nkb * m + r)] = hi;
        for (std::int64_t b = 1; b < nkb; ++b)
            split[static_cast<std::size_t>(b * m + r)] =
                std::lower_bound(idx + lo, idx + hi,
                                 static_cast<std::int32_t>(b * kSparseKC))
                - idx;
    }

    for (std::int64_t jc = 0; jc < n; jc += nc_blk) {
        const std::int64_t nc = std::min(nc_blk, n - jc);
        for (std::int64_t b = 0; b < nkb; ++b) {
            const std::int64_t k0 = b * kSparseKC;
            const std::int64_t kc = std::min(kSparseKC, k - k0);
            const std::int64_t *ent0 = split.data() + b * m;
            const std::int64_t *ent1 = ent0 + m;
            forEachStripTask(
                m, (nc + nr - 1) / nr, kSparseTasksPerThread,
                [&](std::int64_t q0, std::int64_t q1) {
                    pack_b(k0, jc + q0 * nr, kc,
                           std::min(nc, q1 * nr) - q0 * nr, nr,
                           bpack.get() + q0 * kc * nr);
                },
                [&](std::int64_t i0, std::int64_t q0, std::int64_t q1) {
                    const std::int64_t i1 = std::min(m, i0 + MC);
                    float acc[simd::kMaxGemmNr];
                    for (std::int64_t q = q0; q < q1; ++q) {
                        const float *bp = bpack.get() + q * kc * nr;
                        const std::int64_t cols = std::min(nr, nc - q * nr);
                        for (std::int64_t r = i0; r < i1; ++r) {
                            if (ent1[r] == ent0[r])
                                continue;
                            std::fill(acc, acc + nr, 0.0f);
                            kn.gemmSparseMicroKernel(
                                a.values.data() + ent0[r], idx + ent0[r],
                                ent1[r] - ent0[r], k0, bp, nr, acc);
                            float *crow = pc + r * ldc + jc + q * nr;
                            // x * 1.0f == x bitwise, so the branch is a
                            // pure fast path (drops a multiply per element
                            // in the overwhelmingly common alpha == 1
                            // case).
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
                });
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

    gemmSparseDriver(
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

    // Within a panel the kk loop walks the virtual rows (c, kh, kw); the
    // cidx loop walks output positions of one im2col row, split into runs
    // that stay on one output row y (ih fixed), so the padding tests hoist
    // out of the per-element loop and the stride-1 common case
    // degenerates to one memcpy per run.
    const std::int64_t npanels = (nc + nr - 1) / nr;
    for (std::int64_t q = 0; q < npanels; ++q) {
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

    gemmSparseDriver(
        a, n, alpha,
        [&](std::int64_t k0, std::int64_t j0, std::int64_t kc,
            std::int64_t nc, std::int64_t nr, float *bp) {
            packBFromIm2col(b, k0, j0, kc, nc, nr, bp);
        },
        pc, ldc);
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
