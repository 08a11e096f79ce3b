/**
 * @file
 * Tensor kernels: GEMM (dense, sparse-A, and fused-im2col variants),
 * im2col/col2im, elementwise arithmetic, reductions. These back both the
 * NN layers and the compression algorithms.
 *
 * Conventions shared by every kernel in this header:
 *
 * - **Layout.** All matrices are row-major float32. The `*Raw` entry
 *   points take leading dimensions (`lda/ldb/ldc` = row stride in
 *   elements, >= the logical column count), so callers can pass views
 *   into larger slabs — e.g. one (batch, group) block of an NCHW tensor —
 *   and have results written in place. The Tensor overloads are the
 *   `ld == cols` special case.
 * - **Accumulation.** `C = alpha * op(A) * op(B) + beta * C` semantics
 *   throughout; `beta == 0` means C's prior contents are ignored (and may
 *   be uninitialized), not multiplied by 0.
 * - **Determinism.** Every kernel is bit-identical for any
 *   `MVQ_NUM_THREADS` within a given SIMD ISA: parallel chunk boundaries
 *   depend only on the iteration range, parallel chunks write disjoint
 *   outputs, and the blocked gemm drivers sequence their K blocks
 *   serially so each C element accumulates in a fixed order. Switching
 *   ISA (`MVQ_SIMD`) may change final ULPs — micro-kernels reorder lane
 *   sums — which tests pin at 1e-4 relative.
 * - **Errors.** Shape/geometry violations panic (throw `PanicError` via
 *   common/logging) rather than returning error codes; the fused conv
 *   entry points additionally panic on degenerate (non-positive) output
 *   dims, like im2col/col2im.
 */

#ifndef MVQ_TENSOR_OPS_HPP
#define MVQ_TENSOR_OPS_HPP

#include "tensor/operand_array.hpp"
#include "tensor/tensor.hpp"

namespace mvq {

/**
 * Problems at or below this many multiply-adds (m*n*k) skip the packed
 * blocked path — packing overhead dominates — and run gemmReference
 * instead. Exposed so tests and benches can target either side of the
 * crossover deliberately.
 */
constexpr std::int64_t kGemmScalarFallbackMacs = 16 * 1024;

/**
 * C = alpha * op(A) * op(B) + beta * C for rank-2 tensors.
 *
 * @param trans_a Use A transposed.
 * @param trans_b Use B transposed.
 */
void gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
          Tensor &c, float alpha = 1.0f, float beta = 0.0f);

/**
 * Raw-pointer GEMM: C = alpha * op(A) * op(B) + beta * C where op(A) is
 * m x k, op(B) is k x n and C is m x n with leading dimensions (row
 * strides) lda/ldb/ldc. This is the layer the Tensor overload wraps; it
 * exists so callers holding a matrix *view* into a larger slab — e.g. a
 * conv layer writing one (batch, group) block of its NCHW output — can
 * run the packed kernels in place instead of bouncing through a temporary
 * plus memcpy. Same blocked driver, same per-ISA micro-kernels, same
 * determinism contract as gemm().
 */
void gemmRaw(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float *a, std::int64_t lda, bool trans_a, const float *b,
             std::int64_t ldb, bool trans_b, float beta, float *c,
             std::int64_t ldc);

/**
 * Scalar single-threaded GEMM (the seed kernel). Kept as the correctness
 * oracle for tests and the "before" baseline for bench/micro_kernels.
 */
void gemmReference(const Tensor &a, bool trans_a, const Tensor &b,
                   bool trans_b, Tensor &c, float alpha = 1.0f,
                   float beta = 0.0f);

/** Raw-pointer form of gemmReference (see gemmRaw for the conventions). */
void gemmReferenceRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                      float alpha, const float *a, std::int64_t lda,
                      bool trans_a, const float *b, std::int64_t ldb,
                      bool trans_b, float beta, float *c, std::int64_t ldc);

/** Convenience: returns op(A) * op(B) as a fresh tensor. */
Tensor matmul(const Tensor &a, const Tensor &b,
              bool trans_a = false, bool trans_b = false);

/**
 * Per-row compressed-column (CSR) operand for gemmSparseA. For MVQ
 * weights the N:M mask makes the kept positions statically known per
 * M-group, so the operand is built once (from the stored mask codes, see
 * core::CompressedLayer::packSparseRows) and reused for every forward
 * pass — the pack stage of the sparse gemm never touches pruned
 * positions.
 *
 * The arrays are OperandArray so an operand can either own its storage
 * (packed at runtime) or borrow it from an MVQI model image
 * (core/io/model_artifact) — the drivers only ever read through const
 * accessors, so both modes share every kernel unchanged.
 */
struct SparseRowMatrix
{
    std::int64_t rows = 0; //!< logical row count (m of the gemm)
    std::int64_t cols = 0; //!< logical column count (k of the gemm)
    /** rows+1 offsets into col_idx/values; row i owns [row_ptr[i],
     *  row_ptr[i+1]). */
    OperandArray<std::int64_t> row_ptr;
    OperandArray<std::int32_t> col_idx; //!< ascending within each row
    OperandArray<float> values;         //!< kept entries, row-major

    /**
     * Set by validateSparseOperand once the structural invariants (row_ptr
     * coverage, ascending in-range col_idx) have been checked. The gemm
     * entry points trust a validated operand and skip their O(nnz)
     * re-check — the pack stage runs once, the forward pass runs per
     * inference, so validation belongs with the pack. Hand-built operands
     * start unvalidated and are still checked (and panic) per call.
     */
    bool validated = false;

    std::int64_t
    nnz() const
    {
        return static_cast<std::int64_t>(values.size());
    }

    /** Kept fraction (1.0 = dense); N/M for an exact N:M operand. */
    double
    density() const
    {
        return rows * cols != 0
            ? static_cast<double>(nnz())
                / static_cast<double>(rows * cols)
            : 0.0;
    }
};

/**
 * Check the structural invariants of a compressed-row operand (row_ptr
 * size/monotone/coverage, col_idx strictly ascending within each row and
 * in [0, cols)) and mark it validated, so the gemm entry points skip the
 * O(nnz) re-check on every call. Panics (PanicError) on violation. The
 * invariants are memory safety, not just correctness: the blocked driver
 * binary-searches each row's index range and the micro-kernels index
 * packed B rows with kidx - k0.
 */
void validateSparseOperand(SparseRowMatrix &a);

/** Compress a rank-2 tensor's exact non-zeros into CSR (tests/benches). */
SparseRowMatrix sparsifyRows(const Tensor &a);

/**
 * One conv group's packed operand. Only `rows`, its CSR, is ever packed,
 * stored, borrowed or served; the other members are always empty. They
 * remain because the serving benchmark (perfbench/) still reads them,
 * and the type collapses into SparseRowMatrix once it reads the CSR
 * instead (ROADMAP item 1).
 */
struct GroupedSparseMatrix
{
    struct Tile
    {
    };

    SparseRowMatrix rows; //!< the operand (what the gemms run)
    OperandArray<Tile> tiles;
    OperandArray<std::int32_t> cols;
    OperandArray<float> vals;
    OperandArray<std::int64_t> band_ptr;
    SparseRowMatrix remainder;

    std::int64_t
    tileNnz() const
    {
        return 0;
    }
};

/**
 * Sparse-A GEMM: C = alpha * A * B + beta * C with A in compressed-row
 * form and B/C dense. Runs a cache-blocked, B-panel-packed driver like
 * gemm()'s — with K blocks deep enough to cover typical conv reductions
 * whole and L2-sized N strips — but the A side consumes the compressed
 * rows directly: only kept entries are walked, their column indices
 * steering the per-ISA sparse micro-kernel
 * (simd::Kernels::gemmSparseMicroKernel) to the matching packed B rows.
 * Flops scale with nnz, so a 4:16 operand does ~1/4 the multiplies of
 * the dense path. Both drivers split C into row-block x panel-range
 * tasks, so a layer with one row block still uses the whole pool.
 * Deterministic across thread counts within an ISA, like gemm().
 */
void gemmSparseA(const SparseRowMatrix &a, const Tensor &b, Tensor &c,
                 float alpha = 1.0f, float beta = 0.0f);

/** Raw-pointer form of gemmSparseA: B is a.cols x n (row stride ldb), C
 *  is a.rows x n (row stride ldc). */
void gemmSparseARaw(const SparseRowMatrix &a, const float *b,
                    std::int64_t ldb, std::int64_t n, float alpha,
                    float beta, float *c, std::int64_t ldc);

/** Single-threaded unblocked sparse-A GEMM: the correctness oracle. */
void gemmSparseAReference(const SparseRowMatrix &a, const Tensor &b,
                          Tensor &c, float alpha = 1.0f, float beta = 0.0f);

/** Convolution geometry used by im2col and the conv layer. */
struct ConvGeom
{
    std::int64_t in_c = 1;   //!< input channels
    std::int64_t in_h = 1;   //!< input height
    std::int64_t in_w = 1;   //!< input width
    std::int64_t k_h = 1;    //!< kernel height
    std::int64_t k_w = 1;    //!< kernel width
    std::int64_t stride = 1;
    std::int64_t pad = 0;

    // A kernel larger than the padded input makes the numerator negative;
    // integer division truncating toward zero would then yield a bogus
    // positive size for small magnitudes (e.g. -1 / 2 + 1 == 1), so the
    // invalid case is clamped to 0. im2col/col2im panic on non-positive
    // output dims rather than relying on each caller to guard.
    std::int64_t
    outH() const
    {
        const std::int64_t num = in_h + 2 * pad - k_h;
        return num < 0 ? 0 : num / stride + 1;
    }
    std::int64_t
    outW() const
    {
        const std::int64_t num = in_w + 2 * pad - k_w;
        return num < 0 ? 0 : num / stride + 1;
    }
};

/**
 * Expand an image slice (channels [c0, c0 + g.in_c) of a rank-4 tensor at
 * batch n) into a [g.in_c*kh*kw, outH*outW] column matrix. With the
 * default c0 = 0 and g.in_c == input channels this is classic im2col;
 * grouped convolutions pass c0 to select their channel slice.
 *
 * This is the *materializing* form: the conv forward paths skip it
 * entirely (gemmIm2colRaw / gemmSparseAIm2col), but it remains the oracle
 * for the fused tests and the backward/col2im companion.
 */
Tensor im2col(const Tensor &input, std::int64_t n, const ConvGeom &g,
              std::int64_t c0 = 0);

/**
 * A convolution's im2col matrix described by geometry instead of storage:
 * the virtual [g.in_c * g.k_h * g.k_w, g.outH() * g.outW()] B operand of
 * one (batch, group) slab. `slab` points at the first input element of
 * the slab's channel range — for an NCHW tensor and group channel offset
 * c0 that is `input.data() + (n * C + c0) * in_h * in_w` — and must stay
 * valid for the duration of the gemm call it is passed to. Element
 * (row, col) of the virtual matrix is input pixel (c, ih, iw) with
 * row = (c * k_h + kh) * k_w + kw, ih = (col / outW) * stride - pad + kh,
 * iw = (col % outW) * stride - pad + kw, and 0 where ih/iw fall in the
 * padding — exactly what im2col() would have materialized.
 */
struct Im2colB
{
    const float *slab = nullptr; //!< base of the (batch, group) channels
    ConvGeom g;

    /** Rows of the virtual matrix == k of the gemm. */
    std::int64_t
    rows() const
    {
        return g.in_c * g.k_h * g.k_w;
    }
    /** Columns of the virtual matrix == n of the gemm. */
    std::int64_t
    cols() const
    {
        return g.outH() * g.outW();
    }
};

/**
 * Fused im2col -> B-panel packing: write block [k0, k0 + kc) x
 * [j0, j0 + nc) of the virtual im2col matrix straight into the packed
 * nr-column panel layout the blocked gemm drivers consume (panel q at
 * bp + q*kc*nr holds bp[kk*nr + c] = B(k0 + kk, j0 + q*nr + c),
 * zero-padded past nc) — the same layout packB produces from a dense
 * matrix, so the per-ISA micro-kernels cannot tell the difference. This
 * is what eliminates the cols tensor: patches are gathered from the
 * input image exactly once, directly into the pack buffer, instead of
 * being written to a [k, n] intermediate and re-read by packB.
 *
 * ISA-agnostic (plain C++, nr is a runtime parameter) and serial: the
 * blocked drivers call it once per range of panels, ranges in parallel
 * (panels write disjoint bp regions, so the split never affects the
 * packed bytes). Panics on non-positive output dims, like im2col.
 */
void packBFromIm2col(const Im2colB &b, std::int64_t k0, std::int64_t j0,
                     std::int64_t kc, std::int64_t nc, std::int64_t nr,
                     float *bp);

/**
 * Dense conv forward gemm with the B operand produced on the fly:
 * C = alpha * A * im2col(b) + beta * C where A is m x b.rows() (row
 * stride lda, never transposed — conv weights are stored unrolled) and C
 * is m x b.cols() with row stride ldc. Runs the same blocked driver and
 * per-ISA micro-kernels as gemmRaw with packB replaced by
 * packBFromIm2col, so the result is BIT-IDENTICAL to
 * `gemmRaw(m, n, k, alpha, a, lda, false, im2col(...).data(), n, false,
 * beta, c, ldc)` for any ISA and thread count (small problems fall back
 * to a materialize + gemmReferenceRaw path, again matching the unfused
 * fallback exactly). Panics on non-positive output dims.
 */
void gemmIm2colRaw(std::int64_t m, float alpha, const float *a,
                   std::int64_t lda, const Im2colB &b, float beta, float *c,
                   std::int64_t ldc);

/**
 * Sparse-A conv forward gemm with the B operand produced on the fly:
 * C = alpha * A * im2col(b) + beta * C with A in compressed-row form
 * (a.cols must equal b.rows()). Same blocked sparse driver as
 * gemmSparseARaw with packB replaced by packBFromIm2col — bit-identical
 * to the unfused im2col + gemmSparseARaw composition for any ISA and
 * thread count. This is the payoff path: PR3 measured gemmSparseA's gap
 * to the ideal N/M flop cut to be B-side memory traffic, and the fusion
 * removes the cols tensor's write+read round trip entirely.
 */
void gemmSparseAIm2col(const SparseRowMatrix &a, const Im2colB &b,
                       float alpha, float beta, float *c, std::int64_t ldc);

/**
 * Scatter-add a column matrix back into an image gradient (inverse of
 * im2col for backprop). Accumulates into channels [c0, c0 + g.in_c) of
 * grad at batch n.
 */
void col2im(const Tensor &cols, Tensor &grad, std::int64_t n,
            const ConvGeom &g, std::int64_t c0 = 0);

/** out = a + b (same shape). */
Tensor add(const Tensor &a, const Tensor &b);

/** a += b (same shape). */
void addInPlace(Tensor &a, const Tensor &b);

/** a += alpha * b (same shape). */
void axpy(Tensor &a, float alpha, const Tensor &b);

/** out = a * b elementwise (same shape). */
Tensor mul(const Tensor &a, const Tensor &b);

/** Scale all elements in place. */
void scaleInPlace(Tensor &a, float s);

/** Sum of squared differences between two same-shaped tensors. */
double sse(const Tensor &a, const Tensor &b);

/** Max |a - b| over all elements. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

} // namespace mvq

#endif // MVQ_TENSOR_OPS_HPP
