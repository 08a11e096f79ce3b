/**
 * @file
 * Tensor kernels: GEMM (dense and sparse-A), the direct convolutions,
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
 * - **Accumulation.** The matrix gemms overwrite C with `op(A) * op(B)`
 *   (C's prior contents are ignored and may be uninitialized), or add it
 *   to C when `accumulate` is set. The sparse-A gemms and both conv entry
 *   points compute `C = A * B` and overwrite C.
 * - **Determinism.** Every kernel is bit-identical for any
 *   `MVQ_NUM_THREADS` within a given SIMD ISA: parallel chunk boundaries
 *   depend only on the iteration range, and parallel chunks write
 *   disjoint outputs. Each dense C element sums its K blocks in ascending
 *   order, whether the blocks run serially (matrix gemm) or inside one
 *   task (conv); the sparse driver has no K blocks, and each C element is
 *   one kernel call over its row's entries. Switching ISA (`MVQ_SIMD`)
 *   may change final ULPs — micro-kernels reorder lane sums — which tests
 *   pin at 1e-4 relative.
 * - **Errors.** Shape/geometry violations panic (throw `PanicError` via
 *   common/logging) rather than returning error codes; the conv entry
 *   points additionally panic on degenerate (non-positive) output dims,
 *   like im2col/col2im.
 */

#ifndef MVQ_TENSOR_OPS_HPP
#define MVQ_TENSOR_OPS_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace mvq {

/**
 * Dense problems at or below this many multiply-adds (m*n*k) skip the
 * blocked drivers — their set-up dominates — and run gemmReference
 * instead (the dense conv on its materialized im2col). The sparse gemms
 * have no such crossover. Exposed so tests and benches can target either
 * side of it deliberately.
 */
constexpr std::int64_t kGemmScalarFallbackMacs = 16 * 1024;

/**
 * C = op(A) * op(B) for rank-2 tensors, or C += op(A) * op(B).
 *
 * @param trans_a    Use A transposed.
 * @param trans_b    Use B transposed.
 * @param accumulate Add the product to C instead of overwriting C.
 */
void gemm(const Tensor &a, bool trans_a, const Tensor &b, bool trans_b,
          Tensor &c, bool accumulate = false);

/**
 * Raw-pointer GEMM: C = op(A) * op(B) (or C += op(A) * op(B) when
 * `accumulate` is set) where op(A) is m x k, op(B) is k x n and C is
 * m x n with leading dimensions (row strides) lda/ldb/ldc. Overwriting,
 * C's first K block is stored as 0.0f + its sum — the bits a zeroed C
 * plus that block would hold. This is the layer the Tensor overload wraps; it
 * exists so callers holding a matrix *view* into a larger slab — e.g. a
 * conv layer writing one (batch, group) block of its NCHW output — can
 * run the packed kernels in place instead of bouncing through a temporary
 * plus memcpy. Same blocked driver, same per-ISA micro-kernels, same
 * determinism contract as gemm().
 */
void gemmRaw(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
             std::int64_t lda, bool trans_a, const float *b,
             std::int64_t ldb, bool trans_b, float *c, std::int64_t ldc,
             bool accumulate = false);

/**
 * Scalar single-threaded GEMM (the seed kernel). Kept as the correctness
 * oracle for tests and the "before" baseline for bench/micro_kernels.
 */
void gemmReference(const Tensor &a, bool trans_a, const Tensor &b,
                   bool trans_b, Tensor &c, bool accumulate = false);

/** Raw-pointer form of gemmReference (see gemmRaw for the conventions). */
void gemmReferenceRaw(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float *a, std::int64_t lda, bool trans_a,
                      const float *b, std::int64_t ldb, bool trans_b,
                      float *c, std::int64_t ldc, bool accumulate = false);

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
 * An operand is a value that is checked once, when it is built, and
 * never changes. Both factories check the structural invariants —
 * row_ptr size/monotone/coverage, col_idx strictly ascending within each
 * row and in [0, cols) — and panic (PanicError) on a violation, so every
 * operand a kernel sees is well formed. The invariants are memory safety,
 * not just correctness: the micro-kernels look each column up in a
 * per-call offset table of cols entries. The arrays are read-only views
 * whose bytes the operand keeps alive: its own vectors when packed at
 * runtime (fromVectors), or the owner of borrowed memory, such as the
 * MVQI model image of core/io/model_artifact (borrow). A copy shares the
 * arrays; a default-constructed operand is the valid empty 0 x 0 one
 * (row_ptr = {0}).
 */
class SparseRowMatrix
{
  public:
    SparseRowMatrix() = default;

    /** An operand owning its arrays: `row_ptr` holds rows+1 offsets,
     *  `col_idx` and `values` the kept entries. Panics when malformed. */
    static SparseRowMatrix fromVectors(std::int64_t rows, std::int64_t cols,
                                       std::vector<std::int64_t> row_ptr,
                                       std::vector<std::int32_t> col_idx,
                                       std::vector<float> values);

    /** An operand over arrays it does not copy; `keepalive` keeps them
     *  valid for as long as any copy of the operand lives. Panics when
     *  malformed. */
    static SparseRowMatrix borrow(std::int64_t rows, std::int64_t cols,
                                  std::span<const std::int64_t> row_ptr,
                                  std::span<const std::int32_t> col_idx,
                                  std::span<const float> values,
                                  std::shared_ptr<const void> keepalive);

    const std::int64_t rows = 0; //!< logical row count (m of the gemm)
    const std::int64_t cols = 0; //!< logical column count (k of the gemm)
    /** rows+1 offsets into col_idx/values; row i owns [row_ptr[i],
     *  row_ptr[i+1]). */
    const std::span<const std::int64_t> row_ptr{kEmptyRowPtr};
    const std::span<const std::int32_t> col_idx; //!< ascending per row
    const std::span<const float> values;         //!< kept entries, row-major

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

  private:
    static constexpr std::int64_t kEmptyRowPtr[1] = {0};

    /** Checks the invariants (the factories' one constructor). */
    SparseRowMatrix(std::int64_t n_rows, std::int64_t n_cols,
                    std::span<const std::int64_t> ptr,
                    std::span<const std::int32_t> idx,
                    std::span<const float> vals,
                    std::shared_ptr<const void> keepalive);

    const std::shared_ptr<const void> keepalive_;
};

/** Compress a rank-2 tensor's exact non-zeros into CSR (tests/benches). */
SparseRowMatrix sparsifyRows(const Tensor &a);

/**
 * A layer's packed operand. Only `rows`, its CSR, is ever packed,
 * stored, borrowed or served; the other members are always empty (the
 * spans hold nothing, `remainder` is the empty 0 x 0 operand). They
 * remain because the serving benchmark (perfbench/) still reads them,
 * and the type collapses into SparseRowMatrix once it reads the CSR
 * instead (ROADMAP item 8).
 */
struct GroupedSparseMatrix
{
    struct Tile
    {
    };

    SparseRowMatrix rows; //!< the operand (what the gemms run)
    std::span<const Tile> tiles{};
    std::span<const std::int32_t> cols{};
    std::span<const float> vals{};
    std::span<const std::int64_t> band_ptr{};
    SparseRowMatrix remainder{};

    std::int64_t
    tileNnz() const
    {
        return 0;
    }
};

/**
 * Sparse-A GEMM: C = A * B with A in compressed-row form and B/C dense;
 * C is overwritten. A thin wrapper over gemmSparseAIm2col's direct
 * driver at groups 1, with B viewed as an a.cols-channel 1 x n image
 * under a 1x1 kernel (its im2col is B itself). Only kept entries are walked, so
 * flops scale with nnz: a 4:16 operand does ~1/4 the multiplies of the
 * dense path. Deterministic across thread counts within an ISA, like
 * gemm(). Kept because im2col + gemmSparseARaw is the memcmp oracle of
 * the conv path (tests/fused_pack_test.cpp).
 */
void gemmSparseA(const SparseRowMatrix &a, const Tensor &b, Tensor &c);

/** Raw-pointer form of gemmSparseA: B is a.cols x n (row stride n), C
 *  is a.rows x n (row stride ldc). */
void gemmSparseARaw(const SparseRowMatrix &a, const float *b,
                    std::int64_t n, float *c, std::int64_t ldc);

/** Single-threaded unblocked sparse-A GEMM C = A * B, summed in double:
 *  the correctness oracle. */
void gemmSparseAReference(const SparseRowMatrix &a, const Tensor &b,
                          Tensor &c);

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
 * entirely (gemmIm2colRaw / gemmSparseAIm2col read the padded input in
 * place), but it remains the oracle of the direct conv tests and the
 * backward/col2im companion.
 */
Tensor im2col(const Tensor &input, std::int64_t n, const ConvGeom &g,
              std::int64_t c0 = 0);

/**
 * A convolution's im2col matrix described by geometry instead of storage:
 * the virtual [g.in_c * g.k_h * g.k_w, g.outH() * g.outW()] B operand of
 * one (batch, group) slab. `slab` points at the first input element of
 * the slab's channel range — for an NCHW tensor and group channel offset
 * c0 that is `input.data() + (n * C + c0) * in_h * in_w` — and must stay
 * valid for the duration of the gemm call it is passed to. (A grouped
 * gemmSparseAIm2col call reads the groups slabs that follow it too.) Element
 * (row, col) of the virtual matrix is input pixel (c, ih, iw) with
 * row = (c * k_h + kh) * k_w + kw, ih = (col / outW) * stride - pad + kh,
 * iw = (col % outW) * stride - pad + kw, and 0 where ih/iw fall in the
 * padding — exactly what im2col() would have materialized. Both direct
 * conv drivers lay the slab out once as its zero-padded input and read
 * every row of this matrix from it in place.
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
 * Direct dense conv: C = A * im2col(b) where A is m x b.rows() (row stride
 * lda, never transposed — conv weights are stored unrolled) and C, m x
 * b.cols() with row stride ldc, is overwritten. It reads B the way
 * gemmSparseAIm2col does — the slab's zero-padded input (phase planes
 * when strided), computed on the same grid through the same int32 offset
 * table — with the per-ISA mr x nr kernel, each tile nr grid positions
 * wide. One parallel region runs row-block x tile-range tasks; each task
 * walks the kGemmKC blocks of the reduction in order, so each C element
 * sums the same blocks in the same order as gemmRaw and the result is
 * BIT-IDENTICAL to `gemmRaw(m, n, k, a, lda, false, im2col(...).data(),
 * n, false, c, ldc)` for any ISA and thread count. Problems at or
 * below kGemmScalarFallbackMacs materialize and run gemmReferenceRaw,
 * exactly as the unfused composition does. Panics on non-positive output
 * dims, and before allocating when the padded input overflows the int32
 * offsets.
 */
void gemmIm2colRaw(std::int64_t m, const float *a, std::int64_t lda,
                   const Im2colB &b, float *c, std::int64_t ldc);

/**
 * Direct sparse conv, the one sparse driver: C = A * im2col(b) for a
 * `groups`-way conv, with A in compressed-row form and C, a.rows x
 * b.cols() with row stride ldc, overwritten. b.g describes one group
 * (b.g.in_c channels, so a.cols must equal b.rows()) and b.slab spans
 * all groups * b.g.in_c channels of one image; a.rows must divide into
 * `groups`, and rows [g*a.rows/groups, (g+1)*a.rows/groups) — group g's
 * output channels — read group g's channels [g*b.g.in_c, (g+1)*b.g.in_c).
 * A layer's one CSR thus runs every group, a depthwise conv included, in
 * one call. Nothing is packed. The slab is laid out once as its
 * zero-padded input — split into stride x stride phase planes when
 * strided, building only the phases some tap reads — and the output is
 * computed on the grid j = oh*Wq + ow (Wq the phase-plane width). Every
 * im2col row then is the input at a fixed offset from the grid, so the
 * nr grid positions of a tile meet each kept weight as one contiguous
 * run of the padded input, which the per-ISA kernel reads in place
 * through a per-call table of a.cols int32 offsets (the layout
 * gemmIm2colRaw reads too), shifted by a fixed count of planes per
 * group. One parallel region runs row-block x tile-range tasks; each
 * stores its lanes with ow < outW straight into C. The offset table
 * covers the padded input with int32, so a slab whose phase planes
 * (all groups') exceed that panics before allocating. This is the
 * method of Park et al., "Faster CNNs with Direct Sparse Convolutions
 * and Guided Pruning" (ICLR 2017), on MVQ's N:M operands. Bit-identical
 * to the per-group im2col + gemmSparseARaw compositions over A's row
 * slices for any ISA and thread count; panics on non-positive output
 * dims and on a row count `groups` does not divide.
 */
void gemmSparseAIm2col(const SparseRowMatrix &a, const Im2colB &b,
                       float *c, std::int64_t ldc, std::int64_t groups = 1);

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
