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

struct GroupedSparseMatrix;

/**
 * Full structural validation of a grouped operand: the embedded CSR
 * operands (rows + remainder) via validateSparseOperand's invariants plus
 * the tile/band layer (tile rows ascending and in range, column/value
 * pools covered, band_ptr covering tiles, tiles + remainder partitioning
 * rows.nnz()). Panics (PanicError) on violation; marks every validated
 * flag on success. groupSparseRows validates what it builds; this entry
 * point exists for operands assembled from *untrusted* storage — above
 * all borrowed views over an MVQI model image, where these invariants
 * are the line between a corrupt file failing loudly and the kernels
 * reading out of bounds.
 */
void validateGroupedOperand(GroupedSparseMatrix &a);

/**
 * Row count of one multi-row sparse tile. Mirrors
 * simd::kSparseMultiRowMr (static_asserted equal in ops.cpp); duplicated
 * here so this header does not pull in the dispatch layer.
 */
constexpr std::int64_t kSparseTileMaxRows = 4;

/** groupSparseRows' default shortest shared column list worth a tile. */
constexpr std::int64_t kSparseTileMinCols = 8;

/**
 * A SparseRowMatrix reorganized around the structure N:M masking imposes:
 * within an M-row block of the operand, every column's set of kept rows
 * is one of the C(M,N) mask codes, so columns of a block sharing a code
 * share their kept-row pattern exactly. groupSparseRows buckets the
 * columns of each block by that kept-row set and emits each bucket as
 * row-tiles: up to kSparseTileMaxRows rows x the bucket's shared
 * ascending column list, with the tile's kept values stored densely
 * (row-major, row r of tile t at vals[t.val_off + r*t.ncols]). The
 * multi-row micro-kernel then loads each packed B row once per tile
 * instead of once per row — MVQ's "one operand fetch serves many
 * accumulations" argument, realized in software.
 *
 * Entries not worth tiling (columns kept by a single row of their block,
 * buckets too short to amortize the tile setup, leftover rows of an
 * odd-sized bucket) stay in `remainder`, a CSR over the same row/column
 * space driven by the single-row kernel. Tiles + remainder partition
 * rows.nnz() exactly. The full `rows` operand is retained for the
 * MVQ_SPARSE_MULTIROW=0 fallback path (bit-identical to the ungrouped
 * entry points) and as the shape/validation source of truth.
 */
struct GroupedSparseMatrix
{
    /** One bucket chunk: `nrows` rows sharing the ascending column list
     *  at cols[col_off .. col_off + ncols). Chunks of one bucket share
     *  their column storage and differ only in rows/values. */
    struct Tile
    {
        std::int32_t row[kSparseTileMaxRows]; //!< absolute rows, ascending
        std::int32_t nrows = 0;               //!< 2..kSparseTileMaxRows
        std::int64_t col_off = 0; //!< into cols (shared per bucket)
        std::int64_t ncols = 0;   //!< shared pattern length
        std::int64_t val_off = 0; //!< into vals; nrows x ncols row-major
    };

    SparseRowMatrix rows;      //!< full single-row operand (fallback path)
    OperandArray<Tile> tiles;  //!< bucket chunks, grouped into bands
    OperandArray<std::int32_t> cols; //!< shared column patterns, ascending
    OperandArray<float> vals;        //!< tile values, row-major per tile
    /**
     * Bands partition `tiles`: band b owns tiles [band_ptr[b],
     * band_ptr[b+1]), and tiles of *different* bands touch disjoint C
     * rows (a band is one M-row block's tiles — rows within a block can
     * appear in several of its buckets). The grouped driver parallelizes
     * over bands and runs a band's tiles sequentially, preserving the
     * bit-identical-across-thread-counts contract.
     */
    OperandArray<std::int64_t> band_ptr{0};
    SparseRowMatrix remainder; //!< untiled entries (single-row kernel)
    bool validated = false;    //!< set by the builders after checking

    /** Kept entries covered by tiles (rows.nnz() - remainder.nnz()). */
    std::int64_t
    tileNnz() const
    {
        std::int64_t n = 0;
        for (const Tile &t : tiles)
            n += static_cast<std::int64_t>(t.nrows) * t.ncols;
        return n;
    }

    /** Fraction of kept entries the single-row fallback still carries. */
    double
    fallbackFraction() const
    {
        return rows.nnz() != 0
            ? static_cast<double>(remainder.nnz())
                / static_cast<double>(rows.nnz())
            : 0.0;
    }
};

/**
 * Build the grouped operand: bucket each `m_block`-row block's columns by
 * their kept-row set (the decoded N:M mask code of that column's group)
 * and emit buckets of >= 2 rows and >= min_cols shared columns as
 * multi-row tiles, everything else into the remainder CSR. m_block should
 * be the mask pattern's M (16 for 4:16) so blocks align with the code
 * groups; any value in [2, 32] is accepted and merely changes which
 * structure gets discovered. min_cols keeps tiles long enough to amortize
 * their per-panel accumulator setup against short shared patterns.
 * Deterministic: bucket order is first appearance within a block (its
 * ascending first column), blocks ascend. Sort-free: two passes over each
 * block's entries plus one hash lookup per column a block's rows share,
 * so the cost is O(nnz) plus a cols/64-word bitmap scan per block.
 * Validates `rows` (and the derived remainder) as a side effect; panics
 * if `rows` is malformed.
 */
GroupedSparseMatrix groupSparseRows(SparseRowMatrix rows,
                                    std::int64_t m_block = 16,
                                    std::int64_t min_cols =
                                        kSparseTileMinCols);

/**
 * Grouped-operand forms of the sparse-A gemm entry points. With the
 * multi-row path enabled (default) and tiles present, the blocked driver
 * walks buckets instead of rows: per (jc, k0) block each band's tiles run
 * through the per-ISA multi-row micro-kernel (one shared B-row load per
 * tile) and the remainder rows through the single-row kernel, in a fixed
 * order per C element — bit-identical for any thread count within an
 * ISA. With MVQ_SPARSE_MULTIROW=0 (or no tiles) these forward to the
 * SparseRowMatrix overloads on a.rows, reproducing the single-row path
 * bit-for-bit.
 */
void gemmSparseA(const GroupedSparseMatrix &a, const Tensor &b, Tensor &c,
                 float alpha = 1.0f, float beta = 0.0f);

/** Raw-pointer form of the grouped gemmSparseA (see gemmSparseARaw). */
void gemmSparseARaw(const GroupedSparseMatrix &a, const float *b,
                    std::int64_t ldb, std::int64_t n, float alpha,
                    float beta, float *c, std::int64_t ldc);

/**
 * Sparse-A GEMM: C = alpha * A * B + beta * C with A in compressed-row
 * form and B/C dense. Runs the same KC/NC cache-blocked, B-panel-packed
 * driver as gemm(), but the A side consumes the compressed rows directly:
 * only kept entries are walked, their column indices steering the per-ISA
 * sparse micro-kernel (simd::Kernels::gemmSparseMicroKernel) to the
 * matching packed B rows. Flops scale with nnz, so a 4:16 operand does
 * ~1/4 the multiplies of the dense path. Deterministic across thread
 * counts within an ISA, like gemm().
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
 * ISA-agnostic (plain C++, nr is a runtime parameter) and parallel over
 * panel columns; panels write disjoint bp regions so the parallel split
 * never affects the packed bytes. Panics on non-positive output dims,
 * like im2col.
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
 * Grouped-operand form of gemmSparseAIm2col: the multi-row bucket walk
 * with B panels packed straight from the input image. Falls back to the
 * single-row fused path (bit-identical) when multi-row is disabled or the
 * operand has no tiles.
 */
void gemmSparseAIm2col(const GroupedSparseMatrix &a, const Im2colB &b,
                       float alpha, float beta, float *c, std::int64_t ldc);

/**
 * Whether the grouped sparse gemm entry points use the multi-row tile
 * path (default) or forward everything to the single-row kernels. First
 * call reads `MVQ_SPARSE_MULTIROW` (0/off disables); the disabled setting
 * reproduces the ungrouped entry points bit-identically per ISA — the
 * knob exists for A/B perf comparison and as a debug fallback.
 */
bool sparseMultiRowEnabled();

/** Programmatic override of sparseMultiRowEnabled (tests/benches). */
void setSparseMultiRowEnabled(bool on);

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
