/**
 * @file
 * Runtime SIMD dispatch for the hot kernels. One portable binary carries a
 * scalar path plus per-ISA translation units (AVX2/FMA on x86-64, NEON on
 * aarch64) compiled with per-file arch flags; the active table is resolved
 * once at startup from CPU feature detection (cpuid on x86, compile-time
 * on aarch64) with an `MVQ_SIMD=scalar|avx2|neon` environment override.
 *
 * Detection order: MVQ_SIMD override (falling back with a warning when the
 * requested ISA is unavailable on this host/build), then NEON (baseline on
 * aarch64), then AVX2+FMA (requires OS YMM state via xgetbv), then scalar.
 *
 * Determinism: the dispatch choice never affects parallel chunking, so the
 * bit-identical-across-thread-counts contract (see common/parallel.hpp)
 * holds *within* any given ISA. Different ISAs reorder floating-point
 * accumulation and may differ in final ULPs; tests/simd_dispatch_test.cpp
 * pins the cross-ISA tolerance.
 */

#ifndef MVQ_COMMON_SIMD_DISPATCH_HPP
#define MVQ_COMMON_SIMD_DISPATCH_HPP

#include <cstdint>

namespace mvq::simd {

/** Instruction-set architectures a build can carry kernels for. */
enum class Isa
{
    Scalar = 0, //!< portable C++ (whatever the baseline arch flags allow)
    Avx2 = 1,   //!< x86-64 AVX2 + FMA, runtime-detected via cpuid
    Neon = 2,   //!< aarch64 Advanced SIMD (baseline on that target)
};

/** Upper bounds on the dense micro-kernel's register tile (mr x nr)
 *  across all ISAs; the dense drivers size their on-stack accumulators
 *  with these. The sparse kernel's tile width has its own bound. */
constexpr std::int64_t kMaxGemmMr = 8;
constexpr std::int64_t kMaxGemmNr = 16;
/** Upper bound on any table's sparse tile width (sparse_nr); the sparse
 *  driver and the scalar sparse kernel size their accumulators with it. */
constexpr std::int64_t kMaxSparseNr = 32;

/**
 * Cache-blocking parameters of the dense drivers in tensor/ops.cpp. Each
 * packs one MC x KC block of op(A) into mr-row panels. The matrix gemm
 * also packs one KC x NC block of op(B) into nr-column panels (a panel is
 * kGemmKC x nr floats at most); the dense conv packs no B and reads the
 * padded input in place, walking its K blocks inside each task. The
 * sparse-A driver packs nothing, runs the whole reduction in one kernel
 * call per (row, tile), and shares only MC, its row-block height.
 * Exposed here because the tests and benches that pick shapes
 * straddling block boundaries need the constants the drivers block with.
 */
constexpr std::int64_t kGemmMC = 64;   //!< rows of C per packed A block
constexpr std::int64_t kGemmKC = 256;  //!< depth of one packed K block
constexpr std::int64_t kGemmNC = 2048; //!< columns of C per packed B block

/**
 * One ISA's kernel table. All function pointers are non-null; ISAs without
 * a native variant of some kernel point at the scalar implementation.
 */
struct Kernels
{
    Isa isa;
    const char *name; //!< "scalar", "avx2", "neon"

    // --- GEMM register-tile micro-kernel --------------------------------
    std::int64_t mr; //!< rows of the dense register tile
    std::int64_t nr; //!< columns of the dense register tile (lanes)
    /**
     * acc[mr x nr, row stride nr] = Ap panel * B over kc steps, the tile
     * overwritten. The driver packs A as ap[kk*mr + r] (alpha
     * pre-applied, zero rows past the tile edge); B row kk is the nr
     * floats at base + off[kk]. The dense conv passes the tile's start in
     * the padded input and its per-call table of int32 offsets (one per
     * im2col row, from the K block's first); the matrix gemm passes a
     * packed B panel with off[kk] = kk*nr. Per-lane order: acc[r*nr + c]
     * starts from 0 and takes kk = 0, 1, ..., kc - 1 in ascending order,
     * one multiply-add each (fused in the AVX2 and NEON kernels; the
     * scalar kernel's c += a * b fuses only where the compiler contracts
     * it), so a lane's result depends on nothing but its own column of B;
     * simd_dispatch_test pins the AVX2 order bit for bit.
     */
    void (*gemmMicroKernel)(const float *ap, const float *base,
                            const std::int32_t *off, std::int64_t kc,
                            float *acc);

    // --- Sparse-A row micro-kernel -------------------------------------
    /** Lanes of the sparse kernel: the sparse driver tiles its output
     *  grid and scatters C at this width (<= kMaxSparseNr). A row has no
     *  mr dimension, so the width is chosen for the kernel alone: wider
     *  tiles amortize each kept entry's index loads and broadcast over
     *  more FMAs (scalar 8, NEON 16, AVX2 32). */
    std::int64_t sparse_nr;
    /**
     * Sparse-A kernel for the direct sparse driver (tensor/ops.cpp): one
     * compressed row of A meets one tile of nr output grid positions. The
     * row's nnz kept entries arrive as values vals[] with column indices
     * kidx[]; entry q's nr inputs are the contiguous run
     * base[off[kidx[q]] + c], c in [0, nr), where off is the driver's
     * per-call offset table (one int32 per im2col row) and base the
     * tile's start in the padded input. The kernel accumulates
     * acc[c] += vals[q] * base[off[kidx[q]] + c] over the nnz entries. nr
     * is passed explicitly so one scalar implementation can serve tables
     * with different widths.
     *
     * Per-lane order: every kernel stripes the entries 2-way. Stripe 0
     * starts from acc[c] and takes the even entries q = 0, 2, 4, ...;
     * stripe 1 starts from 0 and takes the odd ones; an odd tail entry
     * goes to stripe 0. In the AVX2 and NEON kernels each entry is one
     * fused multiply-add into its stripe (the scalar kernel's s += v * b
     * fuses only where the compiler contracts it), and lane c returns
     * stripe0 + stripe1. The order depends on nothing but the row's
     * entries, so the result is the same whichever thread or task runs
     * the (row, tile) pair; simd_dispatch_test pins the AVX2 order bit
     * for bit.
     */
    void (*gemmSparseMicroKernel)(const float *vals, const std::int32_t *kidx,
                                  std::int64_t nnz, const std::int32_t *off,
                                  const float *base, std::int64_t nr,
                                  float *acc);

    // --- Masked-assignment distance kernels (core/masked_kmeans) --------
    //
    // Both variants receive the codebook twice: row-major cb[i*d + t] and
    // transposed cbT[t*k + i]. Vector paths stride the transposed layout
    // to evaluate a full lane-width of codewords per instruction — no
    // gathers, no per-codeword horizontal sums — and fall back to cb for
    // the k % lanes tail; the scalar kernels ignore cbT. Ties resolve to
    // the lowest codeword index, matching the scalar first-minimum scan
    // (FMA contraction can still round a near-exact tie differently in
    // the last ULP across ISAs; cross-ISA agreement is a tested property
    // on real data, not a bitwise guarantee).
    /**
     * Full-row branchless variant: return the index i in [0, k) minimizing
     * sum_t mrow[t] * (wrow[t] - cb[i*d + t])^2 (first minimum wins).
     */
    std::int32_t (*assignBestDense)(const float *wrow, const float *mrow,
                                    const float *cb, const float *cbT,
                                    std::int64_t k, std::int64_t d);
    /**
     * Sparse compressed-row variant: the row's nk kept positions arrive as
     * ascending column indices idx[] with values wkeep[]. Returns the
     * index minimizing sum_q (wkeep[q] - cb[i*d + idx[q]])^2 over the
     * kept positions.
     */
    std::int32_t (*assignBestSparse)(const float *wkeep,
                                     const std::int32_t *idx,
                                     std::int64_t nk, const float *cb,
                                     const float *cbT, std::int64_t k,
                                     std::int64_t d);
};

/** @return true when this build carries the ISA and the CPU/OS supports it. */
bool isaAvailable(Isa isa);

/** Best ISA this host can run, ignoring any override: the detection order
 *  documented at the top of this file minus the env knob. */
Isa bestAvailableIsa();

/** Human-readable ISA name ("scalar", "avx2", "neon"). */
const char *isaName(Isa isa);

/**
 * The active kernel table. First call resolves the choice (env override,
 * then detection), logs it once via common/logging, and caches it; later
 * calls are a single atomic load. Thread-safe.
 */
const Kernels &kernels();

/** ISA of the active kernel table. */
Isa activeIsa();

/**
 * Programmatic override (the in-process form of MVQ_SIMD, used by tests
 * and benches to force a path). Returns false — leaving the active table
 * unchanged — when the ISA is unavailable. Call between kernel
 * invocations only; switching mid-gemm is undefined.
 */
bool setIsa(Isa isa);

// ----------------------------------------------------------------- internal
// Per-ISA registration, linked from the per-arch translation units. Each
// accessor returns nullptr when the build does not carry that ISA (e.g.
// the AVX2 TU compiles to a stub on aarch64). Not part of the public API.
const Kernels &scalarKernels();
const Kernels *avx2KernelsOrNull();
const Kernels *neonKernelsOrNull();

} // namespace mvq::simd

#endif // MVQ_COMMON_SIMD_DISPATCH_HPP
