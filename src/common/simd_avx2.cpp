/**
 * @file
 * AVX2/FMA kernel table. This translation unit is compiled with
 * `-mavx2 -mfma` via per-file flags in CMakeLists.txt (x86-64 targets
 * only), so the rest of the library keeps the portable baseline arch and
 * one binary carries both paths; simd_dispatch.cpp only calls in here
 * after cpuid confirms the host executes AVX2+FMA. On non-x86 targets the
 * whole TU compiles to a stub returning nullptr.
 */

#include "common/simd_dispatch.hpp"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <limits>

namespace mvq::simd {

namespace {

constexpr std::int64_t MR = 6;
constexpr std::int64_t NR = 16;
constexpr std::int64_t SNR = 32;
static_assert(MR <= kMaxGemmMr && NR <= kMaxGemmNr && SNR <= kMaxSparseNr);

/**
 * 6x16 register tile: 12 accumulator ymm + 2 B vectors + 1 A broadcast
 * stays within the 16 architectural registers. The accumulators are
 * named, not an array: gcc 12 kept a __m256 c[6][2] on the stack and
 * stored all 12 of them on every kk step. B row kk is the 16 floats at
 * base + off[kk] (a tile of the padded input, or a packed panel).
 */
void
gemmMicroAvx2(const float *ap, const float *base, const std::int32_t *off,
              std::int64_t kc, float *acc)
{
    __m256 c00 = _mm256_setzero_ps(), c01 = c00, c10 = c00, c11 = c00;
    __m256 c20 = c00, c21 = c00, c30 = c00, c31 = c00;
    __m256 c40 = c00, c41 = c00, c50 = c00, c51 = c00;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float *brow = base + off[kk];
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        // Tile row r: one A broadcast feeds its two accumulators.
        auto row = [&](std::int64_t r, __m256 &lo, __m256 &hi) {
            const __m256 a = _mm256_broadcast_ss(ap + kk * MR + r);
            lo = _mm256_fmadd_ps(a, b0, lo);
            hi = _mm256_fmadd_ps(a, b1, hi);
        };
        row(0, c00, c01);
        row(1, c10, c11);
        row(2, c20, c21);
        row(3, c30, c31);
        row(4, c40, c41);
        row(5, c50, c51);
    }
    _mm256_storeu_ps(acc + 0 * NR, c00);
    _mm256_storeu_ps(acc + 0 * NR + 8, c01);
    _mm256_storeu_ps(acc + 1 * NR, c10);
    _mm256_storeu_ps(acc + 1 * NR + 8, c11);
    _mm256_storeu_ps(acc + 2 * NR, c20);
    _mm256_storeu_ps(acc + 2 * NR + 8, c21);
    _mm256_storeu_ps(acc + 3 * NR, c30);
    _mm256_storeu_ps(acc + 3 * NR + 8, c31);
    _mm256_storeu_ps(acc + 4 * NR, c40);
    _mm256_storeu_ps(acc + 4 * NR + 8, c41);
    _mm256_storeu_ps(acc + 5 * NR, c50);
    _mm256_storeu_ps(acc + 5 * NR + 8, c51);
}

/**
 * Sparse-A row x input-tile kernel, 1x32. One compressed row has no
 * mr dimension to hide FMA latency behind, so the entries stripe 2-way
 * (even entries and an odd tail into stripe 0, odd entries into stripe
 * 1) over four 8-lane groups: 8 independent FMA chains, folded per lane
 * as stripe0 + stripe1 (the order the kernel contract in
 * simd_dispatch.hpp documents). Each kept A entry's two index loads and
 * broadcast feed four FMAs against one contiguous 128-byte run of the
 * padded input, and pruned positions cost nothing. Named accumulators,
 * not an array, so they stay in registers: 8 accumulators + 2
 * broadcasts fit in 16 ymm.
 */
void
gemmSparseMicroAvx2(const float *vals, const std::int32_t *kidx,
                    std::int64_t nnz, const std::int32_t *off,
                    const float *base, float *acc)
{
    __m256 e0 = _mm256_setzero_ps();
    __m256 e1 = _mm256_setzero_ps();
    __m256 e2 = _mm256_setzero_ps();
    __m256 e3 = _mm256_setzero_ps();
    __m256 o0 = _mm256_setzero_ps();
    __m256 o1 = _mm256_setzero_ps();
    __m256 o2 = _mm256_setzero_ps();
    __m256 o3 = _mm256_setzero_ps();
    std::int64_t q = 0;
    for (; q + 2 <= nnz; q += 2) {
        const __m256 ve = _mm256_broadcast_ss(vals + q);
        const __m256 vo = _mm256_broadcast_ss(vals + q + 1);
        const float *be = base + off[kidx[q]];
        const float *bo = base + off[kidx[q + 1]];
        e0 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be), e0);
        e1 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 8), e1);
        e2 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 16), e2);
        e3 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 24), e3);
        o0 = _mm256_fmadd_ps(vo, _mm256_loadu_ps(bo), o0);
        o1 = _mm256_fmadd_ps(vo, _mm256_loadu_ps(bo + 8), o1);
        o2 = _mm256_fmadd_ps(vo, _mm256_loadu_ps(bo + 16), o2);
        o3 = _mm256_fmadd_ps(vo, _mm256_loadu_ps(bo + 24), o3);
    }
    if (q < nnz) {
        const __m256 ve = _mm256_broadcast_ss(vals + q);
        const float *be = base + off[kidx[q]];
        e0 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be), e0);
        e1 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 8), e1);
        e2 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 16), e2);
        e3 = _mm256_fmadd_ps(ve, _mm256_loadu_ps(be + 24), e3);
    }
    _mm256_storeu_ps(acc, _mm256_add_ps(e0, o0));
    _mm256_storeu_ps(acc + 8, _mm256_add_ps(e1, o1));
    _mm256_storeu_ps(acc + 16, _mm256_add_ps(e2, o2));
    _mm256_storeu_ps(acc + 24, _mm256_add_ps(e3, o3));
}

/**
 * Track the running 8-lane minimum: lane u of (vbest, vbi) holds the best
 * distance and its codeword index among strips processed so far. Strictly-
 * less blending keeps the earliest index within a lane, matching the
 * scalar first-minimum scan.
 */
inline void
argminStep(__m256 s, __m256i curi, __m256 &vbest, __m256i &vbi)
{
    const __m256 lt = _mm256_cmp_ps(s, vbest, _CMP_LT_OQ);
    vbest = _mm256_blendv_ps(vbest, s, lt);
    vbi = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(vbi), _mm256_castsi256_ps(curi), lt));
}

/**
 * Fold the 8 lanes to one (value, index), then continue the scan over the
 * scalar tail [k8, k) against the row-major codebook. Lane ties resolve to
 * the lower codeword index so results match the scalar kernels exactly.
 */
std::int32_t
argminFinish(__m256 vbest, __m256i vbi, float &best)
{
    float bv[8];
    std::int32_t bi[8];
    _mm256_storeu_ps(bv, vbest);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(bi), vbi);
    best = bv[0];
    std::int32_t best_i = bi[0];
    for (int u = 1; u < 8; ++u) {
        if (bv[u] < best || (bv[u] == best && bi[u] < best_i)) {
            best = bv[u];
            best_i = bi[u];
        }
    }
    return best_i;
}

// NOTE: no file-scope __m256 constants — a dynamic initializer in this TU
// would execute AVX instructions at program load, before the cpuid gate.
std::int32_t
assignBestDenseAvx2(const float *wrow, const float *mrow, const float *cb,
                    const float *cbT, std::int64_t k, std::int64_t d)
{
    // Each 8-lane strip of the transposed codebook evaluates 8 codewords
    // at once: broadcast one (weight, mask) position, load the codeword
    // strip at that position, accumulate the masked squared difference.
    const std::int64_t k8 = k - k % 8;
    const __m256i kLaneIota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256 vbest = _mm256_set1_ps(std::numeric_limits<float>::max());
    __m256i vbi = _mm256_setzero_si256();
    for (std::int64_t i = 0; i < k8; i += 8) {
        __m256 s = _mm256_setzero_ps();
        for (std::int64_t t = 0; t < d; ++t) {
            const __m256 df = _mm256_sub_ps(
                _mm256_broadcast_ss(wrow + t),
                _mm256_loadu_ps(cbT + t * k + i));
            const __m256 dm =
                _mm256_mul_ps(df, _mm256_broadcast_ss(mrow + t));
            s = _mm256_fmadd_ps(dm, df, s);
        }
        const __m256i curi = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<int>(i)), kLaneIota);
        argminStep(s, curi, vbest, vbi);
    }

    float best;
    std::int32_t best_i = argminFinish(vbest, vbi, best);
    for (std::int64_t i = k8; i < k; ++i) {
        const float *crow = cb + i * d;
        float s = 0.0f;
        for (std::int64_t t = 0; t < d; ++t) {
            const float diff = wrow[t] - crow[t];
            s += mrow[t] * diff * diff;
        }
        if (s < best) {
            best = s;
            best_i = static_cast<std::int32_t>(i);
        }
    }
    return best_i;
}

std::int32_t
assignBestSparseAvx2(const float *wkeep, const std::int32_t *idx,
                     std::int64_t nk, const float *cb, const float *cbT,
                     std::int64_t k, std::int64_t d)
{
    // Same strip walk as the dense kernel, but only the nk kept positions
    // contribute — the transposed layout turns the compressed-row scan
    // into contiguous loads (no gathers, no per-codeword horizontal sums).
    const std::int64_t k8 = k - k % 8;
    const __m256i kLaneIota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256 vbest = _mm256_set1_ps(std::numeric_limits<float>::max());
    __m256i vbi = _mm256_setzero_si256();
    for (std::int64_t i = 0; i < k8; i += 8) {
        __m256 s = _mm256_setzero_ps();
        for (std::int64_t q = 0; q < nk; ++q) {
            const __m256 df = _mm256_sub_ps(
                _mm256_broadcast_ss(wkeep + q),
                _mm256_loadu_ps(cbT + idx[q] * k + i));
            s = _mm256_fmadd_ps(df, df, s);
        }
        const __m256i curi = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<int>(i)), kLaneIota);
        argminStep(s, curi, vbest, vbi);
    }

    float best;
    std::int32_t best_i = argminFinish(vbest, vbi, best);
    for (std::int64_t i = k8; i < k; ++i) {
        const float *crow = cb + i * d;
        float s = 0.0f;
        for (std::int64_t q = 0; q < nk; ++q) {
            const float diff = wkeep[q] - crow[idx[q]];
            s += diff * diff;
        }
        if (s < best) {
            best = s;
            best_i = static_cast<std::int32_t>(i);
        }
    }
    return best_i;
}

constexpr Kernels kAvx2Kernels = {
    Isa::Avx2, "avx2", MR, NR, &gemmMicroAvx2, SNR, &gemmSparseMicroAvx2,
    &assignBestDenseAvx2, &assignBestSparseAvx2,
};

} // namespace

const Kernels *
avx2KernelsOrNull()
{
    return &kAvx2Kernels;
}

} // namespace mvq::simd

#else // non-x86 target or TU built without AVX2+FMA flags

namespace mvq::simd {

const Kernels *
avx2KernelsOrNull()
{
    return nullptr;
}

} // namespace mvq::simd

#endif
