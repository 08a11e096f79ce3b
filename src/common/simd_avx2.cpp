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
static_assert(MR <= kMaxGemmMr && NR <= kMaxGemmNr);

/**
 * 6x16 register tile: 12 accumulator ymm + 2 B vectors + 1 A broadcast
 * stays within the 16 architectural registers. Packed layouts match the
 * scalar kernel (ap[kk*6 + r], bp[kk*16 + c]).
 */
void
gemmMicroAvx2(const float *ap, const float *bp, std::int64_t kc, float *acc)
{
    __m256 c[MR][2];
    for (std::int64_t r = 0; r < MR; ++r) {
        c[r][0] = _mm256_loadu_ps(acc + r * NR);
        c[r][1] = _mm256_loadu_ps(acc + r * NR + 8);
    }
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bp + kk * NR);
        const __m256 b1 = _mm256_loadu_ps(bp + kk * NR + 8);
        const float *arow = ap + kk * MR;
        for (std::int64_t r = 0; r < MR; ++r) {
            const __m256 a = _mm256_broadcast_ss(arow + r);
            c[r][0] = _mm256_fmadd_ps(a, b0, c[r][0]);
            c[r][1] = _mm256_fmadd_ps(a, b1, c[r][1]);
        }
    }
    for (std::int64_t r = 0; r < MR; ++r) {
        _mm256_storeu_ps(acc + r * NR, c[r][0]);
        _mm256_storeu_ps(acc + r * NR + 8, c[r][1]);
    }
}

/**
 * Sparse-A row x packed-B-panel kernel. Unlike the dense tile (12
 * independent accumulator chains), one compressed row has no mr
 * dimension to hide FMA latency behind, so the accumulators are striped
 * 4-way across *entries*: entry q feeds chain q % 4, giving 8 independent
 * FMA chains (4 stripes x 2 halves of the 16-wide panel); the stripes
 * fold together at the end. Each kept A entry broadcasts once and FMAs
 * against its matching packed B row — pruned positions cost nothing.
 */
void
gemmSparseMicroAvx2(const float *vals, const std::int32_t *kidx,
                    std::int64_t nnz, std::int64_t k0, const float *bp,
                    std::int64_t /*nr*/, float *acc)
{
    __m256 c0[4], c1[4];
    c0[0] = _mm256_loadu_ps(acc);
    c1[0] = _mm256_loadu_ps(acc + 8);
    for (int u = 1; u < 4; ++u) {
        c0[u] = _mm256_setzero_ps();
        c1[u] = _mm256_setzero_ps();
    }
    std::int64_t q = 0;
    for (; q + 4 <= nnz; q += 4) {
        for (int u = 0; u < 4; ++u) {
            const __m256 v = _mm256_broadcast_ss(vals + q + u);
            const float *brow = bp + (kidx[q + u] - k0) * NR;
            c0[u] = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow), c0[u]);
            c1[u] = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow + 8), c1[u]);
        }
    }
    for (; q < nnz; ++q) {
        const __m256 v = _mm256_broadcast_ss(vals + q);
        const float *brow = bp + (kidx[q] - k0) * NR;
        c0[0] = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow), c0[0]);
        c1[0] = _mm256_fmadd_ps(v, _mm256_loadu_ps(brow + 8), c1[0]);
    }
    _mm256_storeu_ps(acc,
                     _mm256_add_ps(_mm256_add_ps(c0[0], c0[1]),
                                   _mm256_add_ps(c0[2], c0[3])));
    _mm256_storeu_ps(acc + 8,
                     _mm256_add_ps(_mm256_add_ps(c1[0], c1[1]),
                                   _mm256_add_ps(c1[2], c1[3])));
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
    Isa::Avx2, "avx2", MR, NR, &gemmMicroAvx2, &gemmSparseMicroAvx2,
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
