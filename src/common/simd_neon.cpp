/**
 * @file
 * NEON (aarch64 Advanced SIMD) kernel table. NEON is baseline on aarch64,
 * so no per-file flags are needed — the TU gates itself on the target and
 * compiles to a stub elsewhere. The CI aarch64 cross-compile job keeps
 * this path building even though the x86 test hosts never execute it.
 */

#include "common/simd_dispatch.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <limits>

namespace mvq::simd {

namespace {

constexpr std::int64_t MR = 4;
constexpr std::int64_t NR = 16;
static_assert(MR <= kMaxGemmMr && NR <= kMaxGemmNr);

/**
 * 4x16 register tile: 16 accumulator q-regs + 1 B vector + 1 A vector.
 * vfmaq_laneq broadcasts one packed A lane per row, so the whole A column
 * loads once per kk step. The accumulators are named, not arrays, for
 * the reason the AVX2 kernel gives. B row kk is the 16 floats at
 * base + off[kk].
 */
void
gemmMicroNeon(const float *ap, const float *base, const std::int32_t *off,
              std::int64_t kc, float *acc)
{
    float32x4_t c00 = vdupq_n_f32(0.0f), c01 = c00, c02 = c00, c03 = c00;
    float32x4_t c10 = c00, c11 = c00, c12 = c00, c13 = c00;
    float32x4_t c20 = c00, c21 = c00, c22 = c00, c23 = c00;
    float32x4_t c30 = c00, c31 = c00, c32 = c00, c33 = c00;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float32x4_t a = vld1q_f32(ap + kk * MR);
        const float *brow = base + off[kk];
        // Tile columns [4v, 4v + 4): one B vector feeds all four rows.
        auto col = [&](std::int64_t v, float32x4_t &r0, float32x4_t &r1,
                       float32x4_t &r2, float32x4_t &r3) {
            const float32x4_t b = vld1q_f32(brow + 4 * v);
            r0 = vfmaq_laneq_f32(r0, b, a, 0);
            r1 = vfmaq_laneq_f32(r1, b, a, 1);
            r2 = vfmaq_laneq_f32(r2, b, a, 2);
            r3 = vfmaq_laneq_f32(r3, b, a, 3);
        };
        col(0, c00, c10, c20, c30);
        col(1, c01, c11, c21, c31);
        col(2, c02, c12, c22, c32);
        col(3, c03, c13, c23, c33);
    }
    vst1q_f32(acc + 0 * NR + 0, c00);
    vst1q_f32(acc + 0 * NR + 4, c01);
    vst1q_f32(acc + 0 * NR + 8, c02);
    vst1q_f32(acc + 0 * NR + 12, c03);
    vst1q_f32(acc + 1 * NR + 0, c10);
    vst1q_f32(acc + 1 * NR + 4, c11);
    vst1q_f32(acc + 1 * NR + 8, c12);
    vst1q_f32(acc + 1 * NR + 12, c13);
    vst1q_f32(acc + 2 * NR + 0, c20);
    vst1q_f32(acc + 2 * NR + 4, c21);
    vst1q_f32(acc + 2 * NR + 8, c22);
    vst1q_f32(acc + 2 * NR + 12, c23);
    vst1q_f32(acc + 3 * NR + 0, c30);
    vst1q_f32(acc + 3 * NR + 4, c31);
    vst1q_f32(acc + 3 * NR + 8, c32);
    vst1q_f32(acc + 3 * NR + 12, c33);
}

/**
 * Sparse-A row x input-tile kernel: four q-reg accumulators cover the
 * 16-wide tile, striped 2-way across entries (entry q feeds stripe
 * q % 2) so eight independent FMA chains hide the accumulate latency a
 * single compressed row cannot hide with an mr dimension; the stripes
 * fold at the end. Each kept A entry broadcasts once (vfmaq_n) against
 * its contiguous run of the padded input, so pruned positions cost
 * nothing at all.
 */
void
gemmSparseMicroNeon(const float *vals, const std::int32_t *kidx,
                    std::int64_t nnz, const std::int32_t *off,
                    const float *base, std::int64_t /*nr*/, float *acc)
{
    float32x4_t c0[4], c1[4];
    for (int v = 0; v < 4; ++v) {
        c0[v] = vld1q_f32(acc + 4 * v);
        c1[v] = vdupq_n_f32(0.0f);
    }
    std::int64_t q = 0;
    for (; q + 2 <= nnz; q += 2) {
        const float a0 = vals[q];
        const float a1 = vals[q + 1];
        const float *b0 = base + off[kidx[q]];
        const float *b1 = base + off[kidx[q + 1]];
        for (int v = 0; v < 4; ++v) {
            c0[v] = vfmaq_n_f32(c0[v], vld1q_f32(b0 + 4 * v), a0);
            c1[v] = vfmaq_n_f32(c1[v], vld1q_f32(b1 + 4 * v), a1);
        }
    }
    if (q < nnz) {
        const float av = vals[q];
        const float *brow = base + off[kidx[q]];
        for (int v = 0; v < 4; ++v)
            c0[v] = vfmaq_n_f32(c0[v], vld1q_f32(brow + 4 * v), av);
    }
    for (int v = 0; v < 4; ++v)
        vst1q_f32(acc + 4 * v, vaddq_f32(c0[v], c1[v]));
}

/**
 * Track the running 4-lane minimum: lane u of (vbest, vbi) holds the best
 * distance and its codeword index among strips processed so far. Strictly-
 * less blending keeps the earliest index within a lane, matching the
 * scalar first-minimum scan.
 */
inline void
argminStep(float32x4_t s, int32x4_t curi, float32x4_t &vbest,
           int32x4_t &vbi)
{
    const uint32x4_t lt = vcltq_f32(s, vbest);
    vbest = vbslq_f32(lt, s, vbest);
    vbi = vbslq_s32(lt, curi, vbi);
}

/**
 * Fold the 4 lanes to one (value, index); lane ties resolve to the lower
 * codeword index so results match the scalar kernels exactly.
 */
std::int32_t
argminFinish(float32x4_t vbest, int32x4_t vbi, float &best)
{
    float bv[4];
    std::int32_t bi[4];
    vst1q_f32(bv, vbest);
    vst1q_s32(bi, vbi);
    best = bv[0];
    std::int32_t best_i = bi[0];
    for (int u = 1; u < 4; ++u) {
        if (bv[u] < best || (bv[u] == best && bi[u] < best_i)) {
            best = bv[u];
            best_i = bi[u];
        }
    }
    return best_i;
}

const int32x4_t kLaneIota = {0, 1, 2, 3};

std::int32_t
assignBestDenseNeon(const float *wrow, const float *mrow, const float *cb,
                    const float *cbT, std::int64_t k, std::int64_t d)
{
    // Each 4-lane strip of the transposed codebook evaluates 4 codewords
    // at once: broadcast one (weight, mask) position, load the codeword
    // strip at that position, accumulate the masked squared difference.
    const std::int64_t k4 = k - k % 4;
    float32x4_t vbest = vdupq_n_f32(std::numeric_limits<float>::max());
    int32x4_t vbi = vdupq_n_s32(0);
    for (std::int64_t i = 0; i < k4; i += 4) {
        float32x4_t s = vdupq_n_f32(0.0f);
        for (std::int64_t t = 0; t < d; ++t) {
            const float32x4_t df = vsubq_f32(
                vdupq_n_f32(wrow[t]), vld1q_f32(cbT + t * k + i));
            s = vfmaq_f32(s, vmulq_f32(df, vdupq_n_f32(mrow[t])), df);
        }
        const int32x4_t curi =
            vaddq_s32(vdupq_n_s32(static_cast<std::int32_t>(i)), kLaneIota);
        argminStep(s, curi, vbest, vbi);
    }

    float best;
    std::int32_t best_i = argminFinish(vbest, vbi, best);
    for (std::int64_t i = k4; i < k; ++i) {
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
assignBestSparseNeon(const float *wkeep, const std::int32_t *idx,
                     std::int64_t nk, const float *cb, const float *cbT,
                     std::int64_t k, std::int64_t d)
{
    // Same strip walk as the dense kernel, but only the nk kept positions
    // contribute — the transposed layout turns the compressed-row scan
    // into contiguous loads.
    const std::int64_t k4 = k - k % 4;
    float32x4_t vbest = vdupq_n_f32(std::numeric_limits<float>::max());
    int32x4_t vbi = vdupq_n_s32(0);
    for (std::int64_t i = 0; i < k4; i += 4) {
        float32x4_t s = vdupq_n_f32(0.0f);
        for (std::int64_t q = 0; q < nk; ++q) {
            const float32x4_t df = vsubq_f32(
                vdupq_n_f32(wkeep[q]), vld1q_f32(cbT + idx[q] * k + i));
            s = vfmaq_f32(s, df, df);
        }
        const int32x4_t curi =
            vaddq_s32(vdupq_n_s32(static_cast<std::int32_t>(i)), kLaneIota);
        argminStep(s, curi, vbest, vbi);
    }

    float best;
    std::int32_t best_i = argminFinish(vbest, vbi, best);
    for (std::int64_t i = k4; i < k; ++i) {
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

constexpr Kernels kNeonKernels = {
    Isa::Neon, "neon", MR, NR, &gemmMicroNeon, NR, &gemmSparseMicroNeon,
    &assignBestDenseNeon, &assignBestSparseNeon,
};

} // namespace

const Kernels *
neonKernelsOrNull()
{
    return &kNeonKernels;
}

} // namespace mvq::simd

#else // non-aarch64 target

namespace mvq::simd {

const Kernels *
neonKernelsOrNull()
{
    return nullptr;
}

} // namespace mvq::simd

#endif
