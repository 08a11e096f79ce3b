/**
 * @file
 * SIMD runtime-dispatch coverage: detection sanity, forced-scalar
 * bit-exactness against the gemmReference oracle, scalar-vs-vector parity
 * for every ISA this host can execute (all four gemm transpose cases
 * within tolerance), and cross-ISA agreement of masked k-means
 * assignments on N:M-masked inputs through both the sparse compressed-row
 * and full-row dense kernel variants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/masked_kmeans.hpp"
#include "core/nm_pruning.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

using simd::Isa;

/** Restore whatever kernel table was active (startup resolution may have
 *  honoured an MVQ_SIMD override) when a test ends. */
struct IsaGuard
{
    simd::Isa saved = simd::activeIsa();
    ~IsaGuard() { simd::setIsa(saved); }
};

std::vector<Isa>
availableIsas()
{
    std::vector<Isa> out;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (simd::isaAvailable(isa))
            out.push_back(isa);
    }
    return out;
}

Tensor
randomMat(Rng &rng, std::int64_t r, std::int64_t c)
{
    Tensor t(Shape({r, c}));
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

TEST(SimdDispatch, DetectionSanity)
{
    IsaGuard guard;
    EXPECT_TRUE(simd::isaAvailable(Isa::Scalar));
    EXPECT_TRUE(simd::isaAvailable(simd::bestAvailableIsa()));
    EXPECT_TRUE(simd::isaAvailable(simd::activeIsa()));
    for (Isa isa : availableIsas()) {
        ASSERT_TRUE(simd::setIsa(isa));
        EXPECT_EQ(simd::activeIsa(), isa);
        EXPECT_STREQ(simd::kernels().name, simd::isaName(isa));
        EXPECT_GE(simd::kernels().mr, 1);
        EXPECT_LE(simd::kernels().mr, simd::kMaxGemmMr);
        EXPECT_GE(simd::kernels().nr, 1);
        EXPECT_LE(simd::kernels().nr, simd::kMaxGemmNr);
        EXPECT_GE(simd::kernels().sparse_nr, 1);
        EXPECT_LE(simd::kernels().sparse_nr, simd::kMaxSparseNr);
    }
    // An ISA this build/host can't run is refused and leaves the active
    // table untouched.
    simd::setIsa(Isa::Scalar);
    for (Isa isa : {Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa)) {
            EXPECT_FALSE(simd::setIsa(isa));
            EXPECT_EQ(simd::activeIsa(), Isa::Scalar);
        }
    }
}

TEST(SimdDispatch, ForcedScalarGemmBitExactVsReference)
{
    IsaGuard guard;
    ASSERT_TRUE(simd::setIsa(Isa::Scalar));

    // The scalar micro-kernel reproduces gemmReference's per-element
    // accumulation order exactly when a single KC block covers the whole
    // k dimension (k <= 256) and C is overwritten (the reference zeroes
    // C, the blocked path stores 0.0f + its sum) — so the blocked path
    // must be bit-identical, not merely close. Sizes exceed the
    // scalar-fallback MAC threshold so the packed path actually runs.
    for (auto [m, n, k] : {std::tuple<std::int64_t, std::int64_t,
                                      std::int64_t>{70, 66, 130},
                           {64, 64, 64}, {33, 129, 200}}) {
        ASSERT_GT(m * n * k, kGemmScalarFallbackMacs);
        Rng rng(99);
        Tensor a = randomMat(rng, m, k);
        Tensor b = randomMat(rng, k, n);
        Tensor c_ref(Shape({m, n}));
        Tensor c_opt(Shape({m, n}));
        gemmReference(a, false, b, false, c_ref);
        gemm(a, false, b, false, c_opt);
        EXPECT_EQ(0, std::memcmp(c_ref.data(), c_opt.data(),
                                 static_cast<std::size_t>(m * n)
                                     * sizeof(float)))
            << "m=" << m << " n=" << n << " k=" << k;
    }
}

/**
 * The AVX2 sparse kernel's per-lane accumulation order, bit for bit:
 * stripe 0 starts from 0 and takes the even entries and an odd tail,
 * stripe 1 starts from 0 and takes the odd entries, each entry one fused
 * multiply-add, and lane c returns stripe0 + stripe1, the tile
 * overwritten (the contract in simd_dispatch.hpp). Inputs span several
 * binades so a different order rounds differently; the test checks that
 * a single-chain order would have been caught.
 */
TEST(SimdDispatch, Avx2SparseKernelLaneOrder)
{
    if (!simd::isaAvailable(Isa::Avx2))
        GTEST_SKIP() << "avx2 not available on this host/build";
    IsaGuard guard;
    ASSERT_TRUE(simd::setIsa(Isa::Avx2));
    const simd::Kernels &kn = simd::kernels();
    ASSERT_EQ(kn.sparse_nr, 32);
    const std::int64_t nr = kn.sparse_nr;
    const std::int64_t k = 96;

    Rng rng(5);
    auto spread = [&rng] {
        return std::ldexp(rng.normal(0.0f, 1.0f),
                          static_cast<int>(rng.intIn(-6, 6)));
    };
    // Column col's nr inputs are base[off[col] + c]: runs at scattered,
    // overlapping, unaligned places of one buffer, as the direct conv's
    // offset table gives them.
    std::vector<float> input(static_cast<std::size_t>(3 + 7 * k + nr));
    for (float &x : input)
        x = spread();
    const float *base = input.data() + 3;
    std::vector<std::int32_t> off(static_cast<std::size_t>(k));
    for (std::int64_t col = 0; col < k; ++col)
        off[static_cast<std::size_t>(col)] =
            static_cast<std::int32_t>(col * 41 % (7 * k));

    bool order_matters = false;
    for (const std::int64_t nnz : {0, 1, 2, 3, 8, 33, 96}) {
        SCOPED_TRACE(testing::Message() << "nnz=" << nnz);
        // nnz ascending columns spread over [0, k).
        std::vector<std::int32_t> kidx;
        std::vector<float> vals;
        for (std::int64_t q = 0; q < nnz; ++q) {
            kidx.push_back(static_cast<std::int32_t>(q * k / nnz));
            vals.push_back(spread());
        }
        // NaN in, so a lane the kernel reads instead of overwriting shows.
        std::vector<float> got(static_cast<std::size_t>(nr),
                               std::numeric_limits<float>::quiet_NaN());
        kn.gemmSparseMicroKernel(vals.data(), kidx.data(), nnz, off.data(),
                                 base, got.data());

        std::vector<float> want(static_cast<std::size_t>(nr));
        for (std::int64_t c = 0; c < nr; ++c) {
            auto b = [&](std::int64_t q) {
                return base[off[static_cast<std::size_t>(
                                kidx[static_cast<std::size_t>(q)])]
                            + c];
            };
            float s0 = 0.0f;
            float s1 = 0.0f;
            float chain = 0.0f;
            for (std::int64_t q = 0; q < nnz; ++q) {
                const float v = vals[static_cast<std::size_t>(q)];
                if (q % 2 == 1)
                    s1 = std::fma(v, b(q), s1);
                else
                    s0 = std::fma(v, b(q), s0);
                chain = std::fma(v, b(q), chain);
            }
            want[static_cast<std::size_t>(c)] = s0 + s1;
            order_matters = order_matters
                || std::memcmp(&chain, &want[static_cast<std::size_t>(c)],
                               sizeof(float))
                    != 0;
        }
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 static_cast<std::size_t>(nr)
                                     * sizeof(float)));
    }
    EXPECT_TRUE(order_matters)
        << "inputs too tame: a single-chain order would also pass";
}

/**
 * The AVX2 dense kernel's per-lane accumulation order, bit for bit: lane
 * (r, c) starts from 0 and takes kk = 0, 1, ..., kc - 1 in ascending
 * order, each step one fused multiply-add of ap[kk*6 + r] and
 * base[off[kk] + c], and the tile overwrites acc (the contract in
 * simd_dispatch.hpp). B rows sit at scattered, overlapping, unaligned
 * places of one buffer, as the direct conv's offset table gives them.
 * Inputs span several binades so a different order rounds differently;
 * the test checks that a descending order would have been caught.
 */
TEST(SimdDispatch, Avx2DenseKernelLaneOrder)
{
    if (!simd::isaAvailable(Isa::Avx2))
        GTEST_SKIP() << "avx2 not available on this host/build";
    IsaGuard guard;
    ASSERT_TRUE(simd::setIsa(Isa::Avx2));
    const simd::Kernels &kn = simd::kernels();
    ASSERT_EQ(kn.mr, 6);
    ASSERT_EQ(kn.nr, 16);
    const std::int64_t mr = kn.mr;
    const std::int64_t nr = kn.nr;
    const std::int64_t span = 7 * 96;

    Rng rng(6);
    auto spread = [&rng] {
        return std::ldexp(rng.normal(0.0f, 1.0f),
                          static_cast<int>(rng.intIn(-6, 6)));
    };
    std::vector<float> input(static_cast<std::size_t>(3 + span + nr));
    for (float &x : input)
        x = spread();
    const float *base = input.data() + 3;

    bool order_matters = false;
    for (const std::int64_t kc : {0, 1, 2, 5, 96}) {
        SCOPED_TRACE(testing::Message() << "kc=" << kc);
        std::vector<std::int32_t> off(static_cast<std::size_t>(kc));
        for (std::int64_t kk = 0; kk < kc; ++kk)
            off[static_cast<std::size_t>(kk)] =
                static_cast<std::int32_t>(kk * 41 % span);
        std::vector<float> ap(static_cast<std::size_t>(kc * mr));
        for (float &x : ap)
            x = spread();
        std::vector<float> got(static_cast<std::size_t>(mr * nr),
                               std::numeric_limits<float>::quiet_NaN());
        kn.gemmMicroKernel(ap.data(), base, off.data(), kc, got.data());

        std::vector<float> want(static_cast<std::size_t>(mr * nr), 0.0f);
        for (std::int64_t r = 0; r < mr; ++r) {
            for (std::int64_t c = 0; c < nr; ++c) {
                auto step = [&](std::int64_t kk, float s) {
                    return std::fma(
                        ap[static_cast<std::size_t>(kk * mr + r)],
                        base[off[static_cast<std::size_t>(kk)] + c], s);
                };
                float &w = want[static_cast<std::size_t>(r * nr + c)];
                float descending = w;
                for (std::int64_t kk = 0; kk < kc; ++kk)
                    w = step(kk, w);
                for (std::int64_t kk = kc - 1; kk >= 0; --kk)
                    descending = step(kk, descending);
                order_matters = order_matters
                    || std::memcmp(&descending, &w, sizeof(float)) != 0;
            }
        }
        EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                                 static_cast<std::size_t>(mr * nr)
                                     * sizeof(float)));
    }
    EXPECT_TRUE(order_matters)
        << "inputs too tame: a descending order would also pass";
}

TEST(SimdDispatch, VectorGemmMatchesScalarAllTransposeCases)
{
    IsaGuard guard;
    const std::int64_t m = 67, n = 41, k = 300; // ragged tiles, 2 KC blocks
    for (Isa isa : availableIsas()) {
        if (isa == Isa::Scalar)
            continue;
        for (bool ta : {false, true}) {
            for (bool tb : {false, true}) {
                Rng rng(7);
                Tensor a = ta ? randomMat(rng, k, m) : randomMat(rng, m, k);
                Tensor b = tb ? randomMat(rng, n, k) : randomMat(rng, k, n);
                Tensor c0 = randomMat(rng, m, n);

                ASSERT_TRUE(simd::setIsa(Isa::Scalar));
                Tensor c_s = c0;
                gemm(a, ta, b, tb, c_s, /*accumulate=*/true);
                ASSERT_TRUE(simd::setIsa(isa));
                Tensor c_v = c0;
                gemm(a, ta, b, tb, c_v, /*accumulate=*/true);

                for (std::int64_t i = 0; i < m * n; ++i) {
                    const float denom =
                        std::max(1.0f, std::fabs(c_s[i]));
                    EXPECT_LE(std::fabs(c_s[i] - c_v[i]) / denom, 1e-4f)
                        << simd::isaName(isa) << " ta=" << ta
                        << " tb=" << tb << " elem " << i;
                }
            }
        }
    }
}

/** Run one maskedAssign sweep under the given ISA. */
std::vector<std::int32_t>
assignWithIsa(Isa isa, const Tensor &wr, const std::vector<float> &mask01,
              const Tensor &cb)
{
    EXPECT_TRUE(simd::setIsa(isa));
    std::vector<std::int32_t> assign(
        static_cast<std::size_t>(wr.dim(0)), 0);
    core::maskedAssign(wr, mask01, cb, assign);
    return assign;
}

TEST(SimdDispatch, MaskedAssignIdenticalAcrossIsas)
{
    IsaGuard guard;
    const std::int64_t ng = 2048;
    const std::int64_t k = 64;

    // 4:16 drives the sparse compressed-row kernel (4 * ratio <= 16);
    // 12:16 drives the full-row dense kernel (12 * ratio > 16).
    for (int keep : {4, 12}) {
        Rng rng(11);
        Tensor wr(Shape({ng, 16}));
        wr.fillNormal(rng, 0.0f, 1.0f);
        const core::Mask mask = core::nmMask(wr, core::NmPattern{keep, 16});
        core::applyMask(wr, mask);
        const std::vector<float> mask01 = core::maskToFloat(mask);
        Tensor cb(Shape({k, 16}));
        cb.fillNormal(rng, 0.0f, 1.0f);

        const bool sparse_path =
            keep * core::kAssignSparseKeepRatio <= 16;
        EXPECT_EQ(sparse_path, keep == 4);

        const auto ref = assignWithIsa(Isa::Scalar, wr, mask01, cb);
        for (Isa isa : availableIsas()) {
            if (isa == Isa::Scalar)
                continue;
            const auto got = assignWithIsa(isa, wr, mask01, cb);
            EXPECT_EQ(ref, got)
                << simd::isaName(isa) << " keep=" << keep
                << (sparse_path ? " (sparse path)" : " (dense path)");
        }
    }
}

TEST(SimdDispatch, MaskedAssignDeterministicAcrossThreadCounts)
{
    IsaGuard guard;
    struct ThreadGuard
    {
        ~ThreadGuard() { setNumThreads(0); }
    } tguard;

    const std::int64_t ng = 1024;
    Rng rng(3);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    const core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const std::vector<float> mask01 = core::maskToFloat(mask);
    Tensor cb(Shape({64, 16}));
    cb.fillNormal(rng, 0.0f, 1.0f);

    for (Isa isa : availableIsas()) {
        setNumThreads(1);
        const auto one = assignWithIsa(isa, wr, mask01, cb);
        setNumThreads(4);
        const auto four = assignWithIsa(isa, wr, mask01, cb);
        EXPECT_EQ(one, four) << simd::isaName(isa);
    }
}

} // namespace
} // namespace mvq
