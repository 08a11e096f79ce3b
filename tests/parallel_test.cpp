/**
 * @file
 * Parallel runtime tests: deterministic chunking, correctness of
 * parallelFor / parallelForChunks, nested regions, exception propagation,
 * and bit-identical kernel results across thread counts (the programmatic
 * form of running with MVQ_NUM_THREADS=1 vs 4).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"
#include "core/masked_kmeans.hpp"
#include "core/nm_pruning.hpp"
#include "nn/conv2d.hpp"
#include "tensor/ops.hpp"

namespace mvq {
namespace {

/** Restore the default thread count when a test exits. */
struct ThreadGuard
{
    ~ThreadGuard() { setNumThreads(0); }
};

TEST(Parallel, ChunkCountIsThreadIndependent)
{
    EXPECT_EQ(chunkCount(0, 0, 4), 0);
    EXPECT_EQ(chunkCount(0, 1, 4), 1);
    EXPECT_EQ(chunkCount(0, 4, 4), 1);
    EXPECT_EQ(chunkCount(0, 5, 4), 2);
    EXPECT_EQ(chunkCount(0, 100, 7), 15);
    ThreadGuard guard;
    setNumThreads(1);
    const std::int64_t c1 = chunkCount(0, 1000, 16);
    setNumThreads(8);
    EXPECT_EQ(chunkCount(0, 1000, 16), c1);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce)
{
    ThreadGuard guard;
    for (int threads : {1, 3, 4}) {
        setNumThreads(threads);
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h.store(0);
        parallelFor(0, 257, 16, [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i)
                hits[static_cast<std::size_t>(i)].fetch_add(1);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, ChunkIndicesMatchBounds)
{
    ThreadGuard guard;
    setNumThreads(4);
    const std::int64_t begin = 3, end = 100, grain = 13;
    const std::int64_t n = chunkCount(begin, end, grain);
    std::vector<std::int64_t> lo(static_cast<std::size_t>(n), -1);
    std::vector<std::int64_t> hi(static_cast<std::size_t>(n), -1);
    parallelForChunks(begin, end, grain,
                      [&](std::int64_t c, std::int64_t b, std::int64_t e) {
        lo[static_cast<std::size_t>(c)] = b;
        hi[static_cast<std::size_t>(c)] = e;
    });
    for (std::int64_t c = 0; c < n; ++c) {
        EXPECT_EQ(lo[static_cast<std::size_t>(c)], begin + c * grain);
        EXPECT_EQ(hi[static_cast<std::size_t>(c)],
                  std::min(end, begin + (c + 1) * grain));
    }
}

TEST(Parallel, NestedRegionsRunInline)
{
    ThreadGuard guard;
    setNumThreads(4);
    std::atomic<int> total{0};
    parallelFor(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
            // A nested region must not deadlock or double-count.
            parallelFor(0, 10, 2, [&](std::int64_t nb, std::int64_t ne) {
                total.fetch_add(static_cast<int>(ne - nb));
            });
        }
    });
    EXPECT_EQ(total.load(), 80);
}

TEST(Parallel, WidthIsOneInsideARegion)
{
    ThreadGuard guard;
    setNumThreads(4);
    EXPECT_EQ(parallelWidth(), 4);
    std::atomic<int> inside{0};
    parallelFor(0, 8, 1, [&](std::int64_t, std::int64_t) {
        inside.fetch_add(parallelWidth());
    });
    EXPECT_EQ(inside.load(), 8); // every chunk saw width 1
    setNumThreads(1);
    EXPECT_EQ(parallelWidth(), 1);
}

TEST(Parallel, ExceptionsPropagate)
{
    ThreadGuard guard;
    for (int threads : {1, 4}) {
        setNumThreads(threads);
        EXPECT_THROW(
            parallelFor(0, 64, 1,
                        [](std::int64_t b, std::int64_t) {
                            if (b == 17)
                                throw std::runtime_error("boom");
                        }),
            std::runtime_error);
    }
}

TEST(Parallel, SetNumThreadsRoundTrip)
{
    ThreadGuard guard;
    setNumThreads(3);
    EXPECT_EQ(numThreads(), 3);
    setNumThreads(0); // back to default
    EXPECT_GE(numThreads(), 1);
}

// ---------------------------------------------------------------------
// Determinism: the hot kernels must produce bit-identical results at any
// thread count (MVQ_NUM_THREADS=1 vs 4).

TEST(ParallelDeterminism, GemmBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    Rng rng(11);
    Tensor a(Shape({93, 77}));
    Tensor b(Shape({77, 121}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);

    setNumThreads(1);
    Tensor c1 = matmul(a, b);
    setNumThreads(4);
    Tensor c4 = matmul(a, b);
    ASSERT_EQ(c1.numel(), c4.numel());
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(),
                          static_cast<std::size_t>(c1.numel())
                              * sizeof(float)),
              0);
}

TEST(ParallelDeterminism, MaskedKmeansBitIdenticalAcrossThreadCounts)
{
    ThreadGuard guard;
    Rng rng(12);
    Tensor wr(Shape({1024, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    core::KmeansConfig cfg;
    cfg.k = 32;
    cfg.max_iters = 6;

    setNumThreads(1);
    auto r1 = core::maskedKmeans(wr, mask, cfg);
    setNumThreads(4);
    auto r4 = core::maskedKmeans(wr, mask, cfg);

    EXPECT_EQ(r1.assignments, r4.assignments);
    EXPECT_EQ(r1.iterations, r4.iterations);
    EXPECT_DOUBLE_EQ(r1.sse, r4.sse);
    ASSERT_EQ(r1.codebook.numel(), r4.codebook.numel());
    EXPECT_EQ(std::memcmp(r1.codebook.data(), r4.codebook.data(),
                          static_cast<std::size_t>(r1.codebook.numel())
                              * sizeof(float)),
              0);
}

TEST(ParallelDeterminism, ConvForwardBackwardBitIdentical)
{
    ThreadGuard guard;
    nn::Conv2dConfig cfg;
    cfg.in_channels = 6;
    cfg.out_channels = 8;
    cfg.kernel = 3;
    cfg.pad = 1;
    cfg.groups = 2;

    auto run = [&](int threads, Tensor &out, Tensor &gin, Tensor &gw) {
        setNumThreads(threads);
        Rng rng(13);
        nn::Conv2d conv("c", cfg, rng);
        Tensor x(Shape({5, 6, 9, 9}));
        x.fillNormal(rng, 0.0f, 1.0f);
        out = conv.forward(x, /*train=*/true);
        Tensor gout(out.shape());
        gout.fillNormal(rng, 0.0f, 1.0f);
        gin = conv.backward(gout);
        gw = conv.weight().grad;
    };

    Tensor o1, gi1, gw1, o4, gi4, gw4;
    run(1, o1, gi1, gw1);
    run(4, o4, gi4, gw4);
    auto expect_identical = [](const Tensor &lhs, const Tensor &rhs) {
        ASSERT_EQ(lhs.numel(), rhs.numel());
        EXPECT_EQ(std::memcmp(lhs.data(), rhs.data(),
                              static_cast<std::size_t>(lhs.numel())
                                  * sizeof(float)),
                  0);
    };
    expect_identical(o1, o4);
    expect_identical(gi1, gi4);
    expect_identical(gw1, gw4);
}

TEST(ParallelDeterminism, Im2ColAndCol2ImBitIdentical)
{
    ThreadGuard guard;
    Rng rng(14);
    Tensor x(Shape({2, 4, 11, 11}));
    x.fillNormal(rng, 0.0f, 1.0f);
    ConvGeom g{4, 11, 11, 3, 3, 2, 1};

    setNumThreads(1);
    Tensor c1 = im2col(x, 1, g);
    Tensor g1(x.shape());
    col2im(c1, g1, 1, g);
    setNumThreads(4);
    Tensor c4 = im2col(x, 1, g);
    Tensor g4(x.shape());
    col2im(c4, g4, 1, g);

    EXPECT_EQ(std::memcmp(c1.data(), c4.data(),
                          static_cast<std::size_t>(c1.numel())
                              * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(g1.data(), g4.data(),
                          static_cast<std::size_t>(g1.numel())
                              * sizeof(float)),
              0);
}

} // namespace
} // namespace mvq
