/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels plus a before/after
 * speedup report: the seed's scalar kernels (gemmReference and a branchy
 * assignment sweep kept here verbatim) are timed against the parallel
 * blocked/branchless kernels, reporting GFLOP/s and assignments/s. With
 * `--json <path>` the measurements append to a JSON-lines file so
 * future PRs can track the perf trajectory. A second
 * report forces each available SIMD dispatch path (scalar/avx2/neon)
 * through the same workloads and records per-ISA throughput plus
 * vector-vs-scalar speedups.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "core/mask_codec.hpp"
#include "core/masked_kmeans.hpp"
#include "core/nm_pruning.hpp"
#include "sim/lzc.hpp"
#include "sim/systolic_array.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace mvq;

/** The seed's branchy scalar assignment loop, kept as the "before". */
std::int64_t
maskedAssignReference(const Tensor &wr, const core::Mask &mask,
                      const Tensor &codebook,
                      std::vector<std::int32_t> &assignments)
{
    const std::int64_t ng = wr.dim(0);
    const std::int64_t d = wr.dim(1);
    const std::int64_t k = codebook.dim(0);
    std::int64_t changed = 0;
    const float *pw = wr.data();
    const float *pc = codebook.data();
    for (std::int64_t j = 0; j < ng; ++j) {
        const float *wrow = pw + j * d;
        const std::uint8_t *mrow = mask.data() + j * d;
        float best = std::numeric_limits<float>::max();
        std::int32_t best_i = 0;
        for (std::int64_t i = 0; i < k; ++i) {
            const float *crow = pc + i * d;
            float s = 0.0f;
            for (std::int64_t t = 0; t < d; ++t) {
                if (mrow[t]) {
                    const float diff = wrow[t] - crow[t];
                    s += diff * diff;
                }
            }
            if (s < best) {
                best = s;
                best_i = static_cast<std::int32_t>(i);
            }
        }
        if (assignments[static_cast<std::size_t>(j)] != best_i)
            ++changed;
        assignments[static_cast<std::size_t>(j)] = best_i;
    }
    return changed;
}

void
BM_MaskedKmeansIteration(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    core::KmeansConfig cfg;
    cfg.k = 64;
    cfg.max_iters = 2;
    for (auto _ : state) {
        auto res = core::maskedKmeans(wr, mask, cfg);
        benchmark::DoNotOptimize(res.sse);
    }
    state.SetItemsProcessed(state.iterations() * ng * 64);
}
BENCHMARK(BM_MaskedKmeansIteration)->Arg(1024)->Arg(4096);

void
BM_MaskedAssign(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const std::vector<float> mask01 = core::maskToFloat(mask);
    Tensor cb(Shape({64, 16}));
    cb.fillNormal(rng, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
    for (auto _ : state) {
        auto changed = core::maskedAssign(wr, mask01, cb, assign);
        benchmark::DoNotOptimize(changed);
    }
    state.SetItemsProcessed(state.iterations() * ng);
}
BENCHMARK(BM_MaskedAssign)->Arg(4096)->Arg(16384);

void
BM_MaskedAssignRef(benchmark::State &state)
{
    const std::int64_t ng = state.range(0);
    Rng rng(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    Tensor cb(Shape({64, 16}));
    cb.fillNormal(rng, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
    for (auto _ : state) {
        auto changed = maskedAssignReference(wr, mask, cb, assign);
        benchmark::DoNotOptimize(changed);
    }
    state.SetItemsProcessed(state.iterations() * ng);
}
BENCHMARK(BM_MaskedAssignRef)->Arg(4096)->Arg(16384);

void
BM_LzcEncode(benchmark::State &state)
{
    std::vector<std::uint8_t> bits(16, 0);
    bits[2] = bits[7] = bits[9] = bits[15] = 1;
    for (auto _ : state) {
        auto out = sim::lzcEncode(bits, 4);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_LzcEncode);

void
BM_MaskCodecRoundTrip(benchmark::State &state)
{
    const core::MaskCodec codec(core::NmPattern{4, 16});
    std::vector<std::uint8_t> group(16, 0);
    group[1] = group[5] = group[9] = group[13] = 1;
    for (auto _ : state) {
        const std::uint32_t code = codec.encodeGroup(group.data());
        auto bits = codec.decodeGroup(code);
        benchmark::DoNotOptimize(bits.data());
    }
}
BENCHMARK(BM_MaskCodecRoundTrip);

void
BM_Gemm(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemm(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

/** Random [rows, cols] matrix with the compressed-layer 4:16 structure. */
Tensor
masked416Matrix(std::uint64_t seed, std::int64_t rows, std::int64_t cols)
{
    Rng rng(seed);
    return core::randomNmMatrix(rng, rows, cols, core::NmPattern{4, 16});
}

void
BM_GemmSparse(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Tensor a = masked416Matrix(2, n, n);
    const SparseRowMatrix sp = sparsifyRows(a);
    Rng rng(3);
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemmSparseA(sp, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    // Useful (kept-position) flops; the dense equivalent is 4x this.
    state.SetItemsProcessed(state.iterations() * 2 * sp.nnz() * n);
}
BENCHMARK(BM_GemmSparse)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmIm2col(benchmark::State &state)
{
    // Direct dense conv on a conv-like slab (C channels, n x n image,
    // 3x3, pad 1), reading the padded input in place; BM_Gemm is the
    // matching dense-B driver.
    const std::int64_t C = 64;
    const std::int64_t hw = state.range(0);
    const ConvGeom g{C, hw, hw, 3, 3, 1, 1};
    Rng rng(2);
    Tensor x(Shape({1, C, hw, hw}));
    x.fillNormal(rng, 0.0f, 1.0f);
    const std::int64_t m = 64;
    const std::int64_t k = C * 9;
    Tensor a(Shape({m, k}));
    a.fillNormal(rng, 0.0f, 1.0f);
    const Im2colB b{x.data(), g};
    Tensor c(Shape({m, b.cols()}));
    for (auto _ : state) {
        gemmIm2colRaw(m, a.data(), k, b, c.data(), b.cols());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * m * k * b.cols());
}
BENCHMARK(BM_GemmIm2col)->Arg(14)->Arg(28);

void
BM_GemmRef(benchmark::State &state)
{
    const std::int64_t n = state.range(0);
    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        gemmReference(a, false, b, false, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

void
BM_SystolicArrayConv(benchmark::State &state)
{
    Rng rng(3);
    Tensor ifmap(Shape({8, 8, 8}));
    ifmap.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape({16, 8, 3, 3}));
    w.fillNormal(rng, 0.0f, 0.5f);
    auto cfg = sim::makeHwSetting(sim::HwSetting::EWS_Base, 16);
    sim::SystolicArray array(cfg);
    auto dec = sim::wrapDenseWeights(w, 1);
    for (auto _ : state) {
        auto run = array.runConv(ifmap, dec, 1, 1);
        benchmark::DoNotOptimize(run.counters.total_cycles);
    }
}
BENCHMARK(BM_SystolicArrayConv);

// ---------------------------------------------------------------------
// Before/after speedup report.

double
secondsOf(const std::function<void()> &fn, int reps)
{
    double best = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/**
 * Best-of-reps seconds of each of `fns`, timed interleaved: rep r runs
 * every fn once, in order, before rep r + 1. Host drift over the run
 * then lands on every side alike, not in the ratio between them.
 */
std::vector<double>
interleavedSecondsOf(const std::vector<std::function<void()>> &fns, int reps)
{
    std::vector<double> best(fns.size(), std::numeric_limits<double>::max());
    for (int r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < fns.size(); ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            fns[i]();
            const auto t1 = std::chrono::steady_clock::now();
            best[i] = std::min(
                best[i], std::chrono::duration<double>(t1 - t0).count());
        }
    }
    return best;
}

void
speedupReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;

    const bool fast = mvq::bench::fastMode();
    std::cout << "\n--- kernel speedup report (" << numThreads()
              << " threads) ---\n";

    // GEMM at 512^3 (256^3 in fast mode).
    {
        const std::int64_t n = fast ? 256 : 512;
        Rng rng(2);
        Tensor a(Shape({n, n}));
        Tensor b(Shape({n, n}));
        Tensor c(Shape({n, n}));
        a.fillNormal(rng, 0.0f, 1.0f);
        b.fillNormal(rng, 0.0f, 1.0f);
        const double flop = 2.0 * static_cast<double>(n) * n * n;
        // Same rep count for both sides: best-of-N shrinks with N under
        // noise, so asymmetric reps would bias the speedup.
        const double t_ref = secondsOf(
            [&] { gemmReference(a, false, b, false, c); }, 5);
        const double t_opt = secondsOf(
            [&] { gemm(a, false, b, false, c); }, 5);
        const double g_ref = flop / t_ref * 1e-9;
        const double g_opt = flop / t_opt * 1e-9;
        std::cout << "gemm " << n << "^3: before " << f2(g_ref)
                  << " GFLOP/s, after " << f2(g_opt) << " GFLOP/s ("
                  << f2(t_ref / t_opt) << "x)\n";
        const std::string name = "gemm" + std::to_string(n);
        appendBenchRecord(json, name, "gflops_before", g_ref);
        appendBenchRecord(json, name, "gflops_after", g_opt);
        appendBenchRecord(json, name, "speedup", t_ref / t_opt);
    }

    // Masked k-means assignment sweep.
    {
        const std::int64_t ng = fast ? 8192 : 32768;
        const std::int64_t k = 64;
        Rng rng(1);
        Tensor wr(Shape({ng, 16}));
        wr.fillNormal(rng, 0.0f, 1.0f);
        core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
        core::applyMask(wr, mask);
        const std::vector<float> mask01 = core::maskToFloat(mask);
        Tensor cb(Shape({k, 16}));
        cb.fillNormal(rng, 0.0f, 1.0f);
        std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);
        const double t_ref = secondsOf(
            [&] { maskedAssignReference(wr, mask, cb, assign); }, 5);
        const double t_opt = secondsOf(
            [&] { core::maskedAssign(wr, mask01, cb, assign); }, 5);
        const double a_ref = static_cast<double>(ng) / t_ref;
        const double a_opt = static_cast<double>(ng) / t_opt;
        std::cout << "masked assignment (ng=" << ng << ", k=" << k
                  << "): before " << f2(a_ref * 1e-6)
                  << " M assignments/s, after " << f2(a_opt * 1e-6)
                  << " M assignments/s (" << f2(t_ref / t_opt) << "x)\n";
        appendBenchRecord(json, "masked_assign", "assignments_per_s_before",
                          a_ref);
        appendBenchRecord(json, "masked_assign", "assignments_per_s_after",
                          a_opt);
        appendBenchRecord(json, "masked_assign", "speedup", t_ref / t_opt);
    }
}

/**
 * Per-ISA throughput: force each SIMD path this host can execute through
 * the same gemm and masked-assignment workloads so BENCH_*.json records
 * the dispatch layer's win explicitly (vector-vs-scalar speedups included).
 */
void
isaReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    const std::int64_t n = fast ? 256 : 512;
    const std::int64_t ng = fast ? 8192 : 32768;
    const std::int64_t k = 64;

    Rng rng(2);
    Tensor a(Shape({n, n}));
    Tensor b(Shape({n, n}));
    Tensor c(Shape({n, n}));
    a.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    const double flop = 2.0 * static_cast<double>(n) * n * n;

    Rng rng2(1);
    Tensor wr(Shape({ng, 16}));
    wr.fillNormal(rng2, 0.0f, 1.0f);
    core::Mask mask = core::nmMask(wr, core::NmPattern{4, 16});
    core::applyMask(wr, mask);
    const std::vector<float> mask01 = core::maskToFloat(mask);
    Tensor cb(Shape({k, 16}));
    cb.fillNormal(rng2, 0.0f, 1.0f);
    std::vector<std::int32_t> assign(static_cast<std::size_t>(ng), 0);

    std::cout << "--- per-ISA throughput (gemm " << n
              << "^3, masked assignment ng=" << ng << " 4:16) ---\n";
    const simd::Isa saved = simd::activeIsa();
    double scalar_gflops = 0.0;
    double scalar_aps = 0.0;
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        const double t_g =
            secondsOf([&] { gemm(a, false, b, false, c); }, 5);
        const double gflops = flop / t_g * 1e-9;
        const double t_a = secondsOf(
            [&] { core::maskedAssign(wr, mask01, cb, assign); }, 5);
        const double aps = static_cast<double>(ng) / t_a;

        std::cout << tag << ": gemm " << f2(gflops)
                  << " GFLOP/s, assignment " << f2(aps * 1e-6) << " M/s";
        appendBenchRecord(json, "gemm" + std::to_string(n) + "_" + tag,
                          "gflops", gflops);
        appendBenchRecord(json, "masked_assign_" + tag,
                          "assignments_per_s", aps);
        if (isa == Isa::Scalar) {
            scalar_gflops = gflops;
            scalar_aps = aps;
        } else {
            std::cout << " (vs scalar: gemm "
                      << f2(gflops / scalar_gflops) << "x, assignment "
                      << f2(aps / scalar_aps) << "x)";
            appendBenchRecord(json, "simd_dispatch",
                              "gemm_speedup_" + tag + "_vs_scalar",
                              gflops / scalar_gflops);
            appendBenchRecord(json, "simd_dispatch",
                              "assign_speedup_" + tag + "_vs_scalar",
                              aps / scalar_aps);
        }
        std::cout << "\n";
    }
    simd::setIsa(saved);
}

/**
 * Dense-vs-sparse gemm on the same 4:16 compressed-layer structure: the
 * dense path multiplies the masked (75%-zero) dense matrix, the sparse
 * path consumes the compressed rows. Single-threaded so the speedup is
 * the per-core flop-cut story, not a parallel-scaling artifact; the ideal
 * is 4x, and the achieved fraction is reported honestly per ISA.
 */
void
sparseReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    // Conv-layer-like shape: 256 output channels, 256*3*3 unrolled
    // columns, 28x28 (14x14 in fast mode) output positions.
    const std::int64_t m = 256;
    const std::int64_t k = 2304;
    const std::int64_t n = fast ? 196 : 784;

    Tensor a = masked416Matrix(6, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    Rng rng(7);
    Tensor b(Shape({k, n}));
    Tensor c(Shape({m, n}));
    b.fillNormal(rng, 0.0f, 1.0f);
    const double dense_flop = 2.0 * static_cast<double>(m) * k * n;
    const double ideal = static_cast<double>(m * k) / sp.nnz(); // ~4.0

    const int prev_threads = numThreads();
    setNumThreads(1);
    std::cout << "--- dense vs sparse gemm at 4:16 (m=" << m << " k=" << k
              << " n=" << n << ", single core, ideal " << f2(ideal)
              << "x) ---\n";
    const simd::Isa saved = simd::activeIsa();
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        const double t_dense =
            secondsOf([&] { gemm(a, false, b, false, c); }, 5);
        const double t_sparse =
            secondsOf([&] { gemmSparseA(sp, b, c); }, 5);
        const double speedup = t_dense / t_sparse;
        const double fraction = speedup / ideal;
        std::cout << tag << ": dense " << f2(dense_flop / t_dense * 1e-9)
                  << " GFLOP/s, sparse " << f2(t_sparse * 1e3)
                  << " ms/iter -> " << f2(speedup) << "x ("
                  << f2(fraction * 100.0) << "% of the " << f2(ideal)
                  << "x flop cut)\n";
        const std::string name = "gemm_sparse_416_" + tag;
        appendBenchRecord(json, name, "dense_gflops",
                          dense_flop / t_dense * 1e-9);
        appendBenchRecord(json, name, "sparse_seconds", t_sparse);
        appendBenchRecord(json, name, "speedup_vs_dense", speedup);
        appendBenchRecord(json, name, "flop_cut_fraction", fraction);
    }
    simd::setIsa(saved);
    setNumThreads(prev_threads);
}

/**
 * The conv paths vs the materializing im2col + gemm path on the 4:16
 * conv layer (C=256, 28x28, 3x3, stride 1, pad 1 -> m=256, k=2304,
 * n=784), single core per ISA: both sides direct (the dense kernel reads
 * each im2col row, the sparse kernel each kept weight's run, from the
 * padded input in place). The unfused side times the whole conv forward
 * step (im2col + gemm) since that is what each conv path replaces; the
 * conv side is one call. Also re-derives the sparse fraction of the ideal
 * 4x flop cut at the conv level, direct sparse vs direct dense (PERF.md,
 * "Direct dense conv"). A diagnostic: CI gates the served network
 * (scripts/perf_gate.py), not this synthetic layer.
 */
void
convReport(const std::string &json)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f2;
    using simd::Isa;

    const bool fast = mvq::bench::fastMode();
    const std::int64_t C = 256;
    const std::int64_t m = 256;
    const std::int64_t hw = fast ? 14 : 28;
    const ConvGeom g{C, hw, hw, 3, 3, 1, 1};
    const std::int64_t k = C * 9;
    const std::int64_t n = g.outH() * g.outW();

    Rng rng(9);
    Tensor x(Shape({1, C, hw, hw}));
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor a = masked416Matrix(6, m, k);
    const SparseRowMatrix sp = sparsifyRows(a);
    const Im2colB b{x.data(), g};
    Tensor c(Shape({m, n}));
    const double ideal = static_cast<double>(m * k) / sp.nnz(); // ~4.0

    const int prev_threads = numThreads();
    setNumThreads(1);
    std::cout << "--- conv paths vs im2col+gemm: dense direct, sparse "
                 "direct (4:16 layer m="
              << m << " k=" << k << " n=" << n
              << ", single core, sparse ideal " << f2(ideal) << "x) ---\n";
    const simd::Isa saved = simd::activeIsa();
    for (Isa isa : {Isa::Scalar, Isa::Avx2, Isa::Neon}) {
        if (!simd::isaAvailable(isa))
            continue;
        simd::setIsa(isa);
        const std::string tag = simd::isaName(isa);

        // Best-of-7 per side (same rep count on every side, so best-of-N
        // bias cancels), the four sides interleaved rep by rep so that
        // host drift during the report cannot land in one side's
        // ratios: the conv-vs-unfused gaps on the
        // compute-bound cells are a few percent, which best-of-5
        // resolves only marginally on a shared box.
        const int reps = 7;
        const std::vector<double> t = interleavedSecondsOf(
            {[&] {
                 const Tensor cols = im2col(x, 0, g);
                 gemmRaw(m, n, k, a.data(), k, false, cols.data(), n, false,
                         c.data(), n);
             },
             [&] { gemmIm2colRaw(m, a.data(), k, b, c.data(), n); },
             [&] {
                 const Tensor cols = im2col(x, 0, g);
                 gemmSparseARaw(sp, cols.data(), n, c.data(), n);
             },
             [&] { gemmSparseAIm2col(sp, b, c.data(), n); }},
            reps);
        const double t_dense_unfused = t[0];
        const double t_dense_direct = t[1];
        const double t_sparse_unfused = t[2];
        const double t_sparse_direct = t[3];

        const double dense_speedup = t_dense_unfused / t_dense_direct;
        const double sparse_speedup = t_sparse_unfused / t_sparse_direct;
        const double sparse_vs_dense = t_dense_direct / t_sparse_direct;
        const double fraction = sparse_vs_dense / ideal;
        std::cout << tag << ": dense " << f2(t_dense_unfused * 1e3)
                  << " -> " << f2(t_dense_direct * 1e3) << " ms ("
                  << f2(dense_speedup) << "x), sparse "
                  << f2(t_sparse_unfused * 1e3) << " -> "
                  << f2(t_sparse_direct * 1e3) << " ms ("
                  << f2(sparse_speedup) << "x); direct sparse vs direct "
                     "dense "
                  << f2(sparse_vs_dense) << "x (" << f2(fraction * 100.0)
                  << "% of the " << f2(ideal) << "x flop cut)\n";
        const std::string name = "conv_direct_416_" + tag;
        appendBenchRecord(json, name, "dense_unfused_seconds",
                          t_dense_unfused);
        appendBenchRecord(json, name, "dense_direct_seconds",
                          t_dense_direct);
        appendBenchRecord(json, name, "dense_direct_speedup", dense_speedup);
        appendBenchRecord(json, name, "sparse_unfused_seconds",
                          t_sparse_unfused);
        appendBenchRecord(json, name, "sparse_direct_seconds",
                          t_sparse_direct);
        appendBenchRecord(json, name, "sparse_direct_speedup",
                          sparse_speedup);
        appendBenchRecord(json, name, "sparse_direct_vs_dense_direct",
                          sparse_vs_dense);
        appendBenchRecord(json, name, "flop_cut_fraction", fraction);
    }
    simd::setIsa(saved);
    setNumThreads(prev_threads);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string json = mvq::bench::benchJsonPath(argc, argv);

    // Strip our --json flag (with or without its value) before handing
    // argv to google-benchmark.
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            if (i + 1 < argc)
                ++i;
            else
                std::cerr << "micro_kernels: --json needs a path; "
                             "ignoring\n";
            continue;
        }
        args.push_back(argv[i]);
    }
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    benchmark::RunSpecifiedBenchmarks();
    speedupReport(json);
    isaReport(json);
    sparseReport(json);
    convReport(json);
    return 0;
}
