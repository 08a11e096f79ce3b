#include "common/simd_dispatch.hpp"

#include <atomic>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>

#include "common/env.hpp"
#include "common/logging.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MVQ_SIMD_X86 1
#endif

namespace mvq::simd {

namespace {

// ------------------------------------------------------------ scalar table
//
// The portable kernels. These are the semantic reference for every vector
// path: the scalar micro-kernel reproduces gemmReference's per-element
// accumulation order (ascending kk), and the two assignment variants
// accumulate kept positions in ascending t, so sparse and dense scalar
// paths produce bit-identical distances.

void
gemmMicroScalar(const float *__restrict ap, const float *__restrict base,
                const std::int32_t *__restrict off, std::int64_t kc,
                float *__restrict acc)
{
    constexpr std::int64_t MR = 4;
    constexpr std::int64_t NR = 8;
    // Accumulate in a local tile so the compiler can keep it in registers
    // and auto-vectorize (through the dispatch function pointer it no
    // longer sees that acc is a private stack buffer). B row kk is copied
    // to a local row too: read through base + off[kk], gcc 12 vectorizes
    // the kk loop (gathering four B rows) instead of the lanes.
    float c[MR * NR] = {};
    for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float *arow = ap + kk * MR;
        float brow[NR];
        std::memcpy(brow, base + off[kk], sizeof(brow));
        for (std::int64_t r = 0; r < MR; ++r) {
            const float av = arow[r];
            float *crow = c + r * NR;
            for (std::int64_t cidx = 0; cidx < NR; ++cidx)
                crow[cidx] += av * brow[cidx];
        }
    }
    std::memcpy(acc, c, sizeof(c));
}

/**
 * Sparse-A row x input-tile kernel. nr is a runtime parameter (the scalar
 * kernel can back tables with different tile widths). A single
 * compressed row has no mr dimension to hide FP-add latency behind, so
 * accumulation is striped 2-way across entries (entry q feeds stripe
 * q % 2) and the stripes fold at the end, doubling the independent
 * dependency chains the auto-vectorizer can keep in flight.
 */
void
gemmSparseMicroScalar(const float *__restrict vals,
                      const std::int32_t *__restrict kidx, std::int64_t nnz,
                      const std::int32_t *__restrict off,
                      const float *__restrict base, std::int64_t nr,
                      float *__restrict acc)
{
    float s0[kMaxSparseNr];
    float s1[kMaxSparseNr];
    for (std::int64_t c = 0; c < nr; ++c) {
        s0[c] = acc[c];
        s1[c] = 0.0f;
    }
    std::int64_t q = 0;
    for (; q + 2 <= nnz; q += 2) {
        const float v0 = vals[q];
        const float v1 = vals[q + 1];
        const float *b0 = base + off[kidx[q]];
        const float *b1 = base + off[kidx[q + 1]];
        for (std::int64_t c = 0; c < nr; ++c) {
            s0[c] += v0 * b0[c];
            s1[c] += v1 * b1[c];
        }
    }
    if (q < nnz) {
        const float v = vals[q];
        const float *brow = base + off[kidx[q]];
        for (std::int64_t c = 0; c < nr; ++c)
            s0[c] += v * brow[c];
    }
    for (std::int64_t c = 0; c < nr; ++c)
        acc[c] = s0[c] + s1[c];
}

std::int32_t
assignBestDenseScalar(const float *wrow, const float *mrow, const float *cb,
                      const float * /*cbT*/, std::int64_t k, std::int64_t d)
{
    float best = std::numeric_limits<float>::max();
    std::int32_t best_i = 0;
    for (std::int64_t i = 0; i < k; ++i) {
        const float *crow = cb + i * d;
        float s = 0.0f;
        // Branchless: the 0/1 multiplier zeroes pruned positions, so the
        // loop vectorizes without a per-element test.
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
assignBestSparseScalar(const float *wkeep, const std::int32_t *idx,
                       std::int64_t nk, const float *cb,
                       const float * /*cbT*/, std::int64_t k, std::int64_t d)
{
    float best = std::numeric_limits<float>::max();
    std::int32_t best_i = 0;
    for (std::int64_t i = 0; i < k; ++i) {
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

constexpr Kernels kScalarKernels = {
    Isa::Scalar, "scalar",
    /*mr=*/4,    /*nr=*/8, &gemmMicroScalar, /*sparse_nr=*/8,
    &gemmSparseMicroScalar,
    &assignBestDenseScalar, &assignBestSparseScalar,
};

// --------------------------------------------------------- CPU detection

#ifdef MVQ_SIMD_X86
/** xgetbv via inline asm so this TU needs no -mxsave flag. */
std::uint64_t
xgetbv0()
{
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/** cpuid says AVX2+FMA and the OS saves YMM state. */
bool
cpuHasAvx2Fma()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return false;
    const bool fma = (ecx & (1u << 12)) != 0;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (!fma || !osxsave || !avx)
        return false;
    // XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
    if ((xgetbv0() & 0x6) != 0x6)
        return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return false;
    return (ebx & (1u << 5)) != 0; // AVX2
}
#endif

// ------------------------------------------------------------- resolution

const Kernels *
tableFor(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return &kScalarKernels;
    case Isa::Avx2:
        return avx2KernelsOrNull();
    case Isa::Neon:
        return neonKernelsOrNull();
    }
    return nullptr;
}

/** Parse MVQ_SIMD; returns false when unset or unrecognized. */
bool
parseOverride(Isa &out, std::string &raw)
{
    raw = env::str("MVQ_SIMD", "");
    if (raw.empty())
        return false;
    if (raw == "scalar") {
        out = Isa::Scalar;
        return true;
    }
    if (raw == "avx2") {
        out = Isa::Avx2;
        return true;
    }
    if (raw == "neon") {
        out = Isa::Neon;
        return true;
    }
    warn("MVQ_SIMD=", raw,
         " not recognized (want scalar|avx2|neon); auto-detecting");
    return false;
}

std::atomic<const Kernels *> g_active{nullptr};
std::once_flag g_resolve_once;

void
resolveActive()
{
    Isa choice = bestAvailableIsa();
    const char *source = "auto-detected";

    Isa requested = Isa::Scalar;
    std::string raw;
    if (parseOverride(requested, raw)) {
        if (isaAvailable(requested)) {
            choice = requested;
            source = "MVQ_SIMD override";
        } else {
            warn("MVQ_SIMD=", raw, " requested but the ", isaName(requested),
                 " path is unavailable on this host/build; falling back to ",
                 isaName(choice));
        }
    }

    const Kernels *table = tableFor(choice);
    panicIf(table == nullptr, "no kernel table for available ISA");
    g_active.store(table, std::memory_order_release);
    inform("simd: ", source, " kernel path '", table->name,
           "' (dense kernel ", table->mr, "x", table->nr,
           ", sparse kernel 1x", table->sparse_nr,
           "; convs read the padded input in place",
           "; available:", isaAvailable(Isa::Avx2) ? " avx2" : "",
           isaAvailable(Isa::Neon) ? " neon" : "", " scalar)");
}

} // namespace

const Kernels &
scalarKernels()
{
    return kScalarKernels;
}

bool
isaAvailable(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Avx2:
#ifdef MVQ_SIMD_X86
        return avx2KernelsOrNull() != nullptr && cpuHasAvx2Fma();
#else
        return false;
#endif
    case Isa::Neon:
        // NEON is baseline on aarch64, so carrying the TU implies support.
        return neonKernelsOrNull() != nullptr;
    }
    return false;
}

Isa
bestAvailableIsa()
{
    if (isaAvailable(Isa::Neon))
        return Isa::Neon;
    if (isaAvailable(Isa::Avx2))
        return Isa::Avx2;
    return Isa::Scalar;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Neon:
        return "neon";
    }
    return "?";
}

const Kernels &
kernels()
{
    const Kernels *table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) {
        std::call_once(g_resolve_once, resolveActive);
        table = g_active.load(std::memory_order_acquire);
    }
    return *table;
}

Isa
activeIsa()
{
    return kernels().isa;
}

bool
setIsa(Isa isa)
{
    if (!isaAvailable(isa))
        return false;
    kernels(); // make sure the one-time resolution + log happened first
    const Kernels *table = tableFor(isa);
    panicIf(table == nullptr, "available ISA without a kernel table");
    g_active.store(table, std::memory_order_release);
    return true;
}

} // namespace mvq::simd
