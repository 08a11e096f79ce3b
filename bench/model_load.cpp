/**
 * @file
 * Cold-load benchmark: bit-packed stream vs mmap'd MVQI image.
 *
 * Synthesizes full-geometry compressed models (ResNet-18 and
 * MobileNet-v1 conv stacks at 224x224), writes both artifact formats,
 * and times the end-to-end path from file to forward-ready packed
 * operands for every layer:
 *
 *   stream: read file -> decode every symbol -> packGroupedRows per
 *           layer into an in-memory MVQI image -> the mvqi path's
 *           validation and borrow over that image
 *   mvqi:   mmap -> structural validation -> borrow + O(nnz) semantic
 *           validation (no decode, no packing)
 *   read:   one memcmp pass over the CSR arrays of both paths' operands
 *
 * Both paths must produce byte-identical packed operands — the read pass
 * is that check, and the bench exits nonzero on any divergence. Emits
 * JSON-lines records via --json / MVQ_BENCH_JSON. With
 * MVQ_BENCH_GATE_MAX_LOAD_READ_RATIO set it exits nonzero when mvqi_ms
 * exceeds that many read passes on either model (CI regression gate):
 * the MVQI open promises map plus O(bytes) validation, so a load that
 * decodes or repacks anything blows through the ceiling.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "models/layer_spec.hpp"

namespace {

using namespace mvq;
using namespace mvq::core;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Synthesize a compressed model with the exact conv geometry of `spec`.
 * Weight values never matter for load cost — only symbol counts do — so
 * assignments and mask codes are drawn from a fixed-seed mt19937.
 */
CompressedModel
synthesizeModel(const models::ModelSpec &spec, io::MvqiWriteOptions *opts,
                std::vector<std::int64_t> *conv_groups)
{
    CompressedModel model;
    std::mt19937 rng(12345);

    Codebook cb;
    cb.qbits = 8;
    cb.scale = 1.0f / 64.0f;
    cb.codewords = Tensor(Shape({256, 16}));
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] =
            static_cast<float>(static_cast<int>(rng() % 255) - 127)
            * cb.scale;
    model.codebooks.push_back(std::move(cb));

    const MaskCodec codec(NmPattern{4, 16});
    for (const models::ConvLayerSpec &c : spec.convs) {
        if (c.weightCount() % 16 != 0)
            continue; // not d=16-groupable (e.g. the 1000-way head)
        CompressedLayer l;
        l.name = c.name;
        l.weight_shape =
            Shape({c.out_c, c.in_c / c.groups, c.kernel, c.kernel});
        l.cfg.k = 256;
        l.cfg.d = 16;
        l.cfg.pattern = NmPattern{4, 16};
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * c.macs();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        l.assignments.reserve(static_cast<std::size_t>(ng));
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>(rng() % 256));
        const std::int64_t codes = ng * (l.cfg.d / 16);
        l.mask_codes.reserve(static_cast<std::size_t>(codes));
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                rng() % codec.codeCount()));
        if (opts != nullptr)
            opts->layer_groups[l.name] = c.groups;
        conv_groups->push_back(c.groups);
        model.layers.push_back(std::move(l));
    }
    return model;
}

/**
 * Open `path` and materialize forward-ready operands for every layer,
 * at the conv group counts the serving architecture dictates (the MVQI
 * image bakes exactly these, so its path stays zero-copy).
 */
std::vector<io::SharedOperands>
coldLoad(const std::string &path,
         const std::vector<std::int64_t> &conv_groups, double *ms)
{
    const double t0 = nowMs();
    const auto art = io::openArtifact(path);
    std::vector<io::SharedOperands> out;
    out.reserve(static_cast<std::size_t>(art->layerCount()));
    for (std::int64_t i = 0; i < art->layerCount(); ++i)
        out.push_back(art->packedOperands(
            i, conv_groups[static_cast<std::size_t>(i)]));
    *ms = nowMs() - t0;
    // The operands keep the backing image alive past `art`.
    return out;
}

template <typename T>
bool
sameArray(const OperandArray<T> &x, const OperandArray<T> &y)
{
    return x.size() == y.size()
        && (x.empty()
            || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/** Every operand's CSR arrays (all an image stores), byte for byte. */
bool
operandsIdentical(const std::vector<io::SharedOperands> &a,
                  const std::vector<io::SharedOperands> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i]->size() != b[i]->size())
            return false;
        for (std::size_t g = 0; g < a[i]->size(); ++g) {
            const GroupedSparseMatrix &x = (*a[i])[g];
            const GroupedSparseMatrix &y = (*b[i])[g];
            if (!sameArray(x.rows.row_ptr, y.rows.row_ptr)
                || !sameArray(x.rows.col_idx, y.rows.col_idx)
                || !sameArray(x.rows.values, y.rows.values))
                return false;
        }
    }
    return true;
}

struct LoadResult
{
    double stream_ms = 0.0;
    double mvqi_ms = 0.0;
    double read_ms = 0.0; //!< one memcmp pass over both sides' operands
    bool identical = false;
    std::int64_t stream_bytes = 0;
    std::int64_t mvqi_bytes = 0;
};

LoadResult
benchOne(const models::ModelSpec &spec, int repeats)
{
    io::MvqiWriteOptions opts;
    std::vector<std::int64_t> conv_groups;
    const CompressedModel model = synthesizeModel(spec, &opts, &conv_groups);
    const std::string stream_path =
        "/tmp/mvq_load_bench_" + spec.name + ".mvq";
    const std::string mvqi_path =
        "/tmp/mvq_load_bench_" + spec.name + ".mvqi";
    io::saveArtifact(model, stream_path, io::ArtifactFormat::Stream);
    io::saveArtifact(model, mvqi_path, io::ArtifactFormat::Mvqi, opts);

    LoadResult r;
    r.stream_bytes = io::openArtifact(stream_path)->sizeBytes();
    r.mvqi_bytes = io::openArtifact(mvqi_path)->sizeBytes();

    // Best-of-N: cold-load cost is deterministic work (decode + pack vs
    // validate), the minimum strips scheduler noise. Files sit in page
    // cache for both paths, so disk latency doesn't skew either side.
    r.stream_ms = 1e30;
    r.mvqi_ms = 1e30;
    r.read_ms = 1e30;
    r.identical = true;
    for (int it = 0; it < repeats; ++it) {
        double ms = 0.0;
        const auto from_stream = coldLoad(stream_path, conv_groups, &ms);
        r.stream_ms = std::min(r.stream_ms, ms);
        const auto from_mvqi = coldLoad(mvqi_path, conv_groups, &ms);
        r.mvqi_ms = std::min(r.mvqi_ms, ms);
        const double t0 = nowMs();
        r.identical = operandsIdentical(from_stream, from_mvqi)
            && r.identical;
        r.read_ms = std::min(r.read_ms, nowMs() - t0);
    }
    std::remove(stream_path.c_str());
    std::remove(mvqi_path.c_str());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    using mvq::bench::appendBenchRecord;
    using mvq::bench::f1;
    using mvq::bench::f2;

    const std::string json = mvq::bench::benchJsonPath(argc, argv);
    const int repeats = mvq::bench::fastMode() ? 2 : 5;

    mvq::bench::printExperimentHeader(
        "model cold-load: bit-stream decode vs zero-copy MVQI mmap",
        "full conv geometry of ResNet-18 / MobileNet-v1, synthetic "
        "symbols (load cost depends on symbol counts, not values)");

    mvq::TextTable t({"model", "stream MB", "mvqi MB", "stream ms",
                      "mvqi ms", "read ms", "mvqi/read", "speedup",
                      "bit-identical"});
    double max_ratio = 0.0;
    for (const auto &spec :
         {mvq::models::resnet18Spec(), mvq::models::mobilenetV1Spec()}) {
        const LoadResult r = benchOne(spec, repeats);
        const double speedup = r.stream_ms / r.mvqi_ms;
        const double ratio = r.mvqi_ms / r.read_ms;
        max_ratio = std::max(max_ratio, ratio);
        t.addRow({spec.name,
                  f2(static_cast<double>(r.stream_bytes) / 1e6),
                  f2(static_cast<double>(r.mvqi_bytes) / 1e6),
                  f2(r.stream_ms), f2(r.mvqi_ms), f2(r.read_ms),
                  f1(ratio) + "x", f1(speedup) + "x",
                  r.identical ? "yes" : "NO"});
        const std::string rec = "model_load_" + spec.name;
        appendBenchRecord(json, rec, "stream_ms", r.stream_ms);
        appendBenchRecord(json, rec, "mvqi_ms", r.mvqi_ms);
        appendBenchRecord(json, rec, "read_ms", r.read_ms);
        appendBenchRecord(json, rec, "mvqi_read_ratio", ratio);
        appendBenchRecord(json, rec, "speedup", speedup);
        appendBenchRecord(json, rec, "bit_identical",
                          r.identical ? 1.0 : 0.0);
        if (!r.identical) {
            std::cerr << "FAIL: " << spec.name
                      << ": stream and MVQI packed operands differ\n";
            return 1;
        }
    }
    t.print();

    if (const double ceiling =
            env::real("MVQ_BENCH_GATE_MAX_LOAD_READ_RATIO", 0.0);
        ceiling > 0.0) {
        if (max_ratio > ceiling) {
            std::cerr << "FAIL: MVQI cold load took " << f1(max_ratio)
                      << "x a read pass over its operands, above the "
                      << f1(ceiling)
                      << "x ceiling (MVQ_BENCH_GATE_MAX_LOAD_READ_RATIO)\n";
            return 1;
        }
        std::cout << "gate: max mvqi/read " << f1(max_ratio) << "x <= "
                  << f1(ceiling) << "x ceiling: OK\n";
    }
    return 0;
}
