/**
 * @file
 * Whole-network serving benchmark: synthetic-weight ResNet-18 (full
 * 224x224 geometry, every conv 4:16) served from an artifact file through
 * serve::Server by one closed-loop client. perfbench/run.py builds this and
 * drives it; each workload run is two processes:
 *
 *   perfbench prepare --workload W --seed N --dir D
 *       synthesize the model, write its artifact, and write the dense
 *       oracle's outputs for the request images (kept out of the measured
 *       process, so its peak memory belongs to serving alone);
 *   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
 *       check the batch-1 fast-path outputs against the oracle, time
 *       set-up, drive the load, and print one `meta` line and one result
 *       line of JSON. --trace 0 reports the end-to-end metrics; --trace 1
 *       records spans around every call into core/io, serve and nn, and
 *       reports the per-layer metrics plus a Chrome trace file.
 *
 * `run` times each set-up in a fresh child process,
 *
 *   perfbench setup --workload W --seed N --dir D --trace 0|1
 *
 * so the set-up's first forward is as cold as a new server's.
 */

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/simd_dispatch.hpp"
#include "loadgen.hpp"
#include "nets.hpp"
#include "perf/layer_perf.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using namespace mvq;
using namespace perfbench;
namespace io = mvq::core::io;

/** Distinct request images per run (one batch-8 wave). */
constexpr int kImages = 8;
/** Agreement the fast path must reach with the dense oracle. */
constexpr double kOracleTol = 1e-4;
/** Repeats of the dense per-layer and batch-1 speedup timings. */
constexpr int kDenseReps = 3;
constexpr int kSpeedupReps = 11;

struct Workload
{
    const char *name;
    io::ArtifactFormat format;
    int wave;              //!< images the client submits per wave
    std::int64_t max_batch;
    std::int64_t hold_us;  //!< batching hold (ServeOptions::deadline_us)
    double limit_ms;       //!< latency limit
    int setup_reps;        //!< set-up processes per run; setup_s: median
};

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/README.md.
const Workload kWorkloads[] = {
    {"resnet18_b1", io::ArtifactFormat::Mvqi, 1, 1, 0, 1000.0, 15},
    // A hold far longer than a wave takes to submit: every batch is 8.
    {"resnet18_b8_stream", io::ArtifactFormat::Stream, 8, 8, 1000000, 5000.0,
     7},
};

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    fatal("unknown workload '", name, "'");
}

/** `--key value` pairs. */
class Args
{
  public:
    Args(int argc, char **argv)
    {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string key = argv[i];
            fatalIf(key.rfind("--", 0) != 0, "expected --key, got ", key);
            kv_[key.substr(2)] = argv[i + 1];
        }
    }

    std::string
    str(const std::string &key) const
    {
        const auto it = kv_.find(key);
        fatalIf(it == kv_.end(), "missing --", key);
        return it->second;
    }

    std::uint64_t u64(const std::string &key) const
    {
        return std::stoull(str(key));
    }
    double real(const std::string &key) const { return std::stod(str(key)); }

  private:
    std::map<std::string, std::string> kv_;
};

std::string
artifactPath(const std::string &dir, const Workload &w)
{
    return dir
        + (w.format == io::ArtifactFormat::Mvqi ? "/model.mvqi"
                                                : "/model.mvq");
}

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/** Peak resident set of this process in MB (VmHWM). */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / 1e6;
    return 0.0;
}

std::int64_t
fileBytes(const std::string &path)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    fatalIf(!f, "cannot open ", path);
    return static_cast<std::int64_t>(f.tellg());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    fatalIf(!std::isfinite(v), "non-finite metric value");
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Write the tensors' elements back to back. */
void
writeFloats(const std::string &path, const std::vector<Tensor> &ts)
{
    std::ofstream f(path, std::ios::binary);
    for (const Tensor &t : ts)
        f.write(reinterpret_cast<const char *>(t.data()),
                static_cast<std::streamsize>(t.numel() * sizeof(float)));
    fatalIf(!f, "cannot write ", path);
}

/** A file written by writeFloats, read back as `count` equal flat tensors. */
std::vector<Tensor>
readFloats(const std::string &path, int count)
{
    const std::int64_t floats =
        fileBytes(path) / static_cast<std::int64_t>(sizeof(float));
    const std::int64_t per = floats / count;
    fatalIf(per == 0 || per * count != floats, path, " does not hold ", count,
            " equal tensors");
    std::ifstream f(path, std::ios::binary);
    std::vector<Tensor> out;
    for (int i = 0; i < count; ++i) {
        Tensor t(Shape({per}));
        f.read(reinterpret_cast<char *>(t.data()),
               static_cast<std::streamsize>(per * sizeof(float)));
        out.push_back(std::move(t));
    }
    fatalIf(!f, "cannot read ", path);
    return out;
}

/** Every server setting pinned, so no MVQ_SERVE_* knob moves a workload. */
serve::ServeOptions
serveOptions(const Workload &w)
{
    serve::ServeOptions opts;
    opts.max_batch = w.max_batch;
    opts.deadline_us = w.hold_us;
    opts.max_queue = 1024;
    opts.request_timeout_us = 0;
    opts.fail_threshold = 8;
    return opts;
}

/** An artifact being served: the network over its operands, the server. */
struct Stack
{
    std::unique_ptr<io::ModelArtifact> art;
    std::unique_ptr<ServedNet> net;
    std::unique_ptr<serve::Server> server;
};

/** Open the artifact, borrow or decode its operands, build the network
 *  and the server. */
Stack
openStack(const Workload &w, const NetSpec &net, const std::string &path,
          const Shape &chw)
{
    Stack s;
    {
        trace::Span so("io", "openArtifact");
        s.art = io::openArtifact(path);
    }
    s.net = std::make_unique<ServedNet>(net, *s.art);
    const ServedNet &fwd = *s.net;
    s.server = std::make_unique<serve::Server>(
        chw,
        [&fwd](const Tensor &x) {
            trace::Span sf("serve", "BatchForward", -1, x.dim(0));
            return fwd.forward(x);
        },
        serveOptions(w));
    return s;
}

/** Send one wave and count the responses bit-identical to `refs`. */
std::int64_t
probeWave(serve::Server &server, const Workload &w,
          const std::vector<Tensor> &images, const std::vector<Tensor> &refs)
{
    std::vector<std::future<Tensor>> probe;
    for (int i = 0; i < w.wave; ++i) {
        trace::Span ss("serve", "Server::submit");
        probe.push_back(server.submitWithDeadline(
            images[static_cast<std::size_t>(i)], serve::kNoDeadline));
    }
    std::int64_t ok = 0;
    for (std::size_t i = 0; i < probe.size(); ++i)
        ok += sameBytes(probe[i].get(), refs[i]) ? 1 : 0;
    return ok;
}

/**
 * Pin glibc's malloc thresholds. By default they rise as large chunks are
 * freed, so after an unpredictable number of forwards big tensors stop
 * being mmap'ed and faulted in afresh and start being reused from the
 * heap; a MobileNet-v1 set-up plus forward went from about 45 to 29 ms at
 * that point, after a different number of forwards in each run. Pinned,
 * every tensor up to 32 MiB (a batch-8 ResNet-18 activation is 26 MB)
 * comes from the heap and freed memory stays in the process, the same way
 * in every run.
 */
void
pinAllocatorThresholds()
{
#ifdef __GLIBC__
    fatalIf(mallopt(M_MMAP_THRESHOLD, 32 << 20) != 1
                || mallopt(M_TRIM_THRESHOLD, 512 << 20) != 1,
            "mallopt refused the malloc thresholds");
#endif
}

// ------------------------------------------------------------------ prepare

int
cmdPrepare(const Args &args)
{
    const Workload &w = findWorkload(args.str("workload"));
    const std::uint64_t seed = args.u64("seed");
    const std::string dir = args.str("dir");
    setNumThreads(availableCpus());

    const NetSpec net = resnet18Net();
    const core::CompressedModel model = synthesizeModel(net, seed);
    io::saveArtifact(model, artifactPath(dir, w), w.format, bakedGroups(net));

    const auto oracle = denseOracle(net, model);
    const Tensor out =
        oracle->forward(stackImages(makeImages(net, seed, kImages)), false);
    fatalIf(!allFinite(out), "dense oracle produced non-finite outputs");
    writeFloats(dir + "/dense.bin", {out});
    return 0;
}

// -------------------------------------------------------------------- setup

/** One set-up, as `perfbench setup` prints it. */
struct SetupResult
{
    double seconds = 0.0;
    std::int64_t attempted = 0;
    std::int64_t ok = 0;
    // From the set-up's spans; 0 unless traced.
    double open_ms = 0.0;
    double operands_ms = 0.0;
    double first_forward_ms = 0.0;
};

/**
 * One set-up in this fresh process, timed from openArtifact to the first
 * correct response: operands borrowed or decoded, network and server
 * built, and the cold first forward of one probe wave, checked against
 * the references `run` wrote. The pool is started off the clock, as a
 * server process starts it before loading a model.
 */
int
cmdSetup(const Args &args)
{
    pinAllocatorThresholds();
    const Workload &w = findWorkload(args.str("workload"));
    const std::string dir = args.str("dir");
    setNumThreads(availableCpus());
    const NetSpec net = resnet18Net();
    const std::vector<Tensor> images =
        makeImages(net, args.u64("seed"), kImages);
    const std::vector<Tensor> refs = readFloats(dir + "/refs.bin", kImages);

    SetupResult r;
    trace::setEnabled(args.str("trace") == "1");
    const double t0 = trace::nowMs();
    const Stack s =
        openStack(w, net, artifactPath(dir, w), images.front().shape());
    r.attempted = w.wave;
    r.ok = probeWave(*s.server, w, images, refs);
    r.seconds = (trace::nowMs() - t0) / 1e3;
    trace::setEnabled(false);

    for (const trace::SpanRecord &sp : trace::drain()) {
        if (sp.name == "openArtifact")
            r.open_ms += sp.durMs();
        else if (sp.name == "packedOperands")
            r.operands_ms += sp.durMs();
        else if (sp.name == "BatchForward" && r.first_forward_ms == 0.0)
            r.first_forward_ms = sp.durMs();
    }
    std::cout << "setup " << jsonNumber(r.seconds) << ' ' << r.attempted
              << ' ' << r.ok << ' ' << jsonNumber(r.open_ms) << ' '
              << jsonNumber(r.operands_ms) << ' '
              << jsonNumber(r.first_forward_ms) << std::endl;
    return 0;
}

/** The workload's set-ups, each in a fresh `perfbench setup` process. */
std::vector<SetupResult>
runSetups(const Workload &w, std::uint64_t seed, const std::string &dir,
          bool traced)
{
    const std::string exe =
        std::filesystem::read_symlink("/proc/self/exe").string();
    fatalIf(exe.find('\'') != std::string::npos
                || dir.find('\'') != std::string::npos,
            "paths with a single quote are not supported");
    const std::string cmd = "'" + exe + "' setup --workload " + w.name
        + " --seed " + std::to_string(seed) + " --dir '" + dir
        + "' --trace " + (traced ? "1" : "0");

    std::vector<SetupResult> out;
    for (int rep = 0; rep < w.setup_reps; ++rep) {
        FILE *p = popen(cmd.c_str(), "r");
        fatalIf(p == nullptr, "cannot start ", cmd);
        std::string text;
        char buf[256];
        while (std::fgets(buf, sizeof(buf), p) != nullptr)
            text += buf;
        fatalIf(pclose(p) != 0, "set-up process failed: ", cmd);

        // The library may log lines of its own before the result.
        std::istringstream is(
            text.substr(std::min(text.rfind("setup "), text.size())));
        std::string tag;
        SetupResult r;
        is >> tag >> r.seconds >> r.attempted >> r.ok >> r.open_ms
            >> r.operands_ms >> r.first_forward_ms;
        fatalIf(!is || tag != "setup", "set-up process printed no result: ",
                text);
        out.push_back(r);
    }
    return out;
}

// ---------------------------------------------------------------------- run

/** Per-layer metrics: everything derived from the traced phase and the
 *  traced set-ups, plus the reference measurements beside them. */
std::vector<Metric>
layerMetrics(const Workload &w, const NetSpec &net, const ServedNet &sn,
             const io::ModelArtifact &art,
             const std::vector<SetupResult> &setups,
             const PhaseResult &plain, const PhaseResult &traced,
             const std::vector<trace::SpanRecord> &spans,
             const serve::ServerStats &delta, const Tensor &image0,
             int nproc, bool *consistent)
{
    std::vector<Metric> m;
    const auto add = [&m](const std::string &name, double v,
                          const char *unit) { m.push_back({name, v, unit}); };

    // serve: attribute the traced requests to the BatchForward spans.
    std::vector<BatchRecord> batches;
    std::map<std::int64_t, std::size_t> forward_of; // span id -> batch
    std::vector<trace::SpanRecord> fwd_spans;
    for (const trace::SpanRecord &s : spans)
        if (s.name == "BatchForward")
            fwd_spans.push_back(s);
    std::sort(fwd_spans.begin(), fwd_spans.end(),
              [](const auto &a, const auto &b) { return a.t0_ns < b.t0_ns; });
    std::vector<double> fwd_ms;
    for (const trace::SpanRecord &s : fwd_spans) {
        forward_of[s.id] = batches.size();
        batches.push_back({static_cast<double>(s.t0_ns) / 1e6,
                           static_cast<double>(s.t1_ns) / 1e6, s.arg});
        fwd_ms.push_back(s.durMs());
    }
    const Attribution att = attributeToBatches(traced.reqs, batches);
    *consistent = att.consistent;
    std::vector<double> qwait, overhead;
    for (std::size_t i = 0; i < traced.reqs.size(); ++i) {
        if (att.batch[i] < 0)
            continue;
        const RequestRecord &r = traced.reqs[i];
        const BatchRecord &b = batches[static_cast<std::size_t>(att.batch[i])];
        qwait.push_back(b.start_ms - r.submit_ms);
        overhead.push_back(r.done_ms - r.submit_ms - (b.start_ms - r.submit_ms)
                           - (b.end_ms - b.start_ms));
    }
    add("serve.queue_wait_p50_ms", percentile(qwait, 0.5), "ms");
    add("serve.queue_wait_p90_ms", percentile(qwait, kTailPercentile), "ms");
    add("serve.batch_size_mean",
        delta.batches > 0 ? static_cast<double>(delta.served)
                / static_cast<double>(delta.batches)
                          : 0.0,
        "count");
    add("serve.overhead_p50_ms", percentile(overhead, 0.5), "ms");
    add("serve.expired", static_cast<double>(delta.expired), "count");
    add("serve.shed", static_cast<double>(delta.shed), "count");
    add("serve.deadline_flushes", static_cast<double>(delta.deadline_flushes),
        "count");
    add("nn.forward_p50_ms", percentile(fwd_ms, 0.5), "ms");

    // nn: self time per class under each forward, per image.
    const std::vector<double> self = trace::selfTimesMs(spans);
    std::map<std::string, std::vector<double>> per_fwd; // class -> [batch]
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = forward_of.find(spans[i].parent);
        if (it == forward_of.end())
            continue;
        auto &v = per_fwd[spans[i].cat];
        v.resize(batches.size(), 0.0);
        v[it->second] += self[i];
    }
    std::map<std::string, double> macs_per_img, dense_ms_per_img, cycles;
    const std::int64_t dense_batch = w.wave;
    sim::AccelConfig acfg;
    acfg.vq_k = kCodewords;
    acfg.vq_d = kSubvector;
    acfg.nm_n = kPatternN;
    acfg.nm_m = kPatternM;
    const core::CompressedModel &model = art.model();
    double gemm_calls = 0, macs = 0, a_bytes = 0, b_bytes = 0;
    double operand_bytes = 0, nnz = 0, tile_nnz = 0;
    for (std::int64_t i = 0; i < sn.layerCount(); ++i) {
        const models::ConvLayerSpec &c = net.convs[static_cast<std::size_t>(i)];
        const std::string cls = convClass(c.name);
        const auto &ops = *sn.layer(i).packedOperands();
        const double cols = static_cast<double>(c.outH() * c.outW());
        const double rows_k =
            static_cast<double>(c.in_c / c.groups * c.kernel * c.kernel);
        double layer_nnz = 0;
        for (const GroupedSparseMatrix &g : ops) {
            // What the default multi-row path reads per gemm call: tiles,
            // their column and value pools, bands, and the remainder CSR.
            const double kernel_bytes =
                static_cast<double>(g.tiles.size()
                                    * sizeof(GroupedSparseMatrix::Tile)
                                    + g.cols.size() * 4 + g.vals.size() * 4
                                    + g.band_ptr.size() * 8
                                    + g.remainder.row_ptr.size() * 8
                                    + g.remainder.col_idx.size() * 4
                                    + g.remainder.values.size() * 4);
            a_bytes += kernel_bytes;
            operand_bytes += kernel_bytes
                + static_cast<double>(g.rows.row_ptr.size() * 8
                                      + g.rows.col_idx.size() * 4
                                      + g.rows.values.size() * 4);
            b_bytes += rows_k * cols * 4.0;
            layer_nnz += static_cast<double>(g.rows.nnz());
            tile_nnz += static_cast<double>(g.tileNnz());
        }
        gemm_calls += static_cast<double>(ops.size());
        nnz += layer_nnz;
        macs += layer_nnz * cols;
        macs_per_img[cls] += layer_nnz * cols;
        dense_ms_per_img[cls] +=
            denseConvMs(c, model.reconstructLayer(static_cast<std::size_t>(i)),
                        dense_batch, kDenseReps)
            / static_cast<double>(dense_batch);
        cycles[cls] += static_cast<double>(
            perf::analyzeConvLayer(acfg, c, perf::WorkloadStats{})
                .counters.total_cycles);
    }

    const double ideal = static_cast<double>(kPatternM) / kPatternN;
    std::vector<std::string> classes = convClasses();
    classes.push_back("glue");
    for (const std::string &cls : classes) {
        double ms_img = 0.0, gflops = 0.0, frac = 0.0;
        if (const auto it = per_fwd.find(cls); it != per_fwd.end()) {
            std::vector<double> per_img;
            double flops = 0.0, ms = 0.0;
            for (std::size_t f = 0; f < batches.size(); ++f) {
                const auto b = static_cast<double>(batches[f].size);
                per_img.push_back(it->second[f] / b);
                flops += 2.0 * macs_per_img[cls] * b;
                ms += it->second[f];
            }
            ms_img = percentile(per_img, 0.5);
            gflops = ms > 0.0 ? flops / ms / 1e6 : 0.0;
            frac = ms_img > 0.0 ? dense_ms_per_img[cls] / ms_img / ideal : 0.0;
        }
        add("nn." + cls + ".ms", ms_img, "ms");
        if (cls == "glue")
            continue;
        add("nn." + cls + ".gflops", gflops, "GFLOP/s");
        add("nn." + cls + ".nm_ideal_frac", frac, "frac");
    }

    // tensor: computed from operand and im2col sizes, per image.
    add("tensor.gemm_calls", gemm_calls, "count");
    add("tensor.macs", macs, "count");
    add("tensor.a_bytes", a_bytes, "B");
    add("tensor.b_bytes", b_bytes, "B");

    // common/parallel: batch-1 forward at 1 thread vs the whole pool,
    // alternating so drift in machine speed hits both sides alike.
    const Tensor x1 = image0.reshaped(
        Shape({1, image0.dim(0), image0.dim(1), image0.dim(2)}));
    std::vector<double> one_ms, all_ms;
    for (int r = 0; r <= kSpeedupReps; ++r)
        for (const int threads : {1, nproc}) {
            setNumThreads(threads);
            const double t0 = trace::nowMs();
            sn.forward(x1);
            if (r > 0) // the first pair warms both pool sizes
                (threads == 1 ? one_ms : all_ms)
                    .push_back(trace::nowMs() - t0);
        }
    setNumThreads(nproc);
    add("parallel.speedup_b1",
        percentile(one_ms, 0.5) / percentile(all_ms, 0.5), "x");

    // core/io: medians over the cold set-ups.
    std::vector<double> open_ms, operands_ms, first_ms;
    for (const SetupResult &s : setups) {
        open_ms.push_back(s.open_ms);
        operands_ms.push_back(s.operands_ms);
        first_ms.push_back(s.first_forward_ms);
    }
    add("io.open_ms", percentile(open_ms, 0.5), "ms");
    add("io.operands_ms", percentile(operands_ms, 0.5), "ms");
    add("io.first_forward_ms", percentile(first_ms, 0.5), "ms");
    add("io.operand_mb", operand_bytes / 1e6, "MB");
    add("io.tile_nnz_frac", nnz > 0 ? tile_nnz / nnz : 0.0, "frac");

    // perf: the modelled accelerator on the same geometry, per image.
    for (const std::string &cls : convClasses())
        add("perf." + cls + ".cycles", cycles[cls], "cycles");

    // The load generator itself.
    double failed = 0;
    for (const PhaseResult *p : {&plain, &traced})
        for (const RequestRecord &r : p->reqs)
            failed += r.outcome == Outcome::Ok ? 0 : 1;
    add("loadgen.sent",
        static_cast<double>(plain.reqs.size() + traced.reqs.size()), "count");
    add("loadgen.failed", failed, "count");

    // Tracing overhead: the traced phase against the untraced one.
    std::vector<double> lat_plain, lat_traced;
    for (const RequestRecord &r : plain.reqs)
        if (forwarded(r.outcome))
            lat_plain.push_back(r.latencyMs());
    for (const RequestRecord &r : traced.reqs)
        if (forwarded(r.outcome))
            lat_traced.push_back(r.latencyMs());
    const double p50_plain = percentile(lat_plain, 0.5);
    add("trace.overhead_p50_frac",
        p50_plain > 0.0 ? percentile(lat_traced, 0.5) / p50_plain - 1.0 : 0.0,
        "frac");
    return m;
}

int
cmdRun(const Args &args)
{
    pinAllocatorThresholds();
    const Workload &w = findWorkload(args.str("workload"));
    const std::uint64_t seed = args.u64("seed");
    const double seconds = args.real("seconds");
    const bool traced_run = args.str("trace") == "1";
    const std::string dir = args.str("dir");
    fatalIf(seconds <= 0.0, "--seconds must be positive");
    const int nproc = availableCpus();
    setNumThreads(nproc);

    const NetSpec net = resnet18Net();
    const std::vector<Tensor> images = makeImages(net, seed, kImages);
    const Shape chw = images.front().shape();
    const std::string path = artifactPath(dir, w);

    // The stack that serves the measured phase. Traced, its open and
    // operand borrows land in the trace file.
    trace::setEnabled(traced_run);
    const Stack stack = openStack(w, net, path, chw);
    trace::setEnabled(false);
    const std::vector<trace::SpanRecord> setup_spans = trace::drain();
    serve::Server &server = *stack.server;

    // Batch-1 fast-path references, checked once against the dense oracle.
    std::vector<Tensor> refs;
    double max_rel = 0.0, out_rms = 0.0;
    bool correct = true;
    const std::vector<Tensor> dense = readFloats(dir + "/dense.bin", kImages);
    for (int i = 0; i < kImages; ++i) {
        const Tensor &img = images[static_cast<std::size_t>(i)];
        const Tensor &want = dense[static_cast<std::size_t>(i)];
        refs.push_back(stack.net->forward(
            img.reshaped(Shape({1, chw.dim(0), chw.dim(1), chw.dim(2)}))));
        fatalIf(refs.back().numel() != want.numel(), "dense.bin holds ",
                want.numel(), " values per output, the network gives ",
                refs.back().numel());
        correct = correct && allFinite(refs.back());
        out_rms += rms(refs.back()) / kImages;
        max_rel = std::max(max_rel, relError(refs.back().data(), want.data(),
                                             want.numel()));
    }
    correct = correct && max_rel <= kOracleTol;

    // Set-ups, each in a fresh process checking against these references.
    writeFloats(dir + "/refs.bin", refs);
    const std::vector<SetupResult> setups =
        runSetups(w, seed, dir, traced_run);
    std::vector<double> setup_s;
    std::int64_t attempted = 0, ok = 0;
    for (const SetupResult &s : setups) {
        setup_s.push_back(s.seconds);
        attempted += s.attempted;
        ok += s.ok;
    }
    // One probe wave warms this server's path at the workload's batch.
    attempted += w.wave;
    ok += probeWave(server, w, images, refs);
    correct = correct && ok == attempted;

    // Measured phases. The traced run splits its time into an untraced
    // and a traced phase with the same load, to report tracing overhead.
    LoadContext ctx{server, images, refs, w.limit_ms, 0};
    const std::int64_t min_requests =
        minSamplesFor(kTailPercentile, kTailSamples);
    const auto phase = [&](double secs) {
        return runClosedLoop(ctx, w.wave, secs, min_requests);
    };
    const serve::ServerStats before = server.stats();
    const PhaseResult plain = phase(traced_run ? seconds / 2 : seconds);
    PhaseResult traced;
    std::vector<trace::SpanRecord> spans;
    if (traced_run) {
        trace::setEnabled(true);
        traced = phase(seconds / 2);
        trace::setEnabled(false);
        spans = trace::drain();
    }
    server.shutdown();
    const serve::ServerStats after = server.stats();
    serve::ServerStats delta;
    delta.served = after.served - before.served;
    delta.batches = after.batches - before.batches;
    delta.expired = after.expired - before.expired;
    delta.shed = after.shed - before.shed;
    delta.deadline_flushes = after.deadline_flushes - before.deadline_flushes;

    // Every batch must have held exactly one wave.
    const bool full_batches = after.served == after.batches * w.wave
        && after.deadline_flushes == 0;
    correct = correct && full_batches;

    std::int64_t wrong = 0;
    for (const PhaseResult *p : {&plain, static_cast<const PhaseResult *>(&traced)})
        for (const RequestRecord &r : p->reqs) {
            ++attempted;
            ok += r.outcome == Outcome::Ok ? 1 : 0;
            wrong += r.outcome == Outcome::Wrong ? 1 : 0;
        }
    correct = correct && wrong == 0;

    std::vector<Metric> metrics;
    std::string trace_file;
    if (!traced_run) {
        std::vector<double> lat;
        double ok_measured = 0, served_ok = 0;
        for (const RequestRecord &r : plain.reqs) {
            if (forwarded(r.outcome))
                lat.push_back(r.latencyMs());
            ok_measured += r.outcome == Outcome::Ok ? 1 : 0;
            served_ok +=
                r.outcome == Outcome::Ok || r.outcome == Outcome::Late ? 1 : 0;
        }
        const double wall_s = (plain.end_ms - plain.start_ms) / 1e3;
        metrics = {
            {"setup_s", percentile(setup_s, 0.5), "s"},
            {"latency_p50_ms", percentile(lat, 0.5), "ms"},
            {"latency_p90_ms", percentile(lat, kTailPercentile), "ms"},
            {"images_per_s", served_ok / wall_s, "1/s"},
            {"ok_frac",
             ok_measured / static_cast<double>(plain.reqs.size()), "frac"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"artifact_mb", static_cast<double>(fileBytes(path)) / 1e6, "MB"},
        };
    } else {
        bool consistent = true;
        metrics = layerMetrics(w, net, *stack.net, *stack.art, setups, plain,
                               traced, spans, delta, images.front(), nproc,
                               &consistent);
        correct = correct && consistent;
        std::vector<trace::SpanRecord> all = setup_spans;
        all.insert(all.end(), spans.begin(), spans.end());
        trace_file = dir + "/trace.json";
        trace::writeChromeTrace(trace_file, all);
    }

    std::ostringstream meta;
    meta << "{\"workload\":" << jsonString(w.name) << ",\"seed\":" << seed
         << ",\"seconds\":" << jsonNumber(seconds)
         << ",\"trace\":" << (traced_run ? 1 : 0)
         << ",\"isa\":" << jsonString(simd::isaName(simd::activeIsa()))
         << ",\"pool_threads\":" << numThreads() << ",\"nproc\":" << nproc
         << ",\"cpu_model\":" << jsonString(cpuModel())
         << ",\"network\":" << jsonString(net.name)
         << ",\"artifact\":" << jsonString(io::artifactFormatName(w.format))
         << ",\"load\":\"closed_loop_1_client\""
         << ",\"wave\":" << w.wave << ",\"max_batch\":" << w.max_batch
         << ",\"hold_us\":" << w.hold_us
         << ",\"latency_limit_ms\":" << jsonNumber(w.limit_ms)
         << ",\"setup_processes\":" << w.setup_reps
         << ",\"requests\":" << plain.reqs.size() + traced.reqs.size()
         << ",\"batches\":" << after.batches
         << ",\"batch_images\":" << after.served
         << ",\"all_batches_full\":" << (full_batches ? "true" : "false")
         << ",\"oracle_max_rel_err\":" << jsonNumber(max_rel)
         << ",\"output_rms\":" << jsonNumber(out_rms)
         << ",\"tensor_counts\":\"computed from operand and im2col sizes\""
         << ",\"trace_file\":" << jsonString(trace_file) << "}";
    std::cout << "meta " << meta.str() << "\n";

    std::cout << "{\"correct\":" << (correct ? "true" : "false")
              << ",\"attempted\":" << attempted
              << ",\"failed\":" << attempted - ok << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::cout << (i ? "," : "") << jsonString(metrics[i].name)
                  << ":{\"value\":" << jsonNumber(metrics[i].value)
                  << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
    std::cout << "}}" << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const std::string cmd = argc > 1 ? argv[1] : "";
        const Args args(argc, argv);
        if (cmd == "prepare")
            return cmdPrepare(args);
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "setup")
            return cmdSetup(args);
        std::cerr << "usage: perfbench prepare|run|setup --workload W "
                     "--seed N --dir D [--seconds S] [--trace 0|1]\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
