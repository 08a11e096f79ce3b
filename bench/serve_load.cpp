/**
 * @file
 * Closed-loop load generator for the batched serving runtime.
 *
 * N client threads each submit one image, block on the future, and
 * immediately submit the next — classic closed-loop offered load. The
 * server coalesces admissions into batched forwards over a shared
 * CompressedNet (the default max_batch of 8, a 200 us deadline) and the
 * bench reports per-request p50/p99 latency and sustained images/s at
 * 1, 8, and 64 concurrent clients.
 *
 * At the highest client count the sweep also runs a no-coalescing
 * baseline (max_batch = 1, same model, same clients) so the batching
 * win is measured, not assumed, plus a *bounded* overload policy
 * (max_queue 16 + a per-request deadline): clients race a queue that
 * sheds, latencies are recorded for completed requests only, and the
 * row reports shed/expired counts and goodput — requests that
 * completed within their deadline per second — demonstrating that
 * shedding keeps p99 bounded instead of letting the backlog grow.
 * Emits JSON-lines records via --json; with
 * MVQ_BENCH_GATE_MIN_IMAGES_PER_SEC set, exits nonzero when batched
 * throughput at the highest client count falls below the floor (CI
 * regression gate).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "core/io/model_artifact.hpp"
#include "core/mask_codec.hpp"
#include "nn/compressed_net.hpp"
#include "serve/server.hpp"

namespace {

using namespace mvq;
using namespace mvq::core;

/**
 * Chainable three-layer compressed conv stack: [16, 8, 3, 3] 4:16
 * feeding two [16, 16, 3, 3] 2:4 layers, all stride 1 / pad 1 over
 * 8x8 images. Sized like the per-request slice of an edge-serving
 * model: small enough that per-forward fixed costs (batcher wakeup,
 * pool fan-out/join, tensor allocation) are a visible fraction of a
 * single-image forward — exactly the regime batching exists for.
 */
CompressedModel
synthesizeServeModel()
{
    CompressedModel model;
    Rng rng(777);

    Codebook cb;
    cb.qbits = 8;
    cb.scale = 1.0f / 64.0f;
    cb.codewords = Tensor(Shape({256, 16}));
    for (std::int64_t i = 0; i < cb.codewords.numel(); ++i)
        cb.codewords[i] =
            static_cast<float>(rng.intIn(-127, 127)) * cb.scale;
    model.codebooks.push_back(std::move(cb));

    const struct
    {
        const char *name;
        std::int64_t out_c, in_c;
        NmPattern pattern;
    } specs[] = {
        {"serve0", 16, 8, NmPattern{4, 16}},
        {"serve1", 16, 16, NmPattern{2, 4}},
        {"serve2", 16, 16, NmPattern{2, 4}},
    };
    for (const auto &s : specs) {
        CompressedLayer l;
        l.name = s.name;
        l.weight_shape = Shape({s.out_c, s.in_c, 3, 3});
        l.cfg.k = 256;
        l.cfg.d = 16;
        l.cfg.pattern = s.pattern;
        l.cfg.grouping = Grouping::OutputChannelWise;
        l.cfg.codebook_bits = 8;
        l.codebook_id = 0;
        l.dense_flops = 2 * l.weight_shape.numel();
        const std::int64_t ng = l.weight_shape.numel() / l.cfg.d;
        const MaskCodec codec(l.cfg.pattern);
        for (std::int64_t j = 0; j < ng; ++j)
            l.assignments.push_back(
                static_cast<std::int32_t>(rng.intIn(0, 255)));
        const std::int64_t codes = ng * (l.cfg.d / l.cfg.pattern.m);
        for (std::int64_t j = 0; j < codes; ++j)
            l.mask_codes.push_back(static_cast<std::uint32_t>(
                rng.intIn(0, codec.codeCount() - 1)));
        model.layers.push_back(std::move(l));
    }
    return model;
}

struct RunResult
{
    double p50_us = 0.0;
    double p99_us = 0.0;
    double goodput_images_per_sec = 0.0; //!< completed-in-deadline / wall
    std::int64_t shed = 0;    //!< submits refused QueueFull
    std::int64_t expired = 0; //!< admitted but past deadline
    std::int64_t batches = 0;
    std::int64_t max_batch_served = 0;
};

double
percentile(std::vector<double> &sorted_us, double p)
{
    const std::size_t n = sorted_us.size();
    const std::size_t idx = std::min(
        n - 1, static_cast<std::size_t>(p * static_cast<double>(n)));
    return sorted_us[idx];
}

/** One closed-loop run: `clients` threads, `reqs_per_client` each. */
RunResult
runLoad(const nn::CompressedNet &net, const std::vector<Tensor> &images,
        int clients, int reqs_per_client, serve::ServeOptions opts)
{
    using clk = std::chrono::steady_clock;

    serve::Server server(
        Shape({net.inChannels(), images[0].dim(1), images[0].dim(2)}),
        [&net](const Tensor &x) { return net.forward(x); }, opts);

    // Warm-up: fault in operands and spin up the pool off the clock.
    // Deadline-exempt so a cold first forward cannot expire it.
    server.submitWithDeadline(images[0], serve::kNoDeadline).get();

    std::vector<std::vector<double>> lat(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    const clk::time_point t0 = clk::now();
    for (int c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            auto &mine = lat[static_cast<std::size_t>(c)];
            mine.reserve(static_cast<std::size_t>(reqs_per_client));
            for (int r = 0; r < reqs_per_client; ++r) {
                const Tensor &img = images[static_cast<std::size_t>(
                    (c + r) % static_cast<int>(images.size()))];
                const clk::time_point s = clk::now();
                try {
                    server.submit(img).get();
                } catch (const serve::RejectedError &) {
                    // Shed at admission or expired in the queue: the
                    // attempt is spent (closed loop — no retry); only
                    // completed requests contribute a latency sample.
                    std::this_thread::yield();
                    continue;
                }
                mine.push_back(
                    std::chrono::duration<double, std::micro>(clk::now()
                                                              - s)
                        .count());
            }
        });
    for (auto &t : threads)
        t.join();
    const double wall_s =
        std::chrono::duration<double>(clk::now() - t0).count();
    server.shutdown();

    std::vector<double> all;
    for (const auto &v : lat)
        all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());

    RunResult r;
    if (!all.empty()) {
        r.p50_us = percentile(all, 0.50);
        r.p99_us = percentile(all, 0.99);
    }
    r.goodput_images_per_sec = static_cast<double>(all.size()) / wall_s;
    const serve::ServerStats st = server.stats();
    r.shed = st.shed;
    r.expired = st.expired;
    r.batches = st.batches;
    r.max_batch_served = st.max_batch_served;
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
    const int reqs_per_client = mvq::bench::fastMode() ? 16 : 96;

    // Fixed 4-worker executor unless the user pinned MVQ_NUM_THREADS.
    // Batching amortizes each forward's pool fan-out/join across the
    // batch — the effect under measurement — and a machine-dependent
    // default would make runs incomparable. Results stay bit-identical
    // for any pool size (see common/parallel.hpp).
    if (!env::isSet("MVQ_NUM_THREADS"))
        setNumThreads(4);

    const std::string path = "/tmp/mvq_serve_load.mvqi";
    io::saveArtifact(synthesizeServeModel(), path, io::ArtifactFormat::Mvqi);
    const auto artifact = io::openArtifact(path);
    const nn::CompressedNet net(*artifact);

    Rng rng(4242);
    std::vector<Tensor> images;
    for (int i = 0; i < 8; ++i) {
        Tensor img(Shape({net.inChannels(), 8, 8}));
        img.fillNormal(rng, 0.0f, 1.0f);
        images.push_back(std::move(img));
    }

    // max_batch stays at its default (8). The deadline is set low: a
    // closed-loop generator drains to a sub-max_batch tail at the end of
    // every run, and a long hold there measures the deadline, not
    // batching.
    serve::ServeOptions batched;
    batched.deadline_us = 200;
    serve::ServeOptions unbatched;
    unbatched.max_batch = 1;
    unbatched.deadline_us = 0;
    // Bounded overload policy: a queue a fraction of the client count
    // plus a per-request deadline. Excess load sheds at admission (or
    // expires in the queue) instead of stretching every latency; the
    // interesting output is the p99 of what *completed* vs. the
    // unbounded batched row at the same client count.
    serve::ServeOptions bounded;
    bounded.deadline_us = 200;
    bounded.max_queue = 16;
    bounded.request_timeout_us = 20000;

    mvq::bench::printExperimentHeader(
        "serve_load: closed-loop batched-serving throughput and latency",
        "three-layer compressed conv stack over 8x8 images; each client "
        "resubmits the moment its future resolves");

    const int client_counts[] = {1, 8, 64};
    const int highest = client_counts[std::size(client_counts) - 1];

    mvq::TextTable t({"clients", "policy", "p50 us", "p99 us",
                      "goodput img/s", "shed", "expired", "batches",
                      "max batch"});
    const auto addRow = [&t](int clients, const char *policy,
                             const RunResult &r) {
        t.addRow({std::to_string(clients), policy, f1(r.p50_us),
                  f1(r.p99_us), f1(r.goodput_images_per_sec),
                  std::to_string(r.shed), std::to_string(r.expired),
                  std::to_string(r.batches),
                  std::to_string(r.max_batch_served)});
    };
    const auto record = [&json](const std::string &bench,
                                const RunResult &r) {
        appendBenchRecord(json, bench, "p50_us", r.p50_us);
        appendBenchRecord(json, bench, "p99_us", r.p99_us);
        // Unbounded policies complete every request, so goodput IS the
        // classic images/s there; keep emitting both names so existing
        // trend tooling keeps its series.
        appendBenchRecord(json, bench, "images_per_sec",
                          r.goodput_images_per_sec);
        appendBenchRecord(json, bench, "goodput_images_per_sec",
                          r.goodput_images_per_sec);
        appendBenchRecord(json, bench, "shed",
                          static_cast<double>(r.shed));
        appendBenchRecord(json, bench, "expired",
                          static_cast<double>(r.expired));
    };
    double gated_images_per_sec = 0.0;
    double nobatch_images_per_sec = 0.0;
    for (const int clients : client_counts) {
        const RunResult r =
            runLoad(net, images, clients, reqs_per_client, batched);
        addRow(clients, "batched", r);
        const std::string bench = "serve_load_c" + std::to_string(clients);
        record(bench, r);
        if (clients == highest) {
            gated_images_per_sec = r.goodput_images_per_sec;
            const RunResult nb = runLoad(net, images, clients,
                                         reqs_per_client, unbatched);
            nobatch_images_per_sec = nb.goodput_images_per_sec;
            addRow(clients, "max_batch=1", nb);
            record(bench + "_nobatch", nb);
            appendBenchRecord(json, bench, "batching_speedup",
                              r.goodput_images_per_sec
                                  / nb.goodput_images_per_sec);
            const RunResult bd = runLoad(net, images, clients,
                                         reqs_per_client, bounded);
            addRow(clients, "bounded q16", bd);
            record(bench + "_bounded", bd);
        }
    }
    t.print();
    std::cout << "batching speedup at " << highest << " clients: "
              << f2(gated_images_per_sec / nobatch_images_per_sec)
              << "x over max_batch=1\n";
    std::remove(path.c_str());

    if (const double floor =
            env::real("MVQ_BENCH_GATE_MIN_IMAGES_PER_SEC", 0.0);
        floor > 0.0) {
        if (gated_images_per_sec < floor) {
            std::cerr << "FAIL: " << f1(gated_images_per_sec)
                      << " images/s at " << highest
                      << " clients below the " << f1(floor)
                      << " floor (MVQ_BENCH_GATE_MIN_IMAGES_PER_SEC)\n";
            return 1;
        }
        std::cout << "gate: " << f1(gated_images_per_sec)
                  << " images/s >= " << f1(floor) << " floor: OK\n";
    }
    return 0;
}
