/**
 * @file
 * Tests of the benchmark's own logic: the percentile rule, seeded inputs,
 * the attribution of requests to batches, and the ResNet-18 glue against
 * the dense oracle on a small geometry. Run by
 * `python3 perfbench/run.py --selftest`, which passes a scratch directory
 * for the artifacts.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "loadgen.hpp"
#include "nets.hpp"
#include "stats.hpp"

namespace {

using namespace mvq;
using namespace perfbench;
namespace io = mvq::core::io;

int g_failures = 0;

void
check(bool cond, const std::string &what)
{
    if (!cond) {
        ++g_failures;
        std::cout << "  FAIL: " << what << "\n";
    }
}

void
percentileRule()
{
    check(nearestRank(100, 0.9) == 90, "p90 of 100 is the 90th sample");
    check(samplesBeyond(100, 0.9) == 10, "p90 of 100 keeps 10 beyond");
    check(samplesBeyond(99, 0.9) == 9, "p90 of 99 keeps only 9 beyond");
    check(minSamplesFor(kTailPercentile, kTailSamples) == 100,
          "p90 needs 100 samples for 10 beyond");
    check(minSamplesFor(0.99, 10) == 1000, "p99 needs 1000 samples");
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    check(percentile(v, 0.9) == 90.0, "p90 of 1..100 is 90");
    check(percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile({7.0}, 0.9) == 7.0, "percentile of one sample");
    check(percentile({}, 0.5) == 0.0, "percentile of no samples is 0");
}

bool
sameTensors(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (!sameBytes(a[i], b[i]))
            return false;
    return true;
}

void
seededInputs()
{
    const NetSpec net = scaledNet(resnet18Net(), 4, 32);
    check(sameTensors(makeImages(net, 42, 3), makeImages(net, 42, 3)),
          "same seed, identical images");
    check(!sameTensors(makeImages(net, 42, 3), makeImages(net, 43, 3)),
          "another seed, other images");
    const auto a = synthesizeModel(net, 42);
    const auto b = synthesizeModel(net, 42);
    const auto c = synthesizeModel(net, 43);
    check(a.layers.front().assignments == b.layers.front().assignments
              && a.layers.back().mask_codes == b.layers.back().mask_codes,
          "same seed, identical weights");
    check(a.layers.front().assignments != c.layers.front().assignments,
          "another seed, other weights");
}

RequestRecord
req(std::int64_t id, double submit, double done, Outcome o)
{
    RequestRecord r;
    r.id = id;
    r.submit_ms = submit;
    r.done_ms = done;
    r.outcome = o;
    return r;
}

void
batchAttribution()
{
    // Five requests; the third expired in the queue, so batches of 2 and
    // 2 hold requests {0, 1} and {3, 4}.
    const std::vector<RequestRecord> reqs = {
        req(0, 0.0, 12.0, Outcome::Ok), req(1, 1.0, 12.5, Outcome::Ok),
        req(2, 2.0, 9.0, Outcome::Expired), req(3, 3.0, 30.0, Outcome::Late),
        req(4, 4.0, 30.5, Outcome::Ok)};
    const std::vector<BatchRecord> batches = {{5.0, 11.0, 2}, {13.0, 29.0, 2}};
    const Attribution a = attributeToBatches(reqs, batches);
    check(a.consistent, "FIFO attribution is consistent");
    check(a.batch == std::vector<std::ptrdiff_t>{0, 0, -1, 1, 1},
          "requests map to batches in admission order, skipping expiry");
    // Queue wait is the batch start minus the submit time.
    check(batches[1].start_ms - reqs[3].submit_ms == 10.0,
          "queue wait of request 3 is 10 ms");

    check(!attributeToBatches(reqs, {{5.0, 11.0, 2}}).consistent,
          "more forwarded requests than batch slots is inconsistent");
    check(!attributeToBatches(reqs, {{5.0, 11.0, 2}, {13.0, 29.0, 3}})
               .consistent,
          "an unfilled batch slot is inconsistent");
    check(!attributeToBatches(reqs, {{0.5, 11.0, 2}, {13.0, 29.0, 2}})
               .consistent,
          "a batch starting before its request was submitted is "
          "inconsistent");
}

/** Served forward vs the dense oracle, and batched vs batch-1 bytes. */
void
servedVsOracle(const NetSpec &net, const std::string &dir)
{
    const core::CompressedModel model = synthesizeModel(net, 7);
    const std::string mvqi = dir + "/selftest_" + net.name + ".mvqi";
    const std::string stream = dir + "/selftest_" + net.name + ".mvq";
    io::saveArtifact(model, mvqi, io::ArtifactFormat::Mvqi, bakedGroups(net));
    io::saveArtifact(model, stream, io::ArtifactFormat::Stream);

    const std::vector<Tensor> images = makeImages(net, 7, 3);
    const Tensor batch = stackImages(images);

    const auto art = io::openArtifact(mvqi);
    const ServedNet sn(net, *art);
    const Tensor served = sn.forward(batch);
    const Tensor dense = denseOracle(net, model)->forward(batch, false);
    check(served.shape() == dense.shape(), net.name + ": output shapes agree");
    check(allFinite(served), net.name + ": outputs are finite");
    const double err = relError(served.data(), dense.data(), served.numel());
    check(err <= 1e-4, net.name + ": served vs dense oracle rel err "
                           + std::to_string(err) + " <= 1e-4");
    const double r = rms(served);
    check(r > 0.05 && r < 20.0,
          net.name + ": output rms " + std::to_string(r) + " is O(1)");

    const std::int64_t per = served.numel() / 3;
    for (std::int64_t i = 0; i < 3; ++i) {
        const Tensor one = sn.forward(images[static_cast<std::size_t>(i)]
                                          .reshaped(Shape({1, net.in_c,
                                                           net.in_hw,
                                                           net.in_hw})));
        check(std::memcmp(one.data(), served.data() + i * per,
                          static_cast<std::size_t>(per) * sizeof(float))
                  == 0,
              net.name + ": batched output is bit-identical to batch-1");
    }

    const auto sart = io::openArtifact(stream);
    const Tensor from_stream = ServedNet(net, *sart).forward(batch);
    check(std::memcmp(from_stream.data(), served.data(),
                      static_cast<std::size_t>(served.numel()) * sizeof(float))
              == 0,
          net.name + ": stream and MVQI artifacts serve identical bytes");
    std::remove(mvqi.c_str());
    std::remove(stream.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    const std::vector<std::pair<std::string, std::function<void()>>> tests = {
        {"percentile_rule", percentileRule},
        {"seeded_inputs", seededInputs},
        {"batch_attribution", batchAttribution},
        {"resnet18_glue_vs_dense_oracle",
         [&] { servedVsOracle(scaledNet(resnet18Net(), 4, 32), dir); }},
    };
    for (const auto &[name, fn] : tests) {
        const int before = g_failures;
        try {
            fn();
        } catch (const std::exception &e) {
            check(false, std::string("threw: ") + e.what());
        }
        std::cout << (g_failures == before ? "PASS " : "FAIL ") << name
                  << "\n";
    }
    std::cout << (g_failures == 0 ? "all passed" : "FAILURES") << "\n";
    return g_failures == 0 ? 0 : 1;
}
