/**
 * @file
 * Concurrency stress for the serving runtime: N client threads hammer
 * one Server over one shared MVQI artifact with the real SteadyClock,
 * racing admission, batching, completion, and shutdown the way
 * production traffic does. Every response is memcmp-checked against the
 * sequentially computed reference for its image, so batch composition —
 * which is genuinely nondeterministic here — must never leak into
 * results. This binary rides the MVQ_SIMD ctest matrix and the
 * MVQ_SANITIZE=thread CI job at 1/4/16 pool threads (see ci.yml),
 * which is what turns the hammering into a race detector; see
 * tests/serve_test.cpp for the deterministic fake-clock behavior tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "core/io/model_artifact.hpp"
#include "nn/compressed_net.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace mvq::serve {
namespace {

constexpr int kClients = 8;
constexpr int kRequestsPerClient = 24;
constexpr int kDistinctImages = 6;

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

class ServeStressTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "/tmp/mvq_serve_stress_test.mvqi";
        core::io::saveArtifact(core::makeServeModel(), path_,
                               core::io::ArtifactFormat::Mvqi,
                               core::serveWriteOptions());
        artifact_ = core::io::openArtifact(path_);
        net_ = std::make_unique<nn::CompressedNet>(*artifact_);
        chw_ = Shape({net_->inChannels(), 6, 6});

        // Pre-compute the batch-1 reference output for every distinct
        // image; clients then verify each response against it.
        Rng rng(2024);
        for (int i = 0; i < kDistinctImages; ++i) {
            Tensor img(chw_);
            img.fillNormal(rng, 0.0f, 1.0f);
            Tensor x1(Shape({1, chw_.dim(0), chw_.dim(1), chw_.dim(2)}));
            std::memcpy(x1.data(), img.data(),
                        static_cast<std::size_t>(img.numel())
                            * sizeof(float));
            const Tensor y1 = net_->forward(x1);
            Tensor ref(Shape({y1.dim(1), y1.dim(2), y1.dim(3)}));
            std::memcpy(ref.data(), y1.data(),
                        static_cast<std::size_t>(ref.numel())
                            * sizeof(float));
            images_.push_back(std::move(img));
            refs_.push_back(std::move(ref));
        }
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
    std::unique_ptr<core::io::ModelArtifact> artifact_;
    std::unique_ptr<nn::CompressedNet> net_;
    Shape chw_;
    std::vector<Tensor> images_;
    std::vector<Tensor> refs_;
};

TEST_F(ServeStressTest, ConcurrentClientsGetBitIdenticalResults)
{
    ServeOptions opts;
    opts.max_batch = 4;
    opts.deadline_us = 200; // tight: exercises both flush reasons
    Server server(chw_,
                  [this](const Tensor &x) { return net_->forward(x); },
                  opts);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (int r = 0; r < kRequestsPerClient; ++r) {
                const std::size_t which = static_cast<std::size_t>(
                    (c * kRequestsPerClient + r) % kDistinctImages);
                std::future<Tensor> fut =
                    server.submit(images_[which]);
                const Tensor out = fut.get();
                if (!tensorsBitIdentical(out, refs_[which]))
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    const ServerStats st = server.stats();
    EXPECT_EQ(st.admitted, kClients * kRequestsPerClient);
    EXPECT_EQ(st.served, kClients * kRequestsPerClient);
    EXPECT_EQ(st.rejected, 0);
    EXPECT_GE(st.batches, (kClients * kRequestsPerClient + 3) / 4);
    EXPECT_LE(st.max_batch_served, 4);
}

TEST_F(ServeStressTest, ShutdownRacesInFlightSubmissions)
{
    ServeOptions opts;
    opts.max_batch = 8;
    opts.deadline_us = 500;
    auto server = std::make_unique<Server>(
        chw_, [this](const Tensor &x) { return net_->forward(x); }, opts);

    // Clients submit until the server refuses; every future obtained
    // BEFORE the refusal must still resolve correctly (shutdown drains,
    // never drops).
    std::atomic<int> accepted{0};
    std::atomic<int> drained_ok{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (int r = 0;; ++r) {
                const std::size_t which = static_cast<std::size_t>(
                    (c + r) % kDistinctImages);
                std::future<Tensor> fut;
                try {
                    fut = server->submit(images_[which]);
                } catch (const FatalError &) {
                    return; // shutdown reached this client
                }
                accepted.fetch_add(1, std::memory_order_relaxed);
                if (tensorsBitIdentical(fut.get(), refs_[which]))
                    drained_ok.fetch_add(1, std::memory_order_relaxed);
            }
        });
    // Let traffic build, then pull the plug while clients are mid-loop.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server->shutdown();
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(drained_ok.load(), accepted.load());
    const ServerStats st = server->stats();
    EXPECT_EQ(st.served, accepted.load());
}

TEST_F(ServeStressTest, ManyServersShareOneArtifactOperandSet)
{
    // Two servers over nets built from the same artifact share packed
    // operands (the MVQI zero-copy serving pattern); both must agree
    // with the references under concurrent traffic.
    nn::CompressedNet net2(*artifact_);
    ASSERT_EQ(net2.layer(0).packedOperands().get(),
              net_->layer(0).packedOperands().get());

    ServeOptions opts;
    opts.max_batch = 4;
    opts.deadline_us = 200;
    Server s1(chw_, [this](const Tensor &x) { return net_->forward(x); },
              opts);
    Server s2(chw_, [&net2](const Tensor &x) { return net2.forward(x); },
              opts);

    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            Server &target = (c % 2 == 0) ? s1 : s2;
            for (int r = 0; r < kRequestsPerClient; ++r) {
                const std::size_t which =
                    static_cast<std::size_t>((c * 3 + r) % kDistinctImages);
                if (!tensorsBitIdentical(
                        target.submit(images_[which]).get(), refs_[which]))
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace mvq::serve
