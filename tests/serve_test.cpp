/**
 * @file
 * Deterministic tests for the batched serving runtime (src/serve). A
 * ManualClock drives every batching decision, so batch composition is a
 * pure function of (submissions, clock advances): coalescing honors the
 * latency deadline and max_batch (a "never" deadline included), futures
 * complete in admission order, shutdown drains the queue, and malformed
 * requests and policies are rejected with diagnostics. The model-level
 * test proves the serving contract that makes batching safe at all: a
 * batched forward through CompressedNet is memcmp-identical to
 * sequential single-image forwards (riding the MVQ_SIMD ctest matrix, so
 * the proof holds per ISA).
 *
 * "Not ready" assertions use future::wait_for with a real-time grace
 * period; they are still deterministic in outcome because the fake
 * clock cannot advance on its own — a future that must not complete
 * CANNOT complete, no matter how long the wall waits.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

using core::makeServeModel;
using core::serveWriteOptions;

constexpr auto kGrace = std::chrono::milliseconds(100);

/** Rank-preserving fake model: y = 2x + 1 elementwise. */
Tensor
affineEcho(const Tensor &x)
{
    Tensor y = x;
    for (std::int64_t i = 0; i < y.numel(); ++i)
        y[i] = 2.0f * y[i] + 1.0f;
    return y;
}

/** A [C, H, W] image filled with a constant tag value. */
Tensor
taggedImage(const Shape &chw, float tag)
{
    Tensor t(chw);
    t.fill(tag);
    return t;
}

bool
tensorsBitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
            == 0;
}

/** Server over the fake clock with an explicit policy. */
struct FakeClockServer
{
    std::shared_ptr<ManualClock> clock = std::make_shared<ManualClock>();
    Shape chw{2, 3, 3};
    std::unique_ptr<Server> server;

    FakeClockServer(std::int64_t max_batch, std::int64_t deadline_us,
                    Server::BatchForward fn = &affineEcho)
    {
        ServeOptions opts;
        opts.max_batch = max_batch;
        opts.deadline_us = deadline_us;
        opts.clock = clock;
        server = std::make_unique<Server>(chw, std::move(fn), opts);
    }
};

TEST(SteadyClockTest, FarFiniteDeadlineWaitsForThePredicate)
{
    // 1e16 us (~317 years) is finite, and ServeOptions accepts it as a
    // deadline, but epoch + 1e16 us does not fit a nanosecond
    // steady_clock time_point. The wait must still block until another
    // thread sets the flag, not overflow into the past and return at
    // once.
    SteadyClock clock;
    std::atomic<bool> flag{false};
    std::thread setter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        flag = true;
        clock.notify();
    });
    const bool met = clock.waitUntil(10'000'000'000'000'000,
                                     [&] { return flag.load(); });
    const bool set_at_return = flag.load();
    setter.join();
    EXPECT_TRUE(met);
    EXPECT_TRUE(set_at_return);
}

TEST(ServeOptionsTest, DefaultPolicyBatchesEightOrFlushesAt2000Us)
{
    auto clock = std::make_shared<ManualClock>();
    ServeOptions opts;
    opts.clock = clock;
    const Shape chw{2, 3, 3};
    Server server(chw, &affineEcho, opts);

    // Seven images: one short of the default max_batch (8), so only the
    // default 2000 us deadline can launch them.
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 7; ++i)
        futs.push_back(
            server.submit(taggedImage(chw, static_cast<float>(i))));
    clock->advance(1999);
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);
    clock->advance(1);
    for (int i = 0; i < 7; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);

    // Eight images fill a batch and launch with the clock parked.
    futs.clear();
    for (int i = 0; i < 8; ++i)
        futs.push_back(
            server.submit(taggedImage(chw, static_cast<float>(i))));
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = server.stats();
    EXPECT_EQ(st.batches, 2);
    EXPECT_EQ(st.max_batch_served, 8);
    EXPECT_EQ(st.deadline_flushes, 1);
    EXPECT_EQ(st.expired, 0);
}

TEST(ServeOptionsTest, RejectsInvalidPolicy)
{
    // 0 and -1 are out of range like any other bad value, and the
    // rejection names the field at fault.
    struct Case
    {
        const char *field;
        std::int64_t ServeOptions::*member;
        std::int64_t value;
    };
    for (const Case &c :
         {Case{"max_batch", &ServeOptions::max_batch, -2},
          Case{"max_batch", &ServeOptions::max_batch, 0},
          Case{"deadline_us", &ServeOptions::deadline_us, -1}}) {
        ServeOptions opts;
        opts.*c.member = c.value;
        try {
            Server s(Shape({2, 3, 3}), &affineEcho, opts);
            ADD_FAILURE() << c.field << " = " << c.value << " accepted";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
                << e.what();
        }
    }
    EXPECT_THROW(Server(Shape({2, 3}), &affineEcho), FatalError);
    EXPECT_THROW(Server(Shape({2, 3, 3}), Server::BatchForward{}),
                 FatalError);
}

TEST(ServeBatchingTest, CoalescesUntilDeadline)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));

    // Three of four slots filled and the clock parked before the
    // deadline: the batcher must hold the window open.
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);
    f.clock->advance(999);
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);

    // Reaching the deadline flushes the partial batch.
    f.clock->advance(1);
    for (int i = 0; i < 3; ++i) {
        const Tensor out = futs[static_cast<std::size_t>(i)].get();
        EXPECT_EQ(out.shape(), f.chw);
        EXPECT_FLOAT_EQ(out[0], 2.0f * static_cast<float>(i) + 1.0f);
    }
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 3);
    EXPECT_EQ(st.served, 3);
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.max_batch_served, 3);
    EXPECT_EQ(st.deadline_flushes, 1);
}

TEST(ServeBatchingTest, FullBatchLaunchesWithoutClockAdvance)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // Two full batches fire on size alone — the deadline is an hour away
    // and the fake clock never moves.
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.batches, 2);
    EXPECT_EQ(st.max_batch_served, 4);
    EXPECT_EQ(st.deadline_flushes, 0);
}

TEST(ServeBatchingTest, NeverDeadlineHoldsImageForFullBatch)
{
    // deadline_us = kNoDeadline means "wait for a full batch": admit + the
    // deadline saturates instead of wrapping negative and flushing the
    // first image alone. The clock is off zero so the sum could overflow.
    FakeClockServer f(/*max_batch=*/2, /*deadline_us=*/kNoDeadline);
    f.clock->advance(1);
    auto first = f.server->submit(taggedImage(f.chw, 0.0f));
    EXPECT_EQ(first.wait_for(kGrace), std::future_status::timeout);
    auto second = f.server->submit(taggedImage(f.chw, 1.0f));
    EXPECT_FLOAT_EQ(first.get()[0], 1.0f);
    EXPECT_FLOAT_EQ(second.get()[0], 3.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.max_batch_served, 2);
    EXPECT_EQ(st.deadline_flushes, 0);
}

TEST(ServeBatchingTest, NeverRequestTimeoutServesTheRequest)
{
    // request_timeout_us = kNoDeadline: the request's deadline saturates
    // at "never" instead of wrapping into the past and expiring at once.
    auto clock = std::make_shared<ManualClock>();
    clock->advance(1);
    ServeOptions opts;
    opts.max_batch = 1;
    opts.request_timeout_us = kNoDeadline;
    opts.clock = clock;
    const Shape chw{2, 3, 3};
    Server server(chw, &affineEcho, opts);
    auto fut = server.submit(taggedImage(chw, 2.0f));
    EXPECT_FLOAT_EQ(fut.get()[0], 5.0f);
    const ServerStats st = server.stats();
    EXPECT_EQ(st.served, 1);
    EXPECT_EQ(st.expired, 0);
}

TEST(ServeBatchingTest, OverfullQueueSplitsAtMaxBatch)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 10; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // 10 requests, cap 4: two full batches complete on size; the
    // 2-image remainder waits for the deadline.
    for (int i = 0; i < 8; ++i)
        futs[static_cast<std::size_t>(i)].wait();
    EXPECT_EQ(futs[8].wait_for(kGrace), std::future_status::timeout);
    f.clock->advance(1000);
    for (int i = 8; i < 10; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 10);
    EXPECT_EQ(st.served, 10);
    EXPECT_EQ(st.batches, 3);
    EXPECT_EQ(st.max_batch_served, 4);
    EXPECT_EQ(st.deadline_flushes, 1);
}

TEST(ServeBatchingTest, FuturesCompleteInAdmissionOrder)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 6; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    // The first (full) batch is requests 0..3, claimed FIFO; 4 and 5
    // must still be pending when 0..3 are done.
    for (int i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    EXPECT_EQ(futs[4].wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    EXPECT_EQ(futs[5].wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
    f.clock->advance(1000);
    for (int i = 4; i < 6; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
}

TEST(ServeBatchingTest, ShutdownDrainsQueue)
{
    FakeClockServer f(/*max_batch=*/100, /*deadline_us=*/1000000000);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 5; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    EXPECT_EQ(futs[0].wait_for(kGrace), std::future_status::timeout);

    // Neither the batch size (100) nor the deadline (forever away on a
    // parked clock) is reachable: only the shutdown drain completes
    // these, and it must complete ALL of them.
    f.server->shutdown();
    for (int i = 0; i < 5; ++i)
        EXPECT_FLOAT_EQ(futs[static_cast<std::size_t>(i)].get()[0],
                        2.0f * static_cast<float>(i) + 1.0f);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.served, 5);

    EXPECT_THROW(f.server->submit(taggedImage(f.chw, 9.0f)), FatalError);
    EXPECT_EQ(f.server->stats().rejected, 1);
}

TEST(ServeRejectionTest, MalformedRequestsAreRejectedWithDiagnostics)
{
    FakeClockServer f(/*max_batch=*/4, /*deadline_us=*/1000);
    try {
        f.server->submit(Tensor());
        FAIL() << "zero-size image accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("zero-size"),
                  std::string::npos)
            << e.what();
    }
    try {
        f.server->submit(Tensor(Shape({2, 4, 4})));
        FAIL() << "oversized image accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("[2, 3, 3]"),
                  std::string::npos)
            << e.what();
    }
    // Batched submissions are rejected too: one image per request.
    EXPECT_THROW(f.server->submit(Tensor(Shape({1, 2, 3, 3}))),
                 FatalError);
    EXPECT_EQ(f.server->stats().rejected, 3);
    EXPECT_EQ(f.server->stats().admitted, 0);
}

TEST(ServeBatchingTest, ForwardExceptionPropagatesToEveryFuture)
{
    auto throwing = [](const Tensor &) -> Tensor {
        fatal("model exploded");
    };
    FakeClockServer f(/*max_batch=*/2, /*deadline_us=*/1000, throwing);
    auto f0 = f.server->submit(taggedImage(f.chw, 0.0f));
    auto f1 = f.server->submit(taggedImage(f.chw, 1.0f));
    EXPECT_THROW(f0.get(), FatalError);
    EXPECT_THROW(f1.get(), FatalError);
    // The batcher survives a failing batch and keeps counting.
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.batches, 1);
    EXPECT_EQ(st.served, 0);
}

// ---------------------------------------------------------------- model

class ServeNetTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "/tmp/mvq_serve_test.mvqi";
        core::io::saveArtifact(makeServeModel(), path_,
                               core::io::ArtifactFormat::Mvqi,
                               serveWriteOptions());
        artifact_ = core::io::openArtifact(path_);
        net_ = std::make_unique<nn::CompressedNet>(*artifact_);
    }

    void TearDown() override { std::remove(path_.c_str()); }

    Tensor
    randomImage(Rng &rng) const
    {
        Tensor t(Shape({net_->inChannels(), 6, 6}));
        t.fillNormal(rng, 0.0f, 1.0f);
        return t;
    }

    std::string path_;
    std::unique_ptr<core::io::ModelArtifact> artifact_;
    std::unique_ptr<nn::CompressedNet> net_;
};

TEST_F(ServeNetTest, CompressedNetChainsLayersOverSharedOperands)
{
    EXPECT_EQ(net_->layerCount(), 2);
    EXPECT_EQ(net_->inChannels(), 8);
    Tensor x(Shape({2, 8, 6, 6}));
    Rng rng(42);
    x.fillNormal(rng, 0.0f, 1.0f);
    const Tensor y = net_->forward(x);
    // Two pad-1 stride-1 3x3 convs: spatial size survives, channels
    // become layer 1's output count.
    EXPECT_EQ(y.shape(), Shape({2, 16, 6, 6}));
    // The net borrows the artifact's cached operands instead of packing
    // its own copy.
    EXPECT_EQ(net_->layer(0).packedOperands().get(),
              artifact_->packedOperands(0).get());
}

TEST_F(ServeNetTest, BatchedForwardBitIdenticalToSequentialForwards)
{
    constexpr int kImages = 8;
    Rng rng(7);
    std::vector<Tensor> images;
    std::vector<Tensor> refs;
    for (int i = 0; i < kImages; ++i) {
        images.push_back(randomImage(rng));
        // Sequential reference: one image per forward (batch of 1).
        Tensor x1(Shape({1, net_->inChannels(), 6, 6}));
        std::memcpy(x1.data(), images.back().data(),
                    static_cast<std::size_t>(images.back().numel())
                        * sizeof(float));
        const Tensor y1 = net_->forward(x1);
        Tensor slab(Shape({y1.dim(1), y1.dim(2), y1.dim(3)}));
        std::memcpy(slab.data(), y1.data(),
                    static_cast<std::size_t>(slab.numel()) * sizeof(float));
        refs.push_back(std::move(slab));
    }

    // One full batch of 8, ragged batches of up to 3 that never wait,
    // and no coalescing at all: composition must not matter.
    struct Policy
    {
        std::int64_t max_batch;
        std::int64_t deadline_us;
        std::int64_t batches; //!< 0: set by timing
        const char *name;
    };
    for (const Policy &p : {Policy{kImages, 1000000, 1, "one full batch"},
                            Policy{3, 0, 0, "ragged batches"},
                            Policy{1, 0, kImages, "max_batch 1"}}) {
        ServeOptions opts;
        opts.max_batch = p.max_batch;
        opts.deadline_us = p.deadline_us;
        Server server(Shape({net_->inChannels(), 6, 6}),
                      [this](const Tensor &x) { return net_->forward(x); },
                      opts);
        std::vector<std::future<Tensor>> futs;
        for (const Tensor &img : images)
            futs.push_back(server.submit(img));
        for (int i = 0; i < kImages; ++i)
            EXPECT_TRUE(tensorsBitIdentical(
                futs[static_cast<std::size_t>(i)].get(),
                refs[static_cast<std::size_t>(i)]))
                << "image " << i << " differs under " << p.name;
        if (p.batches > 0) {
            EXPECT_EQ(server.stats().batches, p.batches) << p.name;
        }
    }
}

} // namespace
} // namespace mvq::serve
