/**
 * @file
 * Overload and failure-path tests for the serving runtime, driven by a
 * ManualClock and the deterministic fault registry (src/common/fault):
 * queue-full shedding at the exact ServeOptions::max_queue boundary,
 * request expiry at deadline-1 vs deadline, batch isolation (a faulted
 * forward fails only its own batch), Healthy/Degraded/Failed health
 * transitions, fault-plan determinism (same plan, same traffic -> same
 * rejection sequence and memcmp-identical survivor outputs), a
 * real-clock concurrent hammering test that rides the TSan CI tier, and
 * a plan sweep: the same traffic under several fault plans, where every
 * future must complete and nothing may leak (ASan with leak checks) or
 * race (TSan), whichever request succeeds.
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

#include "common/fault.hpp"
#include "common/logging.hpp"
#include "core/io/model_artifact.hpp"
#include "serve/server.hpp"
#include "serve_test_util.hpp"

namespace mvq::serve {
namespace {

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

/** Assert `fn` throws RejectedError carrying exactly `why`. */
template <typename Fn>
void
expectRejected(Fn &&fn, RejectReason why)
{
    try {
        fn();
        FAIL() << "expected RejectedError(" << rejectReasonName(why)
               << "), nothing thrown";
    } catch (const RejectedError &e) {
        EXPECT_EQ(e.reason(), why)
            << "got " << rejectReasonName(e.reason()) << ": " << e.what();
    }
}

/** Fresh fault registry per test: a leaked armed site in one test must
 *  never fire in the next. */
class ServeRobustnessTest : public ::testing::Test
{
  protected:
    void SetUp() override { fault::resetAll(); }
    void TearDown() override { fault::resetAll(); }
};

/** ManualClock server with every policy field spelled out per test. */
struct RigidServer
{
    std::shared_ptr<ManualClock> clock = std::make_shared<ManualClock>();
    Shape chw{2, 3, 3};
    std::unique_ptr<Server> server;

    RigidServer(std::int64_t max_batch, std::int64_t deadline_us,
                std::int64_t max_queue,
                std::int64_t request_timeout_us = 0,
                std::int64_t fail_threshold = 1000000,
                Server::BatchForward fn = &affineEcho)
    {
        ServeOptions opts;
        opts.max_batch = max_batch;
        opts.deadline_us = deadline_us;
        opts.max_queue = max_queue;
        opts.request_timeout_us = request_timeout_us;
        opts.fail_threshold = fail_threshold;
        opts.clock = clock;
        server = std::make_unique<Server>(chw, std::move(fn), opts);
    }
};

// ------------------------------------------------------------- shedding

TEST_F(ServeRobustnessTest, ShedsExactlyAtQueueBoundary)
{
    constexpr std::int64_t kQueue = 4;
    constexpr int kOver = 3;
    // Batch size and flush deadline are both unreachable on the parked
    // clock, so every admitted request stays *in the queue* while the
    // over-limit submissions arrive: occupancy is exact, not racy.
    RigidServer f(/*max_batch=*/8, /*deadline_us=*/1000,
                  /*max_queue=*/kQueue);
    std::vector<std::future<Tensor>> futs;
    for (std::int64_t i = 0; i < kQueue; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    for (int i = 0; i < kOver; ++i)
        expectRejected(
            [&] { (void)f.server->submit(taggedImage(f.chw, 99.0f)); },
            RejectReason::QueueFull);

    ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, kQueue);
    EXPECT_EQ(st.shed, kOver);
    EXPECT_EQ(st.rejected, kOver);
    EXPECT_EQ(st.expired, 0);

    // The k admitted requests are unaffected by the shedding: flushing
    // serves all of them, bit-identical to the sequential reference.
    f.clock->advance(1000);
    for (std::int64_t i = 0; i < kQueue; ++i) {
        const Tensor ref =
            affineEcho(taggedImage(f.chw, static_cast<float>(i)));
        EXPECT_TRUE(tensorsBitIdentical(
            futs[static_cast<std::size_t>(i)].get(), ref))
            << "admitted request " << i << " not bit-identical";
    }
    st = f.server->stats();
    EXPECT_EQ(st.served, kQueue);

    // Serving freed the queue: admission works again.
    auto fut = f.server->submit(taggedImage(f.chw, 7.0f));
    f.clock->advance(1000);
    EXPECT_TRUE(tensorsBitIdentical(
        fut.get(), affineEcho(taggedImage(f.chw, 7.0f))));
}

TEST_F(ServeRobustnessTest, RejectsInvalidRobustnessPolicy)
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
         {Case{"max_queue", &ServeOptions::max_queue, -1},
          Case{"max_queue", &ServeOptions::max_queue, 0},
          Case{"request_timeout_us", &ServeOptions::request_timeout_us, -1},
          Case{"fail_threshold", &ServeOptions::fail_threshold, -3},
          Case{"fail_threshold", &ServeOptions::fail_threshold, 0}}) {
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
}

// -------------------------------------------------------------- expiry

TEST_F(ServeRobustnessTest, ExpiresAtDeadlineNotBefore)
{
    // The batch flush deadline is far away; the request's own absolute
    // deadline (500 us) is the only thing that can complete its future.
    RigidServer f(/*max_batch=*/8, /*deadline_us=*/1000000,
                  /*max_queue=*/16);
    auto fut = f.server->submitWithDeadline(taggedImage(f.chw, 1.0f), 500);

    f.clock->advance(499); // deadline - 1: still pending
    EXPECT_EQ(fut.wait_for(kGrace), std::future_status::timeout);
    EXPECT_EQ(f.server->stats().expired, 0);

    f.clock->advance(1); // exactly the deadline: expired
    expectRejected([&] { (void)fut.get(); },
                   RejectReason::DeadlineExpired);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 1);
    EXPECT_EQ(st.expired, 1);
    EXPECT_EQ(st.served, 0);
    EXPECT_EQ(st.shed, 0); // expiry is not shedding
}

TEST_F(ServeRobustnessTest, DefaultDeadlineComesFromRequestTimeout)
{
    RigidServer f(/*max_batch=*/8, /*deadline_us=*/1000000,
                  /*max_queue=*/16, /*request_timeout_us=*/700);
    auto fut = f.server->submit(taggedImage(f.chw, 1.0f));
    f.clock->advance(699);
    EXPECT_EQ(fut.wait_for(kGrace), std::future_status::timeout);
    f.clock->advance(1);
    expectRejected([&] { (void)fut.get(); },
                   RejectReason::DeadlineExpired);
    EXPECT_EQ(f.server->stats().expired, 1);
}

TEST_F(ServeRobustnessTest, PastDeadlineIsAdmittedThenExpired)
{
    RigidServer f(/*max_batch=*/8, /*deadline_us=*/1000000,
                  /*max_queue=*/16);
    f.clock->advance(100);
    // Deadline already in the past: same path as any other expiry — the
    // request is admitted and the batcher drops it, with no clock
    // advance needed (its wake deadline has already been reached).
    auto fut = f.server->submitWithDeadline(taggedImage(f.chw, 1.0f), 50);
    expectRejected([&] { (void)fut.get(); },
                   RejectReason::DeadlineExpired);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.admitted, 1);
    EXPECT_EQ(st.expired, 1);
}

TEST_F(ServeRobustnessTest, ExpiredRequestsDoNotPoisonTheBatch)
{
    // A full queue of two, one past its deadline. Expiring it must not
    // touch the survivor, which then serves by batch-size launch.
    //
    // Two requests fill a max_batch 2 queue, so an idle batcher would
    // launch them the moment the second one lands, before the clock
    // moves. A gated first batch keeps the batcher busy until the clock
    // is past the deadline: its next claim sees the expired request.
    std::promise<void> open_gate;
    std::shared_future<void> gate = open_gate.get_future().share();
    RigidServer f(/*max_batch=*/2, /*deadline_us=*/1000000,
                  /*max_queue=*/16, /*request_timeout_us=*/0,
                  /*fail_threshold=*/1000000, [gate](const Tensor &x) {
                      gate.wait();
                      return affineEcho(x);
                  });
    auto plug0 = f.server->submit(taggedImage(f.chw, 4.0f));
    auto plug1 = f.server->submit(taggedImage(f.chw, 5.0f));
    auto doomed =
        f.server->submitWithDeadline(taggedImage(f.chw, 1.0f), 500);
    auto survivor = f.server->submitWithDeadline(
        taggedImage(f.chw, 2.0f), kNoDeadline);
    f.clock->advance(500);
    open_gate.set_value();
    EXPECT_TRUE(tensorsBitIdentical(
        plug0.get(), affineEcho(taggedImage(f.chw, 4.0f))));
    EXPECT_TRUE(tensorsBitIdentical(
        plug1.get(), affineEcho(taggedImage(f.chw, 5.0f))));
    expectRejected([&] { (void)doomed.get(); },
                   RejectReason::DeadlineExpired);
    // A served doomed request launched with the survivor, so a mate
    // would wait alone for a batch that never fills: stop here.
    if (HasFatalFailure())
        return;
    // One slot now free forever (max_batch 2, one queued): submit the
    // second half of the batch and both serve.
    auto mate = f.server->submitWithDeadline(taggedImage(f.chw, 3.0f),
                                             kNoDeadline);
    EXPECT_TRUE(tensorsBitIdentical(
        survivor.get(), affineEcho(taggedImage(f.chw, 2.0f))));
    EXPECT_TRUE(tensorsBitIdentical(
        mate.get(), affineEcho(taggedImage(f.chw, 3.0f))));
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.expired, 1);
    EXPECT_EQ(st.served, 4);
    EXPECT_EQ(st.batches, 2);
}

// ----------------------------------------------- batch isolation + health

TEST_F(ServeRobustnessTest, FaultedBatchFailsAloneAndHealthRecovers)
{
    fault::arm(fault::kServeForward, {/*nth=*/1});
    RigidServer f(/*max_batch=*/2, /*deadline_us=*/1000,
                  /*max_queue=*/16);
    EXPECT_EQ(f.server->health(), Health::Healthy);

    // Batch 1 (size-triggered): the armed forward throws; both futures
    // carry the injected exception and health degrades.
    auto f0 = f.server->submit(taggedImage(f.chw, 0.0f));
    auto f1 = f.server->submit(taggedImage(f.chw, 1.0f));
    EXPECT_THROW(f0.get(), fault::FaultInjected);
    EXPECT_THROW(f1.get(), fault::FaultInjected);
    EXPECT_EQ(f.server->health(), Health::Degraded);
    ServerStats st = f.server->stats();
    EXPECT_EQ(st.failed_batches, 1);
    EXPECT_EQ(st.served, 0);

    // Batch 2: the nth=1 schedule is spent; the server recovers without
    // intervention and the results match the sequential reference.
    auto f2 = f.server->submit(taggedImage(f.chw, 2.0f));
    auto f3 = f.server->submit(taggedImage(f.chw, 3.0f));
    EXPECT_TRUE(tensorsBitIdentical(
        f2.get(), affineEcho(taggedImage(f.chw, 2.0f))));
    EXPECT_TRUE(tensorsBitIdentical(
        f3.get(), affineEcho(taggedImage(f.chw, 3.0f))));
    EXPECT_EQ(f.server->health(), Health::Healthy);
    st = f.server->stats();
    EXPECT_EQ(st.failed_batches, 1);
    EXPECT_EQ(st.served, 2);
}

TEST_F(ServeRobustnessTest, HealthFailsAtThresholdAndStopsAdmitting)
{
    fault::arm(fault::kServeForward, {/*nth=*/0, /*every=*/1});
    RigidServer f(/*max_batch=*/1, /*deadline_us=*/1000,
                  /*max_queue=*/16, /*request_timeout_us=*/0,
                  /*fail_threshold=*/2);

    auto f0 = f.server->submit(taggedImage(f.chw, 0.0f));
    EXPECT_THROW(f0.get(), fault::FaultInjected);
    // Health moves before the failing batch's futures complete, so the
    // state is already observable here.
    EXPECT_EQ(f.server->health(), Health::Degraded);

    auto f1 = f.server->submit(taggedImage(f.chw, 1.0f));
    EXPECT_THROW(f1.get(), fault::FaultInjected);
    EXPECT_EQ(f.server->health(), Health::Failed);

    // Failed is sticky and stops admission — even after disarming the
    // fault, this server needs a restart, not a lucky batch.
    fault::disarm(fault::kServeForward);
    expectRejected(
        [&] { (void)f.server->submit(taggedImage(f.chw, 2.0f)); },
        RejectReason::Unhealthy);
    EXPECT_EQ(f.server->health(), Health::Failed);
    const ServerStats st = f.server->stats();
    EXPECT_EQ(st.failed_batches, 2);
    EXPECT_EQ(st.rejected, 1);
}

TEST_F(ServeRobustnessTest, BatcherStallSkipsOneCycleThenServes)
{
    fault::arm(fault::kBatcherStall, {/*nth=*/1});
    RigidServer f(/*max_batch=*/1, /*deadline_us=*/1000,
                  /*max_queue=*/16);
    // The stall site makes the batcher skip exactly one claim cycle;
    // the request still serves with no clock advance (size launch).
    auto fut = f.server->submit(taggedImage(f.chw, 5.0f));
    EXPECT_TRUE(tensorsBitIdentical(
        fut.get(), affineEcho(taggedImage(f.chw, 5.0f))));
    EXPECT_EQ(fault::stats(fault::kBatcherStall).fired, 1);
}

TEST_F(ServeRobustnessTest, ShutdownDrainsEvenWithStallArmedEveryCycle)
{
    // every=1 would stall every claim forever — except a draining
    // batcher never consults the stall site, so shutdown always lands.
    fault::arm(fault::kBatcherStall, {/*nth=*/0, /*every=*/1});
    RigidServer f(/*max_batch=*/8, /*deadline_us=*/1000000,
                  /*max_queue=*/16);
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(f.server->submit(
            taggedImage(f.chw, static_cast<float>(i))));
    f.server->shutdown();
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(tensorsBitIdentical(
            futs[static_cast<std::size_t>(i)].get(),
            affineEcho(taggedImage(f.chw, static_cast<float>(i)))));
    EXPECT_EQ(f.server->stats().served, 3);
}

// ------------------------------------------------------ plan determinism

/** One scripted overload scenario: arm `plan`, run 4 sequential
 *  single-request batches, record each outcome (+ output bytes). */
struct PlanRun
{
    std::vector<std::string> outcomes;
    std::vector<Tensor> survivors;
};

PlanRun
runScriptedPlan(const std::string &plan)
{
    fault::resetAll();
    fault::armFromPlan(plan);
    RigidServer f(/*max_batch=*/1, /*deadline_us=*/1000, /*max_queue=*/16);
    PlanRun run;
    for (int i = 0; i < 4; ++i) {
        auto fut = f.server->submit(
            taggedImage(f.chw, static_cast<float>(i)));
        try {
            run.survivors.push_back(fut.get());
            run.outcomes.emplace_back("served");
        } catch (const fault::FaultInjected &) {
            run.outcomes.emplace_back("fault");
        }
    }
    f.server->shutdown();
    fault::resetAll();
    return run;
}

TEST_F(ServeRobustnessTest, SamePlanSameTrafficSameOutcome)
{
    const std::string plan = "serve.forward:nth=2";
    const PlanRun a = runScriptedPlan(plan);
    const PlanRun b = runScriptedPlan(plan);
    const std::vector<std::string> expect = {"served", "fault", "served",
                                             "served"};
    EXPECT_EQ(a.outcomes, expect);
    EXPECT_EQ(b.outcomes, expect);
    ASSERT_EQ(a.survivors.size(), b.survivors.size());
    for (std::size_t i = 0; i < a.survivors.size(); ++i)
        EXPECT_TRUE(tensorsBitIdentical(a.survivors[i], b.survivors[i]))
            << "survivor " << i << " differs between identical plan runs";
}

TEST_F(ServeRobustnessTest, MalformedPlansAreFatalWithDiagnostics)
{
    EXPECT_THROW(fault::armFromPlan("serve.forward"), FatalError);
    EXPECT_THROW(fault::armFromPlan("bogus.site:nth=1"), FatalError);
    EXPECT_THROW(fault::armFromPlan("serve.forward:nth=1:every=2"),
                 FatalError);
    EXPECT_THROW(fault::armFromPlan("serve.forward:nth=banana"),
                 FatalError);
    EXPECT_THROW(fault::armFromPlan("serve.forward:mode=banana"),
                 FatalError);
    EXPECT_THROW(fault::arm(fault::kServeForward, {/*nth=*/-1}),
                 FatalError);
    // Failed arming leaves nothing armed: serving proceeds untouched.
    RigidServer f(/*max_batch=*/1, /*deadline_us=*/1000, /*max_queue=*/4);
    EXPECT_TRUE(tensorsBitIdentical(
        f.server->submit(taggedImage(f.chw, 1.0f)).get(),
        affineEcho(taggedImage(f.chw, 1.0f))));
}

// ------------------------------------------------------- artifact sites

class ServeArtifactFaultTest : public ServeRobustnessTest
{
  protected:
    void
    SetUp() override
    {
        ServeRobustnessTest::SetUp();
        path_ = "/tmp/mvq_serve_robustness_test.mvqi";
        core::io::saveArtifact(core::makeServeModel(), path_,
                               core::io::ArtifactFormat::Mvqi,
                               core::serveWriteOptions());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        ServeRobustnessTest::TearDown();
    }

    std::string path_;
};

TEST_F(ServeArtifactFaultTest, OpenFaultSurfacesAndDoesNotStick)
{
    fault::arm(fault::kArtifactOpen, {/*nth=*/1, /*every=*/0,
                                      fault::FaultMode::Error});
    EXPECT_THROW((void)core::io::openArtifact(path_), FatalError);
    // nth=1 is spent: the same path opens fine afterwards.
    auto artifact = core::io::openArtifact(path_);
    EXPECT_EQ(artifact->layerCount(), 2);
}

TEST_F(ServeArtifactFaultTest, OperandBorrowFaultDoesNotPoisonCache)
{
    auto artifact = core::io::openArtifact(path_);
    fault::arm(fault::kOperandBorrow, {/*nth=*/1});
    EXPECT_THROW((void)artifact->packedOperands(0),
                 fault::FaultInjected);
    // The failed borrow cached nothing; the retry builds and serves the
    // operands normally, and the usual sharing still holds.
    auto ops = artifact->packedOperands(0);
    EXPECT_EQ(ops.get(), artifact->packedOperands(0).get());
}

// --------------------------------------------------- concurrent hammering

TEST_F(ServeRobustnessTest, ConcurrentOverloadKeepsCountersConsistent)
{
    // Real clock, tiny queue, occasional forward faults: clients race
    // admission against shedding and batch failures. This is the TSan
    // target for the overload paths; the invariant under all schedules
    // is conservation — every submit is admitted or rejected, every
    // admitted request is served, failed, or expired, and the counters
    // agree with what the clients saw.
    fault::arm(fault::kServeForward, {/*nth=*/0, /*every=*/7});
    ServeOptions opts;
    opts.max_batch = 4;
    opts.deadline_us = 200;
    opts.max_queue = 8;
    opts.fail_threshold = 1000000; // every=7 can't fail consecutively
                                   // anyway, but stay explicit
    auto server =
        std::make_unique<Server>(Shape({2, 3, 3}), &affineEcho, opts);

    constexpr int kClients = 8;
    constexpr int kPerClient = 50;
    std::atomic<int> ok{0};
    std::atomic<int> faulted{0};
    std::atomic<int> shed{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            for (int r = 0; r < kPerClient; ++r) {
                const float tag = static_cast<float>(c * kPerClient + r);
                Tensor img = taggedImage(Shape({2, 3, 3}), tag);
                std::future<Tensor> fut;
                try {
                    fut = server->submit(std::move(img));
                } catch (const RejectedError &e) {
                    EXPECT_EQ(e.reason(), RejectReason::QueueFull);
                    shed.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::yield();
                    continue;
                }
                try {
                    const Tensor out = fut.get();
                    if (!tensorsBitIdentical(
                            out,
                            affineEcho(taggedImage(Shape({2, 3, 3}), tag))))
                        mismatches.fetch_add(1, std::memory_order_relaxed);
                    ok.fetch_add(1, std::memory_order_relaxed);
                } catch (const fault::FaultInjected &) {
                    faulted.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    for (auto &t : clients)
        t.join();
    server->shutdown();

    EXPECT_EQ(mismatches.load(), 0);
    const ServerStats st = server->stats();
    EXPECT_EQ(st.admitted, ok.load() + faulted.load());
    EXPECT_EQ(st.served, ok.load());
    EXPECT_EQ(st.shed, shed.load());
    EXPECT_EQ(st.rejected, shed.load());
    EXPECT_EQ(st.expired, 0);
    EXPECT_NE(server->health(), Health::Failed);
}

// ----------------------------------------------------------- plan sweep

/** One fault plan (armFromPlan grammar) per case; "" arms nothing. */
class ServePlanSweepTest : public ServeRobustnessTest,
                           public ::testing::WithParamInterface<const char *>
{
};

TEST_P(ServePlanSweepTest, TrafficAlwaysCompletes)
{
    // Must hold for ANY plan over the known sites: every submit either
    // throws a typed error or yields a future, and every future
    // completes — no hang, no leak, no crash. Every injected failure
    // (artifact open, operand borrow, forward throw, batcher stall)
    // unwinds under the sanitizer tiers.
    fault::armFromPlan(GetParam());

    const std::string path = "/tmp/mvq_serve_robustness_plan.mvqi";
    core::io::saveArtifact(core::makeServeModel(), path,
                           core::io::ArtifactFormat::Mvqi,
                           core::serveWriteOptions());
    // Artifact paths first: open and borrow may be scheduled to fail;
    // both kinds of failure must surface as exceptions, not corruption.
    int artifact_failures = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
        try {
            auto artifact = core::io::openArtifact(path);
            (void)artifact->packedOperands(0);
        } catch (const fault::FaultInjected &) {
            ++artifact_failures;
        } catch (const FatalError &) {
            ++artifact_failures;
        }
    }
    std::remove(path.c_str());

    ServeOptions opts;
    opts.max_batch = 2;
    opts.deadline_us = 500;
    opts.max_queue = 64;
    opts.fail_threshold = 1000000; // plans may fail every batch; keep
                                   // admitting so traffic still flows
    auto server =
        std::make_unique<Server>(Shape({2, 3, 3}), &affineEcho, opts);
    std::vector<std::future<Tensor>> futs;
    int submit_rejected = 0;
    for (int i = 0; i < 8; ++i) {
        try {
            futs.push_back(server->submit(
                taggedImage(Shape({2, 3, 3}), static_cast<float>(i))));
        } catch (const RejectedError &) {
            ++submit_rejected;
        }
    }
    // A plan stalling every claim cycle parks the batcher until the
    // drain; shutdown must complete regardless of what is armed.
    server->shutdown();
    int served = 0;
    int failed = 0;
    for (auto &fut : futs) {
        try {
            (void)fut.get();
            ++served;
        } catch (const std::exception &) {
            ++failed;
        }
    }
    EXPECT_EQ(served + failed + submit_rejected, 8);
    const ServerStats st = server->stats();
    EXPECT_EQ(st.served, served);
    EXPECT_EQ(st.admitted, served + failed);
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ServePlanSweepTest,
    ::testing::Values(
        "", "serve.forward:every=1",
        "serve.forward:nth=2;serve.batcher_stall:nth=3",
        "serve.batcher_stall:every=1",
        "artifact.open:nth=1:mode=error;artifact.operand_borrow:every=2"));

} // namespace
} // namespace mvq::serve
