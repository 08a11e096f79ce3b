/**
 * @file
 * Batched compressed-inference serving runtime. A Server accepts
 * single-image requests from any number of client threads and returns a
 * std::future per request; one internal batcher thread coalesces queued
 * images into batched NCHW forwards — a batch launches as soon as
 * ServeOptions::max_batch images are queued, or when the *oldest* queued
 * image has waited ServeOptions::deadline_us microseconds, whichever
 * comes first. The forward itself runs on the calling batcher thread and
 * parallelizes through the shared src/common/parallel pool (the conv
 * kernels fan (batch, group) pairs and gemm panels across it), so
 * orchestration stays out of the kernels — the batcher never touches
 * pool internals and the kernels never see the queue.
 *
 * Overload safety (docs/SERVING.md "Overload & failure semantics"):
 *  - Bounded admission: at most ServeOptions::max_queue requests may be
 *    queued; over-limit submits fail fast with RejectedError carrying
 *    RejectReason::QueueFull (counted in stats().shed) instead of
 *    growing an unbounded backlog.
 *  - Per-request deadlines: every request carries an absolute deadline
 *    (admit time + ServeOptions::request_timeout_us by default, or an
 *    explicit one via submitWithDeadline; 0 timeout = none). The
 *    batcher drops expired requests *before* launching the forward and
 *    completes their futures with RejectReason::DeadlineExpired —
 *    every expiry decision reads the injected Clock, so expiry under a
 *    ManualClock is exactly as deterministic as batching.
 *  - Batch isolation + health: a throwing forward fails only its own
 *    batch (each member future carries the exception) and the server
 *    keeps serving. health() reports Healthy / Degraded (at least one
 *    consecutive failure) / Failed (ServeOptions::fail_threshold
 *    consecutive failures — sticky, stops admitting; queued requests
 *    still drain). Health is updated *before* the failing batch's
 *    futures complete, so a client that observed the threshold-th
 *    failure reads the Failed state.
 *
 * Determinism: batch composition is driven entirely through the
 * injected serve::Clock, so tests with a ManualClock get bit-reproducible
 * batching; and because the batched forward computes every image's
 * output slab independently (per-(batch, group) gemms under the
 * repo-wide determinism contract), a batched forward is bit-identical
 * to running the same images through batch-1 forwards sequentially —
 * batching is a pure latency/throughput trade, never an accuracy one.
 * tests/serve_test.cpp memcmp-gates this across the MVQ_SIMD matrix;
 * tests/serve_robustness_test.cpp drives the overload paths the same
 * way.
 *
 * Threading contract: submit()/shutdown()/stats()/health() are safe
 * from any thread. Futures complete in admission order (one FIFO
 * queue, one batcher, promises fulfilled in queue order). No clock
 * method is ever called while holding the queue mutex (see clock.hpp's
 * lock-order contract). See docs/SERVING.md for the data flow and
 * tuning guide.
 */

#ifndef MVQ_SERVE_SERVER_HPP
#define MVQ_SERVE_SERVER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "serve/clock.hpp"
#include "tensor/tensor.hpp"

namespace mvq::serve {

/** Why a request was refused (carried by RejectedError). */
enum class RejectReason
{
    InvalidRequest,  //!< wrong shape / zero-size image
    QueueFull,       //!< admission queue at ServeOptions::max_queue
    DeadlineExpired, //!< dropped by the batcher after its deadline
    Shutdown,        //!< submitted after shutdown()
    Unhealthy,       //!< serving health is Failed
};

/** Stable lowercase name for logs and bench records. */
const char *rejectReasonName(RejectReason r);

/**
 * The typed rejection error. Derives from FatalError so existing
 * catch sites keep working; reason() is the machine-readable cause.
 * Thrown synchronously by submit (InvalidRequest / QueueFull /
 * Shutdown / Unhealthy) or delivered through the future
 * (DeadlineExpired — the request was admitted, then timed out).
 */
class RejectedError : public FatalError
{
  public:
    RejectedError(RejectReason reason, const std::string &msg)
        : FatalError(msg), reason_(reason)
    {
    }

    RejectReason reason() const { return reason_; }

  private:
    RejectReason reason_;
};

/** Serving health (see class docs for the transition rules). */
enum class Health
{
    Healthy,  //!< last batch (if any) succeeded
    Degraded, //!< >= 1 consecutive batch failure, still admitting
    Failed,   //!< threshold reached; sticky, no longer admitting
};

/** Stable lowercase name for logs and diagnostics. */
const char *healthName(Health h);

/** Batching and overload policy + time source: a plain value that the
 *  Server validates once at construction. Nothing else sets it. */
struct ServeOptions
{
    /** Launch a batch once this many images are queued (>= 1). */
    std::int64_t max_batch = 8;

    /** Launch a partial batch once the oldest queued image has waited
     *  this long, in microseconds (>= 0; 0 = never hold an image back,
     *  kNoDeadline = wait for a full batch). */
    std::int64_t deadline_us = 2000;

    /** Admission-queue depth cap (>= 1); submits beyond it shed with
     *  QueueFull. */
    std::int64_t max_queue = 1024;

    /** Default per-request deadline, microseconds after admission
     *  (>= 0; 0 or kNoDeadline = requests never expire). */
    std::int64_t request_timeout_us = 0;

    /** Consecutive failed batches before health goes Failed (>= 1). */
    std::int64_t fail_threshold = 8;

    /** Time source; null -> a SteadyClock owned by the server. Tests
     *  inject a ManualClock to make batching deterministic. */
    std::shared_ptr<Clock> clock;
};

/** Monotonic serving counters (a consistent snapshot under one lock). */
struct ServerStats
{
    std::int64_t admitted = 0;  //!< requests accepted into the queue
    std::int64_t served = 0;    //!< futures fulfilled with a result
    std::int64_t rejected = 0;  //!< submissions refused with diagnostics
    std::int64_t shed = 0;      //!< rejections with reason QueueFull
    std::int64_t expired = 0;   //!< admitted, then dropped by deadline
    std::int64_t batches = 0;   //!< batched forwards launched
    std::int64_t failed_batches = 0;   //!< batches whose forward threw
    std::int64_t max_batch_served = 0; //!< largest batch launched
    std::int64_t deadline_flushes = 0; //!< batches launched by deadline,
                                       //!< not by reaching max_batch
};

/**
 * The serving engine. `forward` is the model: it takes a stacked
 * [B, C, H, W] tensor and must return a rank-4 tensor whose dim(0) == B
 * (nn::CompressedNet::forward over shared ModelArtifact operands is the
 * intended implementation; any callable with the same contract serves).
 */
class Server
{
  public:
    using BatchForward = std::function<Tensor(const Tensor &)>;

    /**
     * @param input_chw Expected per-request image shape [C, H, W];
     *        submissions with any other shape are rejected.
     * @param forward   The batched model forward (see class contract).
     * @param opts      Batching and overload policy (see ServeOptions).
     */
    Server(Shape input_chw, BatchForward forward, ServeOptions opts = {});

    /** Drains and joins (shutdown()). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Admit one image with the default deadline (admit time +
     * request_timeout_us; none when the timeout is 0). The future
     * resolves to the model's output slab for this image
     * ([C_out, H_out, W_out]) once its batch completes; if the batched
     * forward throws, every future in the batch carries that
     * exception; if the request expires first, the future carries
     * RejectedError(DeadlineExpired). Throws RejectedError
     * synchronously on invalid images, a full queue, a Failed server,
     * and submissions after shutdown() (all counted in `rejected`).
     */
    std::future<Tensor> submit(Tensor image);

    /**
     * Admit one image with an explicit *absolute* deadline on the
     * server's clock (kNoDeadline = never expires). Deadlines already
     * in the past are admitted and then expired by the batcher — the
     * expiry path is the same either way.
     */
    std::future<Tensor> submitWithDeadline(Tensor image,
                                           std::int64_t deadline_us);

    /**
     * Stop admitting, flush every queued request (deadline ignored —
     * queued work never waits on a clock that may no longer advance),
     * and join the batcher. Idempotent; the destructor calls it.
     */
    void shutdown();

    ServerStats stats() const;

    /** Current serving health (see the transition rules above). */
    Health health() const;

  private:
    struct Pending
    {
        Tensor image;
        std::promise<Tensor> promise;
        std::int64_t admit_us;
        std::int64_t deadline_us; //!< absolute; kNoDeadline = never
    };

    std::future<Tensor> submitAt(Tensor image, std::int64_t admit_us,
                                 std::int64_t deadline_us);
    void batcherLoop();
    void runBatch(std::deque<Pending> &&batch);

    Shape input_chw_;
    BatchForward forward_;
    const ServeOptions opts_; //!< validated; opts_.clock is never null

    mutable std::mutex mu_;
    std::deque<Pending> queue_;
    bool stopping_ = false;
    ServerStats stats_;
    Health health_ = Health::Healthy;
    std::int64_t consecutive_failures_ = 0;

    std::mutex shutdown_mu_; //!< serializes concurrent shutdown()/dtor

    std::thread batcher_; //!< last member: joins before the rest dies
};

} // namespace mvq::serve

#endif // MVQ_SERVE_SERVER_HPP
