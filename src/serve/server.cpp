#include "serve/server.hpp"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault.hpp"
#include "common/logging.hpp"

namespace mvq::serve {

const char *
rejectReasonName(RejectReason r)
{
    switch (r) {
      case RejectReason::InvalidRequest:
        return "invalid_request";
      case RejectReason::QueueFull:
        return "queue_full";
      case RejectReason::DeadlineExpired:
        return "deadline_expired";
      case RejectReason::Shutdown:
        return "shutdown";
      case RejectReason::Unhealthy:
        return "unhealthy";
    }
    return "unknown";
}

const char *
healthName(Health h)
{
    switch (h) {
      case Health::Healthy:
        return "healthy";
      case Health::Degraded:
        return "degraded";
      case Health::Failed:
        return "failed";
    }
    return "unknown";
}

namespace {

/** `t + us` for a non-negative span `us`, saturated at kNoDeadline, so a
 *  policy of "never" stays never instead of overflowing. */
std::int64_t
deadlineAfter(std::int64_t t, std::int64_t us)
{
    return t > 0 && us > kNoDeadline - t ? kNoDeadline : t + us;
}

/** `opts` with its clock filled in, after checking every policy field;
 *  each message names the ServeOptions field at fault. */
ServeOptions
validated(ServeOptions opts)
{
    fatalIf(opts.max_batch < 1,
            "serve::Server: ServeOptions::max_batch must be >= 1, got ",
            opts.max_batch);
    fatalIf(opts.deadline_us < 0,
            "serve::Server: ServeOptions::deadline_us must be >= 0 "
            "microseconds, got ", opts.deadline_us);
    fatalIf(opts.max_queue < 1,
            "serve::Server: ServeOptions::max_queue must be >= 1, got ",
            opts.max_queue);
    fatalIf(opts.request_timeout_us < 0,
            "serve::Server: ServeOptions::request_timeout_us must be >= 0 "
            "microseconds, got ", opts.request_timeout_us);
    fatalIf(opts.fail_threshold < 1,
            "serve::Server: ServeOptions::fail_threshold must be >= 1, "
            "got ", opts.fail_threshold);
    if (!opts.clock)
        opts.clock = std::make_shared<SteadyClock>();
    return opts;
}

} // namespace

Server::Server(Shape input_chw, BatchForward forward, ServeOptions opts)
    : input_chw_(input_chw), forward_(std::move(forward)),
      opts_(validated(std::move(opts)))
{
    fatalIf(input_chw_.rank() != 3,
            "serve::Server: input shape must be [C, H, W], got ",
            input_chw_.str());
    fatalIf(input_chw_.numel() <= 0,
            "serve::Server: zero-size input shape ", input_chw_.str());
    fatalIf(!forward_, "serve::Server: null batch-forward callable");

    batcher_ = std::thread([this] { batcherLoop(); });
}

Server::~Server()
{
    shutdown();
}

std::future<Tensor>
Server::submit(Tensor image)
{
    // Stamp admission time before taking mu_: the lock-order contract
    // (clock.hpp) forbids clock calls under the queue mutex.
    const std::int64_t admit_us = opts_.clock->nowMicros();
    const std::int64_t deadline_us = opts_.request_timeout_us > 0
        ? deadlineAfter(admit_us, opts_.request_timeout_us)
        : kNoDeadline;
    return submitAt(std::move(image), admit_us, deadline_us);
}

std::future<Tensor>
Server::submitWithDeadline(Tensor image, std::int64_t deadline_us)
{
    const std::int64_t admit_us = opts_.clock->nowMicros();
    return submitAt(std::move(image), admit_us, deadline_us);
}

std::future<Tensor>
Server::submitAt(Tensor image, std::int64_t admit_us,
                 std::int64_t deadline_us)
{
    auto reject = [this](RejectReason why, auto &&...msg) -> void {
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.rejected;
            if (why == RejectReason::QueueFull)
                ++stats_.shed;
        }
        throw RejectedError(
            why, detail::concat(std::forward<decltype(msg)>(msg)...));
    };
    if (image.numel() == 0)
        reject(RejectReason::InvalidRequest,
               "serve::Server: rejecting zero-size image (shape ",
               image.shape().str(), "); expected ", input_chw_.str());
    if (image.rank() != 3 || image.shape() != input_chw_)
        reject(RejectReason::InvalidRequest,
               "serve::Server: rejecting image of shape ",
               image.shape().str(), "; this server accepts exactly ",
               input_chw_.str(), " ([C, H, W], one image per request)");

    std::future<Tensor> fut;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
            ++stats_.rejected;
            throw RejectedError(
                RejectReason::Shutdown,
                "serve::Server: rejecting submission after shutdown");
        }
        if (health_ == Health::Failed) {
            ++stats_.rejected;
            throw RejectedError(
                RejectReason::Unhealthy,
                detail::concat(
                    "serve::Server: rejecting submission: serving health "
                    "is failed (", consecutive_failures_,
                    " consecutive batch failures, "
                    "ServeOptions::fail_threshold ", opts_.fail_threshold,
                    ")"));
        }
        if (static_cast<std::int64_t>(queue_.size()) >= opts_.max_queue) {
            ++stats_.rejected;
            ++stats_.shed;
            throw RejectedError(
                RejectReason::QueueFull,
                detail::concat(
                    "serve::Server: shedding submission: admission queue "
                    "full (", opts_.max_queue,
                    " queued; ServeOptions::max_queue)"));
        }
        Pending p;
        p.image = std::move(image);
        p.admit_us = admit_us;
        p.deadline_us = deadline_us;
        fut = p.promise.get_future();
        queue_.push_back(std::move(p));
        ++stats_.admitted;
    }
    opts_.clock->notify();
    return fut;
}

void
Server::shutdown()
{
    std::lock_guard<std::mutex> sl(shutdown_mu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        stopping_ = true;
    }
    opts_.clock->notify();
    if (batcher_.joinable())
        batcher_.join();
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

Health
Server::health() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return health_;
}

void
Server::batcherLoop()
{
    for (;;) {
        // Phase 1: sleep until there is work or a shutdown request.
        opts_.clock->waitUntil(kNoDeadline, [this] {
            std::lock_guard<std::mutex> lk(mu_);
            return !queue_.empty() || stopping_;
        });

        // Phase 2: hold the window open for more images — until the
        // batch fills, the oldest image's flush deadline passes, the
        // earliest *request* deadline passes (so expiry decisions fire
        // exactly on time under a ManualClock), or shutdown flushes (a
        // draining server never waits on the clock).
        std::int64_t wake_us = 0;
        bool drain = false;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (queue_.empty()) {
                if (stopping_)
                    return;
                continue; // spurious wake; nothing to batch yet
            }
            drain = stopping_;
            wake_us = deadlineAfter(queue_.front().admit_us,
                                    opts_.deadline_us);
            for (const Pending &p : queue_)
                wake_us = std::min(wake_us, p.deadline_us);
        }
        if (!drain)
            opts_.clock->waitUntil(wake_us, [this] {
                std::lock_guard<std::mutex> lk(mu_);
                return static_cast<std::int64_t>(queue_.size())
                        >= opts_.max_batch
                    || stopping_;
            });

        // Scripted stall (tests only; free when unarmed): skip one
        // claim cycle so a test can delay a launch deterministically.
        // Never stalls a drain — shutdown always completes.
        if (!drain && fault::fires(fault::kBatcherStall))
            continue;

        // Phase 3: expire, then claim. The clock is read before taking
        // mu_ (lock-order contract), and expired requests leave the
        // queue before the batch is chosen — an expired request can
        // never reach the forward.
        const std::int64_t now = opts_.clock->nowMicros();
        std::deque<Pending> batch;
        std::vector<Pending> expired;
        {
            std::lock_guard<std::mutex> lk(mu_);
            for (auto it = queue_.begin(); it != queue_.end();) {
                if (it->deadline_us <= now) {
                    expired.push_back(std::move(*it));
                    it = queue_.erase(it);
                    ++stats_.expired;
                } else {
                    ++it;
                }
            }
            drain = stopping_;
            const bool full =
                static_cast<std::int64_t>(queue_.size()) >= opts_.max_batch;
            const bool flush = !queue_.empty()
                && now >= deadlineAfter(queue_.front().admit_us,
                                        opts_.deadline_us);
            if (drain || full || flush) {
                const std::int64_t take = std::min(
                    opts_.max_batch,
                    static_cast<std::int64_t>(queue_.size()));
                for (std::int64_t i = 0; i < take; ++i) {
                    batch.push_back(std::move(queue_.front()));
                    queue_.pop_front();
                }
                if (take > 0) {
                    ++stats_.batches;
                    stats_.max_batch_served =
                        std::max(stats_.max_batch_served, take);
                    if (take < opts_.max_batch)
                        ++stats_.deadline_flushes;
                }
            }
        }
        for (Pending &p : expired)
            p.promise.set_exception(std::make_exception_ptr(RejectedError(
                RejectReason::DeadlineExpired,
                detail::concat(
                    "serve::Server: request deadline expired before its "
                    "batch launched (deadline ", p.deadline_us,
                    " us, now ", now, " us)"))));
        if (!batch.empty())
            runBatch(std::move(batch));
    }
}

void
Server::runBatch(std::deque<Pending> &&batch)
{
    const std::int64_t b = static_cast<std::int64_t>(batch.size());
    const std::int64_t img_numel = input_chw_.numel();
    Tensor stacked(Shape({b, input_chw_.dim(0), input_chw_.dim(1),
                          input_chw_.dim(2)}));
    for (std::int64_t i = 0; i < b; ++i)
        std::memcpy(stacked.data() + i * img_numel,
                    batch[static_cast<std::size_t>(i)].image.data(),
                    static_cast<std::size_t>(img_numel) * sizeof(float));

    Tensor out;
    try {
        fault::checkpoint(fault::kServeForward,
                          "serve::Server: batched forward");
        out = forward_(stacked);
        panicIf(out.rank() != 4 || out.dim(0) != b,
                "serve::Server: batch forward returned shape ",
                out.shape().str(), " for a batch of ", b,
                " images; the model must return rank-4 [B, C, H, W]");
    } catch (...) {
        // Batch isolation: the whole batch shares the forward, so the
        // whole batch shares its failure — but only this batch. Health
        // moves first so a client that observes the failure on get()
        // already sees the updated state.
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.failed_batches;
            ++consecutive_failures_;
            if (health_ != Health::Failed)
                health_ = consecutive_failures_ >= opts_.fail_threshold
                    ? Health::Failed
                    : Health::Degraded;
        }
        for (auto &p : batch)
            p.promise.set_exception(std::current_exception());
        return;
    }

    {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.served += b;
        consecutive_failures_ = 0;
        // Failed is sticky: a server past the threshold drains its
        // queue but needs a restart to admit again.
        if (health_ == Health::Degraded)
            health_ = Health::Healthy;
    }
    const std::int64_t out_numel = out.numel() / b;
    const Shape slab({out.dim(1), out.dim(2), out.dim(3)});
    for (std::int64_t i = 0; i < b; ++i) {
        Tensor slice(slab);
        std::memcpy(slice.data(), out.data() + i * out_numel,
                    static_cast<std::size_t>(out_numel) * sizeof(float));
        batch[static_cast<std::size_t>(i)].promise.set_value(
            std::move(slice));
    }
}

} // namespace mvq::serve
