#include "serve/clock.hpp"

#include "common/logging.hpp"

namespace mvq::serve {

SteadyClock::SteadyClock() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t
SteadyClock::nowMicros()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

bool
SteadyClock::waitUntil(std::int64_t deadline_us,
                       const std::function<bool()> &pred)
{
    std::unique_lock<std::mutex> lk(mu_);
    // A deadline whose time_point would not fit the clock's nanosecond
    // range (kNoDeadline, or any finite one past ~292 years) waits on the
    // predicate alone: it would overflow into the past otherwise.
    const auto room = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::time_point::max() - epoch_);
    if (deadline_us >= room.count()) {
        cv_.wait(lk, pred);
        return true;
    }
    return cv_.wait_until(
        lk, epoch_ + std::chrono::microseconds(deadline_us), pred);
}

void
SteadyClock::notify()
{
    // Lock/unlock pairs the notification with any in-flight predicate
    // evaluation: a waiter between "pred() == false" and blocking holds
    // mu_, so acquiring it here means the waiter is actually asleep (or
    // will observe the new state on its initial check).
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
}

std::int64_t
ManualClock::nowMicros()
{
    std::lock_guard<std::mutex> lk(mu_);
    return now_us_;
}

bool
ManualClock::waitUntil(std::int64_t deadline_us,
                       const std::function<bool()> &pred)
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
        return pred()
            || (deadline_us != kNoDeadline && now_us_ >= deadline_us);
    });
    return pred();
}

void
ManualClock::notify()
{
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_.notify_all();
}

void
ManualClock::advance(std::int64_t us)
{
    fatalIf(us < 0, "ManualClock::advance: negative step ", us);
    {
        std::lock_guard<std::mutex> lk(mu_);
        now_us_ += us;
    }
    cv_.notify_all();
}

} // namespace mvq::serve
