/**
 * @file
 * Injectable time source for the serving runtime. Every time-based
 * decision of the batcher — "has the oldest queued request's batching
 * deadline passed?", "has a request's own deadline passed?" and "how
 * long may I keep waiting for more requests?" — goes through this
 * interface, so tests drive them with a ManualClock whose time only
 * moves when the test says so: batch composition and expiry become a
 * pure function of (admissions, advances), never of scheduler timing.
 *
 * The contract couples waiting and waking: waitUntil() blocks until the
 * predicate holds or the clock reaches the deadline, and MUST re-evaluate
 * the predicate after every notify() (SteadyClock) or advance()
 * (ManualClock). The predicate may acquire the caller's own mutex; the
 * clock's internal lock is therefore always taken *before* any caller
 * lock, and callers must never invoke notify()/advance() while holding a
 * mutex their predicate acquires (the server releases its queue mutex
 * before notifying).
 */

#ifndef MVQ_SERVE_CLOCK_HPP
#define MVQ_SERVE_CLOCK_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>

namespace mvq::serve {

/** Deadline value meaning "never": waitUntil() waits for the predicate
 *  alone and a request carrying it never expires. As a ServeOptions
 *  span it also means never; the server saturates admit time + span at
 *  this value instead of overflowing. */
constexpr std::int64_t kNoDeadline = std::numeric_limits<std::int64_t>::max();

/** Monotonic microsecond time source + the batcher's wait primitive. */
class Clock
{
  public:
    virtual ~Clock() = default;

    /** Microseconds since this clock's epoch (monotonic, starts near 0). */
    virtual std::int64_t nowMicros() = 0;

    /**
     * Block until pred() returns true or nowMicros() >= deadline_us
     * (kNoDeadline waits on the predicate alone). Returns the final
     * pred() value, so callers can distinguish "condition met" from
     * "deadline expired". Spurious wakeups are absorbed internally.
     */
    virtual bool waitUntil(std::int64_t deadline_us,
                           const std::function<bool()> &pred) = 0;

    /** Wake any waitUntil() so it re-evaluates its predicate. */
    virtual void notify() = 0;
};

/** Real time: std::chrono::steady_clock, epoch fixed at construction. */
class SteadyClock final : public Clock
{
  public:
    SteadyClock();

    std::int64_t nowMicros() override;
    bool waitUntil(std::int64_t deadline_us,
                   const std::function<bool()> &pred) override;
    void notify() override;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mu_;
    std::condition_variable cv_;
};

/**
 * Test clock: time is a counter that only advance() moves. A waitUntil()
 * whose deadline has not been reached blocks until an advance() reaches
 * it or a notify() makes the predicate true — real elapsed time never
 * releases it, which is what makes batching tests deterministic.
 */
class ManualClock final : public Clock
{
  public:
    std::int64_t nowMicros() override;
    bool waitUntil(std::int64_t deadline_us,
                   const std::function<bool()> &pred) override;
    void notify() override;

    /** Move time forward by `us` microseconds and wake all waiters. */
    void advance(std::int64_t us);

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::int64_t now_us_ = 0;
};

} // namespace mvq::serve

#endif // MVQ_SERVE_CLOCK_HPP
