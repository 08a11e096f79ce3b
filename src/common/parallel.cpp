#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "common/logging.hpp"

namespace mvq {

namespace {

/** True while the current thread is executing inside a parallel region. */
thread_local bool in_parallel_region = false;

int
defaultThreads()
{
    const std::int64_t n = env::int_("MVQ_NUM_THREADS", 0);
    if (n > 0)
        return static_cast<int>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

/**
 * Persistent pool. Workers sleep on a condition variable between jobs; a
 * job is an atomic chunk counter the participants drain. The calling
 * thread always participates, so a pool of N threads spawns N-1 workers.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        static ThreadPool pool;
        return pool;
    }

    // target_threads_ is atomic so these never take config_mutex_: they
    // stay safe to call from inside a parallel region (run() holds the
    // config mutex for the whole job). A setThreads during a job simply
    // takes effect at the next one.
    int
    threads()
    {
        return target_threads_.load(std::memory_order_relaxed);
    }

    void
    setThreads(int n)
    {
        target_threads_.store(n > 0 ? n : defaultThreads(),
                              std::memory_order_relaxed);
    }

    /** Run fn(chunk) for every chunk in [0, nchunks). */
    void
    run(std::int64_t nchunks,
        const std::function<void(std::int64_t)> &fn)
    {
        std::unique_lock<std::mutex> cfg(config_mutex_);
        resizeLocked(target_threads_.load(std::memory_order_relaxed) - 1);

        if (workers_.empty() || nchunks <= 1) {
            cfg.unlock();
            runInline(nchunks, fn);
            return;
        }

        {
            std::lock_guard<std::mutex> lk(job_mutex_);
            job_fn_ = &fn;
            job_next_.store(0, std::memory_order_relaxed);
            job_total_ = nchunks;
            job_error_ = nullptr;
            job_failed_.store(false, std::memory_order_relaxed);
            // Everyone — workers plus the caller — counts as active until
            // it has seen the counter exhausted.
            job_active_ = static_cast<int>(workers_.size()) + 1;
            ++job_generation_;
        }
        job_cv_.notify_all();

        drainChunks(fn);

        {
            std::unique_lock<std::mutex> lk(job_mutex_);
            --job_active_;
            if (job_active_ == 0)
                done_cv_.notify_all();
            else
                done_cv_.wait(lk, [this] { return job_active_ == 0; });
            job_fn_ = nullptr;
            if (job_error_) {
                auto err = job_error_;
                job_error_ = nullptr;
                cfg.unlock();
                lk.unlock();
                std::rethrow_exception(err);
            }
        }
    }

  private:
    ThreadPool() : target_threads_(defaultThreads()) {}

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(job_mutex_);
            stopping_ = true;
        }
        job_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
    }

    void
    runInline(std::int64_t nchunks,
              const std::function<void(std::int64_t)> &fn)
    {
        const bool was_nested = in_parallel_region;
        in_parallel_region = true;
        try {
            for (std::int64_t c = 0; c < nchunks; ++c)
                fn(c);
        } catch (...) {
            in_parallel_region = was_nested;
            throw;
        }
        in_parallel_region = was_nested;
    }

    /** Pop and execute chunks until the current job's counter runs out. */
    void
    drainChunks(const std::function<void(std::int64_t)> &fn)
    {
        const bool was_nested = in_parallel_region;
        in_parallel_region = true;
        for (;;) {
            // Stop claiming chunks once any chunk failed, matching the
            // inline path's stop-at-first-throw behavior as closely as a
            // concurrent drain can.
            if (job_failed_.load(std::memory_order_relaxed))
                break;
            const std::int64_t c =
                job_next_.fetch_add(1, std::memory_order_relaxed);
            if (c >= job_total_)
                break;
            try {
                fn(c);
            } catch (...) {
                job_failed_.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lk(job_mutex_);
                if (!job_error_)
                    job_error_ = std::current_exception();
            }
        }
        in_parallel_region = was_nested;
    }

    /** Grow/shrink the worker set; config_mutex_ must be held. */
    void
    resizeLocked(int nworkers)
    {
        nworkers = std::max(0, nworkers);
        if (static_cast<int>(workers_.size()) == nworkers)
            return;
        // Retire the old workers (no job is in flight here: run() holds
        // config_mutex_ for the whole job).
        {
            std::lock_guard<std::mutex> lk(job_mutex_);
            stopping_ = true;
        }
        job_cv_.notify_all();
        for (auto &t : workers_)
            t.join();
        workers_.clear();
        {
            std::lock_guard<std::mutex> lk(job_mutex_);
            stopping_ = false;
        }
        // New workers must treat the *current* generation as already seen:
        // starting from 0 would let them mistake a finished job for a
        // fresh one and corrupt the active count.
        std::uint64_t spawn_generation;
        {
            std::lock_guard<std::mutex> lk(job_mutex_);
            spawn_generation = job_generation_;
        }
        workers_.reserve(static_cast<std::size_t>(nworkers));
        for (int i = 0; i < nworkers; ++i)
            workers_.emplace_back(
                [this, spawn_generation] { workerLoop(spawn_generation); });
    }

    void
    workerLoop(std::uint64_t seen_generation)
    {
        for (;;) {
            const std::function<void(std::int64_t)> *fn = nullptr;
            {
                std::unique_lock<std::mutex> lk(job_mutex_);
                job_cv_.wait(lk, [&] {
                    return stopping_ || job_generation_ != seen_generation;
                });
                if (stopping_)
                    return;
                seen_generation = job_generation_;
                fn = job_fn_;
            }
            if (fn != nullptr)
                drainChunks(*fn);
            {
                std::lock_guard<std::mutex> lk(job_mutex_);
                --job_active_;
                if (job_active_ == 0)
                    done_cv_.notify_all();
            }
        }
    }

    // Serializes jobs and worker-set changes.
    std::mutex config_mutex_;
    std::atomic<int> target_threads_{1};
    std::vector<std::thread> workers_;

    // Per-job state.
    std::mutex job_mutex_;
    std::condition_variable job_cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::int64_t)> *job_fn_ = nullptr;
    std::atomic<std::int64_t> job_next_{0};
    std::atomic<bool> job_failed_{false};
    std::int64_t job_total_ = 0;
    int job_active_ = 0;
    std::uint64_t job_generation_ = 0;
    std::exception_ptr job_error_ = nullptr;
    bool stopping_ = false;
};

} // namespace

int
numThreads()
{
    return ThreadPool::instance().threads();
}

int
parallelWidth()
{
    return in_parallel_region ? 1 : numThreads();
}

void
setNumThreads(int n)
{
    ThreadPool::instance().setThreads(n);
}

std::int64_t
chunkCount(std::int64_t begin, std::int64_t end, std::int64_t grain)
{
    panicIf(grain < 1, "parallelFor grain must be >= 1");
    const std::int64_t range = end - begin;
    if (range <= 0)
        return 0;
    return (range + grain - 1) / grain;
}

void
parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
            const std::function<void(std::int64_t, std::int64_t)> &fn)
{
    parallelForChunks(begin, end, grain,
                      [&fn](std::int64_t, std::int64_t b, std::int64_t e) {
                          fn(b, e);
                      });
}

void
parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t, std::int64_t)> &fn)
{
    const std::int64_t nchunks = chunkCount(begin, end, grain);
    if (nchunks == 0)
        return;
    auto run_chunk = [&](std::int64_t c) {
        const std::int64_t b = begin + c * grain;
        const std::int64_t e = std::min(end, b + grain);
        fn(c, b, e);
    };
    if (nchunks == 1 || in_parallel_region) {
        // Nested regions (a parallel kernel calling another) run inline on
        // the current worker; the outer region already spans the pool.
        for (std::int64_t c = 0; c < nchunks; ++c)
            run_chunk(c);
        return;
    }
    ThreadPool::instance().run(nchunks, run_chunk);
}

} // namespace mvq
