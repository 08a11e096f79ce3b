/**
 * @file
 * Shared parallel-compute runtime: a persistent thread pool driving a
 * deterministic parallel-for. Work is split into chunks whose boundaries
 * depend only on the range and the grain — never on the thread count — so
 * any kernel that (a) writes disjoint outputs per chunk, or (b) reduces
 * per-chunk partials in chunk order, produces bit-identical results for
 * every value of MVQ_NUM_THREADS.
 *
 * The pool is created lazily on first use. The initial thread count comes
 * from the MVQ_NUM_THREADS environment variable, falling back to
 * std::thread::hardware_concurrency(). Nested parallel regions run inline
 * on the calling worker so kernels can freely compose (e.g. a parallel
 * conv calling a parallel gemm).
 */

#ifndef MVQ_COMMON_PARALLEL_HPP
#define MVQ_COMMON_PARALLEL_HPP

#include <cstdint>
#include <functional>

namespace mvq {

/** Threads the runtime currently targets (>= 1). */
int numThreads();

/**
 * Set the worker count. n <= 0 restores the default (MVQ_NUM_THREADS or
 * hardware_concurrency). Safe to call between parallel regions; this is
 * the programmatic form of the MVQ_NUM_THREADS knob.
 */
void setNumThreads(int n);

/**
 * Threads a parallelFor issued by the calling thread can occupy: 1 inside
 * a parallel region (nested regions run inline), numThreads() elsewhere.
 * For sizing work splits only; a kernel that keeps the contract above
 * never lets its results depend on it.
 */
int parallelWidth();

/**
 * Number of chunks parallelFor will split [begin, end) into with the
 * given grain. Depends only on the range size and grain, never on the
 * thread count.
 */
std::int64_t chunkCount(std::int64_t begin, std::int64_t end,
                        std::int64_t grain);

/**
 * Run fn(chunk_begin, chunk_end) over a deterministic chunking of
 * [begin, end). Chunks are at least `grain` wide (except possibly the
 * last) and are distributed dynamically over the pool. Blocks until all
 * chunks complete; exceptions thrown by fn are rethrown in the caller.
 */
void parallelFor(std::int64_t begin, std::int64_t end, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)> &fn);

/**
 * Like parallelFor but also passes the chunk index, for per-chunk partial
 * reductions that the caller folds together sequentially in chunk order
 * (keeping floating-point reductions deterministic).
 */
void parallelForChunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t chunk, std::int64_t,
                             std::int64_t)> &fn);

} // namespace mvq

#endif // MVQ_COMMON_PARALLEL_HPP
