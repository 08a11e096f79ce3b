/**
 * @file
 * Load generation against serve::Server: the closed loop (one client,
 * single requests or waves of a fixed size), and the attribution of
 * forwarded requests to the batches that served them.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <cstdint>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

/** How one request ended. */
enum class Outcome
{
    Ok,      //!< bit-identical to its reference, within the latency limit
    Late,    //!< correct, but over the latency limit
    Wrong,   //!< differs from the batch-1 reference output
    Expired, //!< admitted, then dropped at its deadline
    Shed,    //!< refused at admission (queue full)
    Error,   //!< any other exception
};

/** Whether the request reached a batched forward and got a result. */
bool forwarded(Outcome o);

/** Same element count and bit-identical contents. */
bool sameBytes(const mvq::Tensor &a, const mvq::Tensor &b);

/** One request. Times are milliseconds on the trace clock. */
struct RequestRecord
{
    std::int64_t id = 0;
    int image = 0;
    double submit_ms = 0.0; //!< just before Server::submit
    double done_ms = 0.0;   //!< the client saw the result or the error
    Outcome outcome = Outcome::Error;

    double latencyMs() const { return done_ms - submit_ms; }
};

/** One BatchForward call, from its span. */
struct BatchRecord
{
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::int64_t size = 0;
};

/** Which batch served each request. */
struct Attribution
{
    std::vector<std::ptrdiff_t> batch; //!< per request; -1 = not forwarded
    /** Forwarded requests fill the batches exactly, and each batch ran
     *  after its requests were submitted and before their results. */
    bool consistent = true;
};

/**
 * Attribute requests to batches. The server claims batches FIFO in
 * admission order, and one thread submits, so forwarded requests in
 * submit order fill the batches in start order. Expired, shed and failed
 * requests never reach a forward and are skipped.
 */
Attribution attributeToBatches(const std::vector<RequestRecord> &reqs,
                               const std::vector<BatchRecord> &batches);

/** What a load phase drives and checks against. */
struct LoadContext
{
    mvq::serve::Server &server;
    const std::vector<mvq::Tensor> &images; //!< [C, H, W] request images
    const std::vector<mvq::Tensor> &refs;   //!< batch-1 output per image
    double limit_ms;                        //!< latency limit
    std::int64_t next_id = 0;               //!< request ids
};

/** The requests of one load phase. */
struct PhaseResult
{
    std::vector<RequestRecord> reqs; //!< in submit order
    double start_ms = 0.0;
    double end_ms = 0.0; //!< the last result
};

/**
 * One client, closed loop: submit `wave` images, wait for all of them,
 * repeat, until `seconds` have passed and at least `min_requests` were
 * sent.
 */
PhaseResult runClosedLoop(LoadContext &ctx, int wave, double seconds,
                          std::int64_t min_requests);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
