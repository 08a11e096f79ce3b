/**
 * @file
 * In-memory span recorder for the traced benchmark run. The benchmark
 * wraps each call it makes into a layer's public function (openArtifact,
 * packedOperands, Server::submit, the BatchForward callable, each
 * CompressedConv2d::forward, each glue op) in a Span. Spans nest per
 * thread: a span's parent is the innermost span open on the same thread
 * when it started. Recording is off by default and then costs one atomic
 * load per span; the traced run turns it on, and the spans are written as
 * Chrome trace-event JSON when the run ends.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench::trace {

/** One finished span. Times are nanoseconds on the process clock. */
struct SpanRecord
{
    std::int64_t id = 0;
    std::int64_t parent = 0; //!< 0 = root on its thread
    std::int64_t req = -1;   //!< request id, -1 when not known at record time
    std::int64_t arg = 0;    //!< span-specific count (batch size of a forward)
    const char *cat = "";    //!< layer or layer class ("serve", "stage3", ...)
    std::string name;
    std::int64_t t0_ns = 0;
    std::int64_t t1_ns = 0;
    int tid = 0;

    double
    durMs() const
    {
        return static_cast<double>(t1_ns - t0_ns) / 1e6;
    }
};

/** Nanoseconds since the process's trace epoch (steady clock). */
std::int64_t nowNs();

/** Milliseconds since the trace epoch. */
double nowMs();

void setEnabled(bool on);

/** RAII span; inert when recording was off at construction. */
class Span
{
  public:
    Span(const char *cat, std::string_view name, std::int64_t req = -1,
         std::int64_t arg = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active_ = false;
    SpanRecord rec_;
};

/** Move every recorded span out of the recorder, in completion order. */
std::vector<SpanRecord> drain();

/**
 * Self time of each span in milliseconds: its duration minus the
 * durations of its direct children (children nest on the parent's thread,
 * so they never overlap each other).
 */
std::vector<double> selfTimesMs(const std::vector<SpanRecord> &spans);

/** Write spans as Chrome trace-event JSON ("X" events, microseconds). */
void writeChromeTrace(const std::string &path,
                      const std::vector<SpanRecord> &spans);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_HPP
