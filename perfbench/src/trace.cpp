#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"

namespace perfbench::trace {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

std::atomic<bool> g_on{false};
std::atomic<std::int64_t> g_next_id{1};
std::atomic<int> g_next_tid{1};

std::mutex g_mu;
std::vector<SpanRecord> g_spans; // guarded by g_mu

thread_local std::vector<std::int64_t> t_open; // ids of open spans
thread_local int t_tid = 0;

void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - kEpoch)
        .count();
}

double
nowMs()
{
    return static_cast<double>(nowNs()) / 1e6;
}

void
setEnabled(bool on)
{
    g_on.store(on, std::memory_order_release);
}

Span::Span(const char *cat, std::string_view name, std::int64_t req,
           std::int64_t arg)
{
    if (!g_on.load(std::memory_order_relaxed))
        return;
    active_ = true;
    if (t_tid == 0)
        t_tid = g_next_tid.fetch_add(1);
    rec_.id = g_next_id.fetch_add(1);
    rec_.parent = t_open.empty() ? 0 : t_open.back();
    rec_.req = req;
    rec_.arg = arg;
    rec_.cat = cat;
    rec_.name.assign(name);
    rec_.tid = t_tid;
    t_open.push_back(rec_.id);
    rec_.t0_ns = nowNs();
}

Span::~Span()
{
    if (!active_)
        return;
    rec_.t1_ns = nowNs();
    t_open.pop_back();
    std::lock_guard<std::mutex> lk(g_mu);
    g_spans.push_back(std::move(rec_));
}

std::vector<SpanRecord>
drain()
{
    std::lock_guard<std::mutex> lk(g_mu);
    std::vector<SpanRecord> out;
    out.swap(g_spans);
    return out;
}

std::vector<double>
selfTimesMs(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::int64_t, std::size_t> index;
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        index.emplace(spans[i].id, i);
        self[i] = spans[i].durMs();
    }
    for (const SpanRecord &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            self[it->second] -= s.durMs();
    }
    return self;
}

void
writeChromeTrace(const std::string &path,
                 const std::vector<SpanRecord> &spans)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        out += i == 0 ? "\n" : ",\n";
        out += "{\"name\":\"";
        appendEscaped(out, s.name);
        out += "\",\"cat\":\"";
        appendEscaped(out, s.cat);
        out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid)
            + ",\"ts\":" + std::to_string(static_cast<double>(s.t0_ns) / 1e3)
            + ",\"dur\":"
            + std::to_string(static_cast<double>(s.t1_ns - s.t0_ns) / 1e3)
            + ",\"args\":{\"id\":" + std::to_string(s.id)
            + ",\"parent\":" + std::to_string(s.parent)
            + ",\"req\":" + std::to_string(s.req)
            + ",\"arg\":" + std::to_string(s.arg) + "}}";
    }
    out += "\n]}\n";
    std::ofstream f(path, std::ios::binary);
    f << out;
    mvq::fatalIf(!f, "cannot write trace file ", path);
}

} // namespace perfbench::trace
