#include "loadgen.hpp"

#include <algorithm>
#include <cstring>
#include <future>

#include "trace.hpp"

namespace perfbench {

using mvq::Tensor;
using mvq::serve::RejectedError;
using mvq::serve::RejectReason;

namespace {

Outcome
outcomeOf(const RejectedError &e)
{
    switch (e.reason()) {
      case RejectReason::DeadlineExpired:
        return Outcome::Expired;
      case RejectReason::QueueFull:
        return Outcome::Shed;
      default:
        return Outcome::Error;
    }
}

/** Submit rec's image; a synchronous refusal completes the record. */
std::future<Tensor>
submit(LoadContext &ctx, RequestRecord &rec)
{
    rec.submit_ms = trace::nowMs();
    try {
        trace::Span s("serve", "Server::submit", rec.id);
        return ctx.server.submit(ctx.images[static_cast<std::size_t>(rec.image)]);
    } catch (const RejectedError &e) {
        rec.outcome = outcomeOf(e);
    } catch (...) {
        rec.outcome = Outcome::Error;
    }
    rec.done_ms = trace::nowMs();
    return {};
}

/** Await rec's result and classify it against its reference. */
void
finish(const LoadContext &ctx, RequestRecord &rec, std::future<Tensor> &fut)
{
    try {
        const Tensor out = fut.get();
        rec.done_ms = trace::nowMs();
        if (!sameBytes(out, ctx.refs[static_cast<std::size_t>(rec.image)]))
            rec.outcome = Outcome::Wrong;
        else
            rec.outcome = rec.latencyMs() <= ctx.limit_ms ? Outcome::Ok
                                                          : Outcome::Late;
    } catch (const RejectedError &e) {
        rec.done_ms = trace::nowMs();
        rec.outcome = outcomeOf(e);
    } catch (...) {
        rec.done_ms = trace::nowMs();
        rec.outcome = Outcome::Error;
    }
}

RequestRecord
newRequest(LoadContext &ctx, std::int64_t seq)
{
    RequestRecord rec;
    rec.id = ctx.next_id++;
    rec.image = static_cast<int>(seq % static_cast<std::int64_t>(ctx.images.size()));
    return rec;
}

double
lastDone(const std::vector<RequestRecord> &reqs, double floor_ms)
{
    double end = floor_ms;
    for (const RequestRecord &r : reqs)
        end = std::max(end, r.done_ms);
    return end;
}

} // namespace

bool
forwarded(Outcome o)
{
    return o == Outcome::Ok || o == Outcome::Late || o == Outcome::Wrong;
}

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.numel() == b.numel()
        && std::memcmp(a.data(), b.data(),
                       static_cast<std::size_t>(a.numel()) * sizeof(float))
        == 0;
}

Attribution
attributeToBatches(const std::vector<RequestRecord> &reqs,
                   const std::vector<BatchRecord> &batches)
{
    Attribution a;
    a.batch.assign(reqs.size(), -1);
    std::size_t b = 0;
    std::int64_t used = 0; // requests placed in batch b so far
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        if (!forwarded(reqs[i].outcome))
            continue;
        while (b < batches.size() && used == batches[b].size) {
            ++b;
            used = 0;
        }
        if (b == batches.size()) {
            a.consistent = false; // more forwarded requests than slots
            break;
        }
        a.batch[i] = static_cast<std::ptrdiff_t>(b);
        ++used;
        if (batches[b].start_ms < reqs[i].submit_ms
            || reqs[i].done_ms < batches[b].end_ms)
            a.consistent = false;
    }
    // Every slot of every batch must be taken, the last one included.
    const bool filled = batches.empty()
        || (b + 1 == batches.size() && used == batches.back().size);
    if (!filled)
        a.consistent = false;
    return a;
}

PhaseResult
runClosedLoop(LoadContext &ctx, int wave, double seconds,
              std::int64_t min_requests)
{
    PhaseResult r;
    r.start_ms = trace::nowMs();
    std::vector<std::future<Tensor>> futs(static_cast<std::size_t>(wave));
    std::int64_t seq = 0;
    while (trace::nowMs() - r.start_ms < seconds * 1e3
           || static_cast<std::int64_t>(r.reqs.size()) < min_requests) {
        const std::size_t base = r.reqs.size();
        for (std::size_t w = 0; w < futs.size(); ++w) {
            r.reqs.push_back(newRequest(ctx, seq++));
            futs[w] = submit(ctx, r.reqs.back());
        }
        for (std::size_t w = 0; w < futs.size(); ++w)
            if (futs[w].valid())
                finish(ctx, r.reqs[base + w], futs[w]);
    }
    r.end_ms = lastDone(r.reqs, r.start_ms);
    return r;
}

} // namespace perfbench
