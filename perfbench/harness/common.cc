#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "comm/transport.hh"
#include "harness.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/probes.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"

namespace perfbench
{

namespace
{

/** Drain the program's span buffers into summariser spans (complete
 *  spans only). Call with tracing stopped and the pool quiesced. */
std::vector<Span>
collectSpans()
{
    std::vector<Span> spans;
    for (const optimus::obs::TraceEvent &e : optimus::obs::traceEvents()) {
        if (e.phase != 'X' || e.category == nullptr || e.name == nullptr)
            continue;
        Span s;
        s.category = e.category;
        s.name = e.name;
        s.track = e.track;
        s.beginNs = e.beginNs;
        s.endNs = e.endNs;
        if (e.argName0 != nullptr && (std::strcmp(e.argName0, "elems") == 0 ||
                                      std::strcmp(e.argName0, "rows") == 0))
            s.work = e.argValue0;
        else if (e.argName1 != nullptr &&
                 std::strcmp(e.argName1, "elems") == 0)
            s.work = e.argValue1;
        spans.push_back(std::move(s));
    }
    optimus::obs::clearTrace();
    return spans;
}

/** Span tracing, metrics and probes on or off together; turning
 *  them on clears the span buffers. */
void
setObservability(bool on)
{
    namespace obs = optimus::obs;
    obs::enableMetrics(on);
    obs::enableProbes(on);
    obs::setProbeInterval(kProbeInterval);
    if (on)
        obs::startTracing();
    else
        obs::stopTracing();
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const auto rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

TraceTally
alternateBlocks(int64_t block_units, const std::function<bool()> &more,
                const std::function<void(bool)> &unit)
{
    namespace obs = optimus::obs;
    TraceTally tally;
    bool traced = false;
    bool first = true;
    while (more() || !traced) {
        traced = !traced && !first;
        first = false;
        if (traced)
            setObservability(true);
        const int64_t b0 = obs::nowNs();
        for (int64_t i = 0; i < block_units; ++i)
            unit(traced);
        if (!traced)
            continue;
        tally.wallNs += obs::nowNs() - b0;
        setObservability(false);
        const std::vector<Span> spans = collectSpans();
        tally.runtimeBusyNs += coveredNs(spans, "runtime");
        mergeSummary(tally.summary, summarize(spans));
    }
    return tally;
}

void
CommTally::add(const optimus::CommTrace &trace, int64_t iteration)
{
    using optimus::CommPhase;
    for (CommPhase ph : {CommPhase::InterStage, CommPhase::DpReduce,
                         CommPhase::EmbSync, CommPhase::Other}) {
        const optimus::CommVolume v = trace.volume(ph, iteration);
        wireBytes += v.wireBytes;
        exactBytes += v.exactBytes;
        calls += trace.count(ph, iteration);
    }
}

void
addCommAndRuntime(Result &r, const TraceTally &tally, const CommTally &comm,
                  int64_t steps, int64_t traced_steps)
{
    // Transport verb spans are categorised by communication phase.
    SpanTotals verbs;
    for (const char *cat : {"interStage", "dpReduce", "embSync", "other"})
        verbs.merge(categoryTotals(tally.summary, cat));
    const SpanTotals pfor = spanTotals(tally.summary, "runtime/parallelFor");
    const SpanTotals tasks = spanTotals(tally.summary, "runtime/task");
    const auto per_traced = [&](double v) { return perUnit(v, traced_steps); };

    r.add("comm.wire_bytes_per_step", "bytes",
          perUnit(static_cast<double>(comm.wireBytes), steps), steps);
    r.add("comm.exact_bytes_per_step", "bytes",
          perUnit(static_cast<double>(comm.exactBytes), steps), steps);
    r.add("comm.calls_per_step", "count",
          perUnit(static_cast<double>(comm.calls), steps), steps);
    r.add("comm.ms_per_step", "ms",
          per_traced(static_cast<double>(verbs.selfNs) / 1e6), traced_steps);
    r.add("runtime.parallel_for_calls_per_step", "count",
          per_traced(static_cast<double>(pfor.count)), traced_steps);
    r.add("runtime.tasks_per_step", "count",
          per_traced(static_cast<double>(tasks.count)), traced_steps);
    r.add("runtime.parallel_for_mean_us", "us",
          perUnit(static_cast<double>(pfor.totalNs) / 1e3, pfor.count),
          pfor.count);
    r.add("runtime.pool_busy_share", "fraction",
          perUnit(static_cast<double>(tally.runtimeBusyNs),
                  tally.wallNs * optimus::runtimeThreads()));
}

} // namespace perfbench
