/**
 * @file
 * Shared pieces of the benchmark harness: run options, the result
 * record every workload fills, nearest-rank statistics, and the
 * bridge from the program's trace buffers to the span summariser.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.hh"

namespace optimus
{
class CommTrace;
}

namespace perfbench
{

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Length of the measured window. */
    double seconds = 10.0;
    /** false: end-to-end pass; true: traced per-layer pass. */
    bool trace = false;
};

/** One reported number. `samples` is 0 for a derived value. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    int64_t samples = 0;
};

/** What a workload run reports. */
struct Result
{
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Correctness and reconciliation failures, one line each. */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;

    void add(const std::string &name, const std::string &unit,
             double value, int64_t samples = 0)
    {
        metrics.push_back(Metric{name, unit, value, samples});
    }
    void problem(const std::string &what) { problems.push_back(what); }
};

/** Nearest-rank percentile (p in (0, 100]); 0 for no samples. */
double percentile(std::vector<double> values, double p);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMb();

/** Steps between two probed steps: the program's default cadence,
 *  pinned so the traced blocks always contain a probed step. */
constexpr int kProbeInterval = 16;

/** What the traced blocks of a traced pass recorded. */
struct TraceTally
{
    SpanSummary summary;
    /** Wall time of the traced blocks. */
    int64_t wallNs = 0;
    /** Per-thread union of `runtime` spans, summed over threads. */
    int64_t runtimeBusyNs = 0;
};

/**
 * The traced pass's measured loop: blocks of @p block_units calls of
 * @p unit(traced), untraced first and then alternating, while
 * @p more() holds and until a traced block has run. Observability
 * (spans, metrics, and probes every kProbeInterval-th step) is on
 * only in traced blocks; their spans are summarised as each ends.
 */
TraceTally alternateBlocks(int64_t block_units,
                           const std::function<bool()> &more,
                           const std::function<void(bool traced)> &unit);

/** CommTrace totals over the iterations fed to add(). */
struct CommTally
{
    int64_t wireBytes = 0;
    int64_t exactBytes = 0;
    int64_t calls = 0;

    void add(const optimus::CommTrace &trace, int64_t iteration);
};

/**
 * The comm.* and runtime.* metrics, per step (a train step or a
 * serve round): @p steps counts the steps @p comm covers, @p
 * traced_steps those in traced blocks.
 */
void addCommAndRuntime(Result &result, const TraceTally &tally,
                       const CommTally &comm, int64_t steps,
                       int64_t traced_steps);

/** `sum / count`, or 0 when count is 0 (a layer not on the path). */
inline double
perUnit(double sum, int64_t count)
{
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

/** Train workloads: train_cc_3d and train_pipe_exact. */
Result runTrain(const Options &options);

/** The closed-loop serving workload: serve_mixed. */
Result runServe(const Options &options);

/** Median milliseconds of one forward + backward of each public nn
 *  layer on one micro-batch of the given shape. */
struct LayerTimes
{
    double attentionMs = 0.0;
    double mlpMs = 0.0;
    double layernormMs = 0.0;
    double embeddingMs = 0.0;
    double headLossMs = 0.0;
};

LayerTimes timeTrainLayers(int64_t vocab, int64_t hidden, int64_t heads,
                           int64_t seq, int64_t batch, double budget_s);

/** Median GFLOP/s of `gemm` on [m x k] * [k x n]. */
double gemmGflops(int64_t m, int64_t k, int64_t n, double budget_s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
