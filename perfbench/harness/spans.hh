/**
 * @file
 * The benchmark's span summariser. It folds a flat list of complete
 * spans (one per traced call, from any thread) into per-name totals
 * with self time: a span's duration minus the part of its interval
 * that its direct child spans on the same track cover. It depends on
 * nothing but the standard library so its tests stand alone.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One complete span. `track` is the recording thread. */
struct Span
{
    std::string category;
    std::string name;
    int track = 0;
    int64_t beginNs = 0;
    int64_t endNs = 0;
    /** Work-size argument (e.g. "elems"); 0 when absent. */
    int64_t work = 0;
};

/** Totals of every span sharing one "category/name" key. */
struct SpanTotals
{
    int64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
    int64_t work = 0;

    void merge(const SpanTotals &other)
    {
        count += other.count;
        totalNs += other.totalNs;
        selfNs += other.selfNs;
        work += other.work;
    }
};

/** Totals keyed by "category/name". */
using SpanSummary = std::map<std::string, SpanTotals>;

/**
 * Summarise @p spans. Nesting is decided per track by interval
 * containment: a span's parent is the innermost earlier-starting
 * span on its track that is still open at its begin. A child that
 * outlives its parent is clipped to the parent's end, so self time
 * never goes negative.
 */
SpanSummary summarize(std::vector<Span> spans);

/** Fold @p more into @p into. */
void mergeSummary(SpanSummary &into, const SpanSummary &more);

/** Totals of one "category/name" key; zero when it never occurred. */
SpanTotals spanTotals(const SpanSummary &summary, const std::string &key);

/** Sum of the totals of every key whose category is @p category. */
SpanTotals categoryTotals(const SpanSummary &summary,
                          const std::string &category);

/**
 * Wall time covered by spans of @p category, taken as the union of
 * their intervals per track and summed over tracks (a thread busy
 * in two nested spans counts once).
 */
int64_t coveredNs(const std::vector<Span> &spans,
                  const std::string &category);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
