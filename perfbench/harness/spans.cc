#include "spans.hh"

#include <algorithm>

namespace perfbench
{

namespace
{

/** An open span on the nesting stack. */
struct Open
{
    const Span *span;
    /** Child time covered so far (union, clipped to this span). */
    int64_t coveredNs = 0;
    /** End of the covered union; children arrive in begin order. */
    int64_t coveredUntil = 0;
};

std::string
keyOf(const Span &s)
{
    return s.category + "/" + s.name;
}

void
close(const Open &open, SpanSummary &out)
{
    SpanTotals &t = out[keyOf(*open.span)];
    const int64_t dur = open.span->endNs - open.span->beginNs;
    ++t.count;
    t.totalNs += dur;
    t.selfNs += dur - open.coveredNs;
    t.work += open.span->work;
}

/** Track first, then begin ascending, longer (enclosing) first. */
bool
nestingOrder(const Span &a, const Span &b)
{
    if (a.track != b.track)
        return a.track < b.track;
    if (a.beginNs != b.beginNs)
        return a.beginNs < b.beginNs;
    return a.endNs > b.endNs;
}

} // namespace

SpanSummary
summarize(std::vector<Span> spans)
{
    std::sort(spans.begin(), spans.end(), nestingOrder);
    SpanSummary out;
    std::vector<Open> stack;
    int track = 0;
    for (const Span &s : spans) {
        if (!stack.empty() && s.track != track) {
            for (const Open &o : stack)
                close(o, out);
            stack.clear();
        }
        track = s.track;
        while (!stack.empty() && stack.back().span->endNs <= s.beginNs) {
            close(stack.back(), out);
            stack.pop_back();
        }
        if (!stack.empty()) {
            Open &parent = stack.back();
            const int64_t lo = std::max(s.beginNs, parent.coveredUntil);
            const int64_t hi = std::min(s.endNs, parent.span->endNs);
            if (hi > lo) {
                parent.coveredNs += hi - lo;
                parent.coveredUntil = hi;
            }
        }
        stack.push_back(Open{&s, 0, s.beginNs});
    }
    for (const Open &o : stack)
        close(o, out);
    return out;
}

void
mergeSummary(SpanSummary &into, const SpanSummary &more)
{
    for (const auto &[key, totals] : more)
        into[key].merge(totals);
}

SpanTotals
spanTotals(const SpanSummary &summary, const std::string &key)
{
    const auto it = summary.find(key);
    return it == summary.end() ? SpanTotals{} : it->second;
}

SpanTotals
categoryTotals(const SpanSummary &summary, const std::string &category)
{
    SpanTotals sum;
    const std::string prefix = category + "/";
    for (const auto &[key, totals] : summary) {
        if (key.compare(0, prefix.size(), prefix) == 0)
            sum.merge(totals);
    }
    return sum;
}

int64_t
coveredNs(const std::vector<Span> &spans, const std::string &category)
{
    std::vector<const Span *> picked;
    for (const Span &s : spans) {
        if (s.category == category)
            picked.push_back(&s);
    }
    std::sort(picked.begin(), picked.end(),
              [](const Span *a, const Span *b) {
                  return nestingOrder(*a, *b);
              });
    int64_t covered = 0;
    int track = 0;
    int64_t until = 0;
    bool first = true;
    for (const Span *s : picked) {
        if (first || s->track != track) {
            track = s->track;
            until = s->beginNs;
            first = false;
        }
        const int64_t lo = std::max(s->beginNs, until);
        if (s->endNs > lo) {
            covered += s->endNs - lo;
            until = s->endNs;
        }
    }
    return covered;
}

} // namespace perfbench
