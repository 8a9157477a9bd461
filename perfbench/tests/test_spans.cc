/**
 * @file
 * Tests of the benchmark's span summariser on synthetic nested
 * spans. Run through ctest in the benchmark build, or directly:
 * `perfbench_test_spans` exits 0 when every case passes.
 */

#include <cstdio>

#include "spans.hh"

using perfbench::Span;
using perfbench::SpanSummary;

namespace
{

int g_failures = 0;

void
expectEq(long long got, long long want, const char *what)
{
    if (got != want) {
        ++g_failures;
        std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got,
                     want);
    }
}

Span
span(const char *cat, const char *name, int track, long long b,
     long long e, long long work = 0)
{
    return Span{cat, name, track, b, e, work};
}

void
nestedSelfTime()
{
    // root [0,100] > a [10,30], b [40,60] > c [45,50]
    const SpanSummary s = perfbench::summarize({
        span("x", "c", 0, 45, 50),
        span("x", "root", 0, 0, 100),
        span("x", "b", 0, 40, 60),
        span("x", "a", 0, 10, 30),
    });
    expectEq(s.at("x/root").totalNs, 100, "root total");
    expectEq(s.at("x/root").selfNs, 60, "root self");
    expectEq(s.at("x/a").selfNs, 20, "a self");
    expectEq(s.at("x/b").selfNs, 15, "b self");
    expectEq(s.at("x/c").selfNs, 5, "c self");
}

void
tracksAreIndependent()
{
    // A span on another track never counts as a child.
    const SpanSummary s = perfbench::summarize({
        span("x", "outer", 0, 0, 100),
        span("x", "worker", 1, 10, 90),
    });
    expectEq(s.at("x/outer").selfNs, 100, "outer self");
    expectEq(s.at("x/worker").selfNs, 80, "worker self");
}

void
repeatedNamesAggregate()
{
    // Two step spans, each with one child; counts and work add up.
    const SpanSummary s = perfbench::summarize({
        span("bench", "step", 0, 0, 10),
        span("compress", "k", 0, 2, 6, 100),
        span("bench", "step", 0, 20, 40),
        span("compress", "k", 0, 25, 26, 50),
    });
    expectEq(s.at("bench/step").count, 2, "step count");
    expectEq(s.at("bench/step").selfNs, 6 + 19, "step self");
    expectEq(s.at("compress/k").work, 150, "work sum");
    expectEq(perfbench::categoryTotals(s, "compress").selfNs, 5,
             "category self");
}

void
outlivingChildIsClipped()
{
    // c [50,120] starts inside p [0,100] but ends after it: p counts
    // only [50,100] as covered.
    const SpanSummary s = perfbench::summarize({
        span("x", "p", 0, 0, 100),
        span("x", "c", 0, 50, 120),
    });
    expectEq(s.at("x/p").selfNs, 50, "parent self");
    expectEq(s.at("x/c").selfNs, 70, "outliving child self");
}

void
identicalIntervalsNest()
{
    // Same begin and end: one becomes the other's child (self 0 for
    // the outer), never a negative self time.
    const SpanSummary s = perfbench::summarize({
        span("x", "a", 0, 5, 15),
        span("x", "b", 0, 5, 15),
    });
    expectEq(s.at("x/a").selfNs + s.at("x/b").selfNs, 10,
             "identical self sum");
}

void
coveredUnionPerTrack()
{
    const std::vector<Span> spans = {
        span("runtime", "parallelFor", 0, 0, 50),
        span("runtime", "chunks", 0, 10, 20),  // nested: counted once
        span("runtime", "chunks", 1, 5, 30),
        span("runtime", "task", 1, 25, 40),     // overlaps previous
        span("other", "x", 1, 0, 100),          // other category
    };
    expectEq(perfbench::coveredNs(spans, "runtime"), 50 + 35,
             "covered union");
}

} // namespace

int
main()
{
    nestedSelfTime();
    tracksAreIndependent();
    repeatedNamesAggregate();
    outlivingChildIsClipped();
    identicalIntervalsNest();
    coveredUnionPerTrack();
    if (g_failures == 0)
        std::printf("perfbench span summariser: all cases passed\n");
    return g_failures == 0 ? 0 : 1;
}
