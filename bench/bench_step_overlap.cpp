/**
 * @file
 * Training-step benchmark for the bucketed gradient reduction
 * engine: full Trainer3d iterations under the three DP reduce
 * schedules (legacy sequential, bucketed barriered, bucketed
 * overlapped) at several (D, P, M) grid points, with the per-phase
 * wall-time breakdown from IterationStats. Writes BENCH_step.json.
 *
 * The three schedules are bitwise identical in results (asserted in
 * --smoke mode by comparing every parameter of every replica after
 * the run), so the comparison isolates pure scheduling cost: how
 * much reduce time the overlapped queue hides behind backward, and
 * what the engine's bucketing saves over the legacy per-parameter
 * walk.
 *
 * Usage: bench_step_overlap [--iters 3] [--reps 5]
 *        [--bucket-kb 256] [--dp-compress] [--smoke]
 * --smoke shrinks the run to one tiny grid point with an identity
 * check, for ctest / sanitizer jobs. Thread count comes from
 * OPTIMUS_THREADS (default: hardware). Exits non-zero when the
 * reduce modes differ in any bit or, with arenas on, when any grid
 * point makes a steady-state heap allocation.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/corpus.hh"
#include "data/dataset.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"
#include "util/cli.hh"

using namespace optimus;

namespace
{

struct GridPoint
{
    int d, p, m;
};

/** Mean per-step timing of one (point, mode) measurement. */
struct ModeTiming
{
    double step = 0.0;
    StepPhaseTimes phases;
};

double
seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

GptConfig
benchModel(bool smoke)
{
    GptConfig model;
    if (smoke) {
        model.vocab = 24;
        model.hidden = 16;
        model.layers = 4;
        model.heads = 2;
        model.seqLen = 8;
    } else {
        // Small per-step token count relative to the parameter
        // count, so the reduce phase is a meaningful slice of the
        // step rather than vanishing behind the GEMMs.
        model.vocab = 64;
        model.hidden = 64;
        model.layers = 8;
        model.heads = 4;
        model.seqLen = 8;
    }
    model.seed = 77;
    return model;
}

Trainer3dConfig
makeConfig(const GptConfig &model, const GridPoint &point,
           DpReduceMode mode, int64_t bucket_bytes, bool compress,
           int micro_batch)
{
    Trainer3dConfig config;
    config.model = model;
    config.dataParallel = point.d;
    config.pipelineStages = point.p;
    config.microBatches = point.m;
    config.microBatchSize = micro_batch;
    config.reduceMode = mode;
    config.bucketBytes = bucket_bytes;
    if (compress) {
        config.dp.enabled = true;
        config.dp.stageFraction = 0.75;
    }
    return config;
}

LmDataset
benchData(const GptConfig &model)
{
    CorpusConfig cc;
    cc.vocab = model.vocab;
    cc.totalTokens = 20000;
    cc.seed = 5;
    SyntheticCorpus corpus(cc);
    return {corpus.train(), model.seqLen};
}

/**
 * One measurement repetition: run @p iters consecutive iterations,
 * timing each one individually, and fold the fastest into @p best.
 * All iterations of a mode perform identical work, so the minimum
 * over every sample is the sharpest available estimate of the
 * mode's noise floor; the phase breakdown kept is the one from the
 * winning iteration.
 */
void
measureRep(Trainer3d &trainer, const LmDataset &data, Rng &rng,
           int iters, ModeTiming &best)
{
    for (int it = 0; it < iters; ++it) {
        const double t0 = seconds();
        const IterationStats stats =
            trainer.trainIteration(data, rng);
        const double step = seconds() - t0;
        if (step < best.step) {
            best.step = step;
            best.phases = stats.phases;
        }
    }
}

/** Exact float mismatch count across two trainers' parameters. */
int64_t
bitwiseMismatch(Trainer3d &a, Trainer3d &b)
{
    int64_t mismatches = 0;
    for (int d = 0; d < a.config().dataParallel; ++d) {
        for (int p = 0; p < a.config().pipelineStages; ++p) {
            const auto pa = a.stage(d, p).params();
            const auto pb = b.stage(d, p).params();
            for (size_t j = 0; j < pa.size(); ++j) {
                if (std::memcmp(pa[j]->value.data(),
                                pb[j]->value.data(),
                                sizeof(float) *
                                    pa[j]->value.size()) != 0)
                    ++mismatches;
            }
        }
    }
    return mismatches;
}

const char *
modeName(DpReduceMode mode)
{
    switch (mode) {
      case DpReduceMode::Sequential:
        return "sequential";
      case DpReduceMode::Barriered:
        return "barriered";
      case DpReduceMode::Overlapped:
        return "overlapped";
    }
    return "?";
}

void
printTimingJson(FILE *f, const char *name, const ModeTiming &t,
                const char *tail)
{
    std::fprintf(f,
                 "      \"%s\": {\"step\": %.6f, "
                 "\"forward_backward\": %.6f, \"dp_reduce\": %.6f, "
                 "\"dp_reduce_busy\": %.6f, \"overlap_hidden\": "
                 "%.6f, \"emb_sync\": %.6f, \"optimizer\": "
                 "%.6f}%s\n",
                 name, t.step, t.phases.forwardBackward,
                 t.phases.dpReduce, t.phases.dpReduceBusy,
                 t.phases.overlapHidden, t.phases.embSync,
                 t.phases.optimizer, tail);
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args(argc, argv);
    const bool smoke = args.getBool("smoke", false);
    const int iters =
        static_cast<int>(args.getInt("iters", smoke ? 2 : 3));
    const int reps =
        static_cast<int>(args.getInt("reps", smoke ? 2 : 9));
    const int64_t bucket_bytes =
        args.getInt("bucket-kb", 256) * 1024;
    const bool compress = args.getBool("dp-compress", false);

    const GptConfig model = benchModel(smoke);
    const LmDataset data = benchData(model);

    std::vector<GridPoint> points;
    if (smoke)
        points = {{2, 2, 2}};
    else
        points = {{1, 2, 4}, {2, 2, 4}, {2, 4, 4}, {4, 2, 2}};

    const DpReduceMode modes[] = {DpReduceMode::Sequential,
                                  DpReduceMode::Barriered,
                                  DpReduceMode::Overlapped};

    std::printf("=== training-step overlap benchmark ===\n");
    std::printf(
        "pool threads: %d  iters: %d  reps: %d  bucket: %lld KiB  "
        "dp-compress: %d%s\n\n",
        runtimeThreads(), iters, reps,
        static_cast<long long>(bucket_bytes / 1024), compress,
        smoke ? "  [smoke]" : "");

    FILE *f = std::fopen("BENCH_step.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_step.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"step_overlap\",\n");
    std::fprintf(f, "  \"threads\": %d,\n", runtimeThreads());
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f, "  \"dp_compress\": %s,\n",
                 compress ? "true" : "false");
    std::fprintf(f, "  \"unit\": \"seconds/step\",\n");
    std::fprintf(f, "  \"points\": [\n");

    bool identity_ok = true;
    bool alloc_ok = true;
    for (size_t pi = 0; pi < points.size(); ++pi) {
        const GridPoint &point = points[pi];
        std::printf("D=%d P=%d M=%d\n", point.d, point.p, point.m);

        // One trainer per mode; identical seeds and data streams,
        // so every mode performs the same arithmetic. Repetitions
        // are interleaved across the modes so clock drift (thermal,
        // frequency) biases every mode equally instead of whichever
        // happened to be measured last.
        std::vector<std::unique_ptr<Trainer3d>> trainers;
        std::vector<Rng> rngs;
        std::vector<ModeTiming> timings(3);
        for (const DpReduceMode mode : modes) {
            trainers.push_back(std::make_unique<Trainer3d>(
                makeConfig(model, point, mode, bucket_bytes,
                           compress, smoke ? 2 : 1)));
            rngs.emplace_back(11);
            // Warm-up: two steps, matching the arena layer's warmup
            // definition — the first sizes the arenas (and spins up
            // the pool, binds buckets), the second finishes any
            // lazily-built persistent state whose placement kept
            // step one's slabs from rewinding. From step three on,
            // heapAllocs must stay flat (echoed below).
            trainers.back()->trainIteration(data, rngs.back());
            trainers.back()->trainIteration(data, rngs.back());
            timings[trainers.size() - 1].step = 1e30;
        }
        // Steady-state allocation deltas over the measured reps:
        // with arenas on (OPTIMUS_ARENA default) heapAllocs must
        // stay +0 here — the same contract alloc_gate enforces —
        // while arenaHits counts the recycled-tensor traffic.
        const int64_t heap_before = mem::heapAllocs();
        const int64_t hits_before = mem::arenaHits();
        for (int rep = 0; rep < reps; ++rep) {
            for (size_t mi = 0; mi < trainers.size(); ++mi)
                measureRep(*trainers[mi], data, rngs[mi], iters,
                           timings[mi]);
        }
        const int64_t heap_delta = mem::heapAllocs() - heap_before;
        const int64_t hits_delta = mem::arenaHits() - hits_before;
        for (size_t mi = 0; mi < trainers.size(); ++mi) {
            const ModeTiming &t = timings[mi];
            std::printf("  %-10s step %8.3f ms  (fb %7.3f  reduce "
                        "%7.3f  busy %7.3f  hidden %7.3f)\n",
                        modeName(modes[mi]), 1e3 * t.step,
                        1e3 * t.phases.forwardBackward,
                        1e3 * t.phases.dpReduce,
                        1e3 * t.phases.dpReduceBusy,
                        1e3 * t.phases.overlapHidden);
        }

        // Every mode must have produced bit-identical parameters.
        const int64_t mismatch =
            bitwiseMismatch(*trainers[0], *trainers[1]) +
            bitwiseMismatch(*trainers[0], *trainers[2]);
        if (mismatch != 0) {
            identity_ok = false;
            std::fprintf(stderr,
                         "IDENTITY VIOLATION: %lld tensors differ "
                         "across reduce modes at D=%d P=%d M=%d\n",
                         static_cast<long long>(mismatch), point.d,
                         point.p, point.m);
        }

        // With arenas off every tensor is heap-backed by design;
        // with them on, a steady-state heap allocation breaks the
        // zero-allocation contract alloc_gate enforces.
        if (arenaEnabled() && heap_delta != 0) {
            alloc_ok = false;
            std::fprintf(stderr,
                         "ALLOCATION VIOLATION: %lld steady-state heap "
                         "allocations at D=%d P=%d M=%d\n",
                         static_cast<long long>(heap_delta), point.d,
                         point.p, point.m);
        }

        const double speedup =
            timings[2].step > 0.0 ? timings[1].step / timings[2].step
                                  : 1.0;
        std::printf("  overlap speedup vs barriered: %.3fx\n",
                    speedup);
        std::printf("  mem: steady-state heapAllocs +%lld  "
                    "arenaHits +%lld\n\n",
                    static_cast<long long>(heap_delta),
                    static_cast<long long>(hits_delta));

        std::fprintf(f, "    {\"d\": %d, \"p\": %d, \"m\": %d,\n",
                     point.d, point.p, point.m);
        printTimingJson(f, "sequential", timings[0], ",");
        printTimingJson(f, "barriered", timings[1], ",");
        printTimingJson(f, "overlapped", timings[2], ",");
        std::fprintf(f,
                     "      \"overlap_speedup\": %.3f, "
                     "\"steady_heap_allocs\": %lld, "
                     "\"identity_ok\": %s}%s\n",
                     speedup, static_cast<long long>(heap_delta),
                     mismatch == 0 ? "true" : "false",
                     pi + 1 < points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"mem\": {\"arena\": %s, \"heap_allocs\": %lld, "
                 "\"arena_hits\": %lld, \"heap_fallbacks\": %lld, "
                 "\"peak_bytes\": %lld}\n}\n",
                 arenaEnabled() ? "true" : "false",
                 static_cast<long long>(mem::heapAllocs()),
                 static_cast<long long>(mem::arenaHits()),
                 static_cast<long long>(mem::heapFallbacks()),
                 static_cast<long long>(mem::peakBytes()));
    std::fclose(f);

    std::printf("mem: arena=%d lifetime heapAllocs=%lld "
                "arenaHits=%lld fallbacks=%lld peakBytes=%lld\n",
                arenaEnabled() ? 1 : 0,
                static_cast<long long>(mem::heapAllocs()),
                static_cast<long long>(mem::arenaHits()),
                static_cast<long long>(mem::heapFallbacks()),
                static_cast<long long>(mem::peakBytes()));

    std::printf("results written to BENCH_step.json\n");
    if (!identity_ok) {
        std::fprintf(stderr,
                     "FAILED: reduce modes are not bitwise equal\n");
    }
    if (!alloc_ok) {
        std::fprintf(stderr,
                     "FAILED: steady-state steps allocated on the "
                     "heap\n");
    }
    return identity_ok && alloc_ok ? 0 : 1;
}
