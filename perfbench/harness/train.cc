/**
 * @file
 * The training workloads, driven through Trainer3d's public API.
 *
 * train_cc_3d — the full Optimus-CC stack (presets::cbFeSc: CB with
 *   LEP, FE, SC with error feedback) on D=2 P=4 M=4, micro-batch 1,
 *   GPT vocab 64 / hidden 128 / 8 layers / 4 heads / seq 8. Many
 *   parameters per token, so compression, the reduce engine, the
 *   channels and the embedding sync carry a real share of a step.
 * train_pipe_exact — uncompressed (presets::baseline) D=1 P=4 M=8,
 *   micro-batch 2, hidden 64, seq 16: compute-bound, no DP partner,
 *   no compressor. Compressor or reduce changes must not move it.
 *
 * The workload seed drives the corpus and the batch sampling only;
 * model initialisation is fixed.
 */

#include <cmath>
#include <memory>

#include "core/presets.hh"
#include "data/corpus.hh"
#include "data/dataset.hh"
#include "harness.hh"
#include "obs/clock.hh"
#include "obs/trace.hh"
#include "parallel/trainer3d.hh"
#include "runtime/runtime.hh"
#include "tensor/arena.hh"

namespace perfbench
{

namespace
{

using namespace optimus;

/** Steps each setup runs after construction to reach steady state. */
constexpr int kWarmSteps = 2;
/** Setups per end-to-end run; setup_s is their median. */
constexpr int kSetups = 7;
/** Steps per block in the traced pass, which alternates untraced
 *  and traced blocks so the overhead ratio compares like with like;
 *  one probe interval, so every traced block holds one probed step. */
constexpr int64_t kBlockSteps = kProbeInterval;
/** val_ppl is taken after this many measured steps, so it is a pure
 *  function of the seed however long the run lasts; in the traced
 *  pass that is the end of an untraced block. */
constexpr int64_t kValStep = 3 * kBlockSteps;

struct TrainShape
{
    TechniquePreset preset;
    int d, p, m, mb;
    GptConfig model;
};

TrainShape
shapeOf(const std::string &workload)
{
    TrainShape s;
    s.model.vocab = 64;
    s.model.layers = 8;
    s.model.heads = 4;
    s.model.seed = 77;
    if (workload == "train_cc_3d") {
        s.preset = presets::cbFeSc();
        s.d = 2, s.p = 4, s.m = 4, s.mb = 1;
        s.model.hidden = 128;
        s.model.seqLen = 8;
    } else {
        s.preset = presets::baseline();
        s.d = 1, s.p = 4, s.m = 8, s.mb = 2;
        s.model.hidden = 64;
        s.model.seqLen = 16;
    }
    return s;
}

Trainer3dConfig
configOf(const TrainShape &s, bool trace_comm)
{
    Trainer3dConfig c;
    c.model = s.model;
    c.dataParallel = s.d;
    c.pipelineStages = s.p;
    c.microBatches = s.m;
    c.microBatchSize = s.mb;
    c.cb = s.preset.cb;
    c.dp = s.preset.dp;
    c.fusedEmbeddingSync = s.preset.fusedEmbeddingSync;
    c.traceCommunication = trace_comm;
    return c;
}

/**
 * Analytic FLOPs of one training step (forward + backward = 3x
 * forward). Forward per token: 2 * (12 L h^2) for the four block
 * Linears, 2 * (2 L S h) for QK^T and PV over a full S-long window,
 * and 2 h V for the tied output head.
 */
double
stepFlops(const TrainShape &s)
{
    const double h = static_cast<double>(s.model.hidden);
    const double l = static_cast<double>(s.model.layers);
    const double seq = static_cast<double>(s.model.seqLen);
    const double v = static_cast<double>(s.model.vocab);
    const double tokens = static_cast<double>(s.d) * s.m * s.mb * seq;
    const double fwd = 2.0 * (12.0 * l * h * h + 2.0 * l * seq * h + h * v);
    return 3.0 * fwd * tokens;
}

/** One harness-timed step plus what it reported. */
struct StepSample
{
    double ms = 0.0;
    int64_t iteration = 0;
    bool traced = false;
    IterationStats stats;
};

class TrainRun
{
  public:
    TrainRun(const Options &options)
        : options_(options), shape_(shapeOf(options.workload)),
          corpus_(corpusConfig(options.seed, shape_.model.vocab)),
          train_(corpus_.train(), shape_.model.seqLen),
          val_(corpus_.validation(), shape_.model.seqLen)
    {}

    Result run()
    {
        if (options_.trace)
            traced();
        else
            endToEnd();
        return std::move(result_);
    }

  private:
    static CorpusConfig corpusConfig(uint64_t seed, int64_t vocab)
    {
        CorpusConfig cc;
        cc.vocab = vocab;
        cc.totalTokens = 20000;
        cc.seed = seed;
        return cc;
    }

    /** Build the trainer and run the warm steps; seconds taken. */
    double setUp(bool trace_comm)
    {
        trainer_.reset();
        sampler_ = Rng(options_.seed ^ 0x5eedULL);
        const int64_t t0 = obs::nowNs();
        trainer_ = std::make_unique<Trainer3d>(configOf(shape_, trace_comm));
        for (int i = 0; i < kWarmSteps; ++i)
            trainer_->trainIteration(train_, sampler_);
        return obs::secondsBetween(t0, obs::nowNs());
    }

    /** One measured step: timed, gated, validated at kValStep. */
    StepSample step(bool traced)
    {
        StepSample s;
        s.traced = traced;
        s.iteration = trainer_->iterations();
        const int64_t t0 = obs::nowNs();
        {
            obs::ScopedSpan span("bench", "trainIteration");
            s.stats = trainer_->trainIteration(train_, sampler_);
        }
        s.ms = 1e3 * obs::secondsBetween(t0, obs::nowNs());
        ++result_.attempted;
        if (!std::isfinite(s.stats.loss) ||
            trainer_->replicaDivergence() != 0.0f)
            ++result_.failed;
        if (++measured_ == kValStep) {
            obs::ScopedSpan span("bench", "validatePerplexity");
            // Evaluation is not a training step: keep its tensor
            // allocations out of the per-step tallies.
            const int64_t heap0 = mem::heapAllocs();
            const int64_t hits0 = mem::arenaHits();
            valPpl_ = trainer_->validatePerplexity(val_);
            valHeapAllocs_ = mem::heapAllocs() - heap0;
            valArenaHits_ = mem::arenaHits() - hits0;
            if (!std::isfinite(valPpl_))
                result_.problem("val_ppl is not finite");
        }
        return s;
    }

    bool keepGoing(int64_t start_ns, double seconds) const
    {
        return measured_ < kValStep ||
               obs::secondsBetween(start_ns, obs::nowNs()) < seconds;
    }

    void endToEnd()
    {
        std::vector<double> setups;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(setUp(false));
        std::vector<double> ms;
        const int64_t start = obs::nowNs();
        while (keepGoing(start, options_.seconds))
            ms.push_back(step(false).ms);

        const double p50 = percentile(ms, 50);
        const auto n = static_cast<int64_t>(ms.size());
        const double tokens = static_cast<double>(
            trainer_->config().globalBatch() * shape_.model.seqLen);
        result_.add("setup_s", "s", percentile(setups, 50), kSetups);
        result_.add("tokens_per_s", "tokens/s", tokens / (p50 / 1e3), n);
        result_.add("latency_ms_p50", "ms", p50, n);
        result_.add("latency_ms_p90", "ms", percentile(ms, 90), n);
        result_.add("peak_rss_mb", "MiB", peakRssMb());
        result_.add("val_ppl", "ppl", valPpl_);
        result_.add("failed_share", "fraction",
                    perUnit(static_cast<double>(result_.failed),
                            result_.attempted),
                    result_.attempted);
    }

    void traced();

    Options options_;
    TrainShape shape_;
    SyntheticCorpus corpus_;
    LmDataset train_;
    LmDataset val_;
    Rng sampler_;
    std::unique_ptr<Trainer3d> trainer_;
    int64_t measured_ = 0;
    double valPpl_ = NAN;
    int64_t valHeapAllocs_ = 0;
    int64_t valArenaHits_ = 0;
    Result result_;
};

void
TrainRun::traced()
{
    setUp(true);
    // Layer timings get the last fifth of the window.
    const double loop_s = 0.8 * options_.seconds;
    const int64_t heap0 = mem::heapAllocs();
    const int64_t hits0 = mem::arenaHits();
    std::vector<StepSample> steps;
    const int64_t start = obs::nowNs();
    const TraceTally tally = alternateBlocks(
        kBlockSteps, [&] { return keepGoing(start, loop_s); },
        [&](bool traced) { steps.push_back(step(traced)); });
    const auto n = static_cast<int64_t>(steps.size());
    const double heap_per_step =
        static_cast<double>(mem::heapAllocs() - heap0 - valHeapAllocs_) / n;
    const double hits_per_step =
        static_cast<double>(mem::arenaHits() - hits0 - valArenaHits_) / n;

    // Reconciliation 1: the phase breakdown covers the harness-timed step.
    std::vector<double> traced_ms, plain_ms, fb, exposed, busy, emb, opt;
    double phase_sum = 0.0, timed_sum = 0.0, hidden = 0.0, busy_sum = 0.0;
    int64_t traced_steps = 0;
    for (const StepSample &s : steps) {
        const StepPhaseTimes &ph = s.stats.phases;
        (s.traced ? traced_ms : plain_ms).push_back(s.ms);
        traced_steps += s.traced ? 1 : 0;
        fb.push_back(1e3 * ph.forwardBackward);
        exposed.push_back(1e3 * ph.dpReduce);
        busy.push_back(1e3 * ph.dpReduceBusy);
        emb.push_back(1e3 * ph.embSync);
        opt.push_back(1e3 * ph.optimizer);
        hidden += ph.overlapHidden;
        busy_sum += ph.dpReduceBusy;
        phase_sum +=
            1e3 * (ph.forwardBackward + ph.dpReduce + ph.embSync + ph.optimizer);
        timed_sum += s.ms;
    }
    if (std::fabs(phase_sum - timed_sum) > 0.01 * timed_sum) {
        result_.problem("parallel phases sum to " + std::to_string(phase_sum) +
                        " ms but the harness timed " +
                        std::to_string(timed_sum) + " ms (>1% apart)");
    }

    // Reconciliation 2: IterationStats bytes equal CommTrace volume.
    const CommTrace &trace = *trainer_->trace();
    CommTally comm;
    for (const StepSample &s : steps) {
        const CommVolume dp = trace.volume(CommPhase::DpReduce, s.iteration);
        const CommVolume is = trace.volume(CommPhase::InterStage, s.iteration);
        if (dp.wireBytes != s.stats.dpVolume.actualBytes ||
            dp.exactBytes != s.stats.dpVolume.exactBytes ||
            is.wireBytes != s.stats.interStageBytes ||
            is.exactBytes != s.stats.interStageBytesExact) {
            result_.problem("iteration " + std::to_string(s.iteration) +
                            ": IterationStats bytes differ from CommTrace");
        }
        comm.add(trace, s.iteration);
    }

    const int64_t rows = shape_.mb * shape_.model.seqLen;
    const int64_t h = shape_.model.hidden;
    const double layer_s = 0.2 * options_.seconds;
    const double gemm = gemmGflops(rows, h, 4 * h, 0.25 * layer_s);
    const LayerTimes lt =
        timeTrainLayers(shape_.model.vocab, h, shape_.model.heads,
                        shape_.model.seqLen, shape_.mb, 0.75 * layer_s);

    const double fb_ms = percentile(fb, 50);
    const double fb_gflops = stepFlops(shape_) / (fb_ms * 1e6);
    const SpanTotals compress = categoryTotals(tally.summary, "compress");
    const obs::CompressionHealth pp = trainer_->ppHealth();
    const obs::CompressionHealth dph = trainer_->dpHealth();

    Result &r = result_;
    r.add("tensor.gemm_gflops", "GFLOP/s", gemm);
    r.add("tensor.heap_allocs_per_step", "count", heap_per_step, n);
    r.add("tensor.arena_hits_per_step", "count", hits_per_step, n);
    r.add("tensor.peak_mb", "MiB",
          static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0));
    r.add("nn.fb_gflops", "GFLOP/s", fb_gflops, n);
    r.add("nn.fb_peak_share", "fraction", fb_gflops / gemm);
    r.add("nn.attention_ms", "ms", lt.attentionMs);
    r.add("nn.mlp_ms", "ms", lt.mlpMs);
    r.add("nn.layernorm_ms", "ms", lt.layernormMs);
    r.add("nn.embedding_ms", "ms", lt.embeddingMs);
    r.add("nn.head_loss_ms", "ms", lt.headLossMs);
    r.add("compress.ms_per_step", "ms",
          perUnit(static_cast<double>(compress.selfNs) / 1e6, traced_steps),
          traced_steps);
    r.add("compress.calls_per_step", "count",
          perUnit(static_cast<double>(compress.count), traced_steps),
          traced_steps);
    r.add("compress.melem_per_s", "Melem/s",
          perUnit(static_cast<double>(compress.work) * 1e3, compress.selfNs),
          compress.count);
    r.add("compress.pp_wire_ratio", "ratio", pp.wireRatio());
    r.add("compress.dp_wire_ratio", "ratio", dph.wireRatio());
    r.add("compress.pp_relerr", "ratio", pp.relError());
    r.add("compress.dp_relerr", "ratio", dph.relError());
    r.add("parallel.fb_ms", "ms", fb_ms, n);
    r.add("parallel.dp_reduce_exposed_ms", "ms", percentile(exposed, 50), n);
    r.add("parallel.dp_reduce_busy_ms", "ms", percentile(busy, 50), n);
    r.add("parallel.overlap_hidden_share", "fraction",
          busy_sum > 0.0 ? hidden / busy_sum : 0.0, n);
    r.add("parallel.emb_sync_ms", "ms", percentile(emb, 50), n);
    r.add("parallel.optimizer_ms", "ms", percentile(opt, 50), n);
    r.add("parallel.val_ppl", "ppl", valPpl_);
    addCommAndRuntime(r, tally, comm, n, traced_steps);
    r.add("obs.trace_overhead_ratio", "ratio",
          percentile(traced_ms, 50) / percentile(plain_ms, 50),
          static_cast<int64_t>(traced_ms.size()));
}

} // namespace

Result
runTrain(const Options &options)
{
    TrainRun run(options);
    return run.run();
}

} // namespace perfbench
