#include "parallel/trainer3d.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hh"
#include "obs/promexport.hh"
#include "obs/rings.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace optimus
{

namespace
{

/** Span-trace output path: config wins, then the env knob. */
std::string
resolveTracePath(const Trainer3dConfig &config)
{
    if (!config.tracePath.empty())
        return config.tracePath;
    if (const char *env = std::getenv("OPTIMUS_TRACE"))
        return env;
    return "";
}

} // namespace

/** Forward-only view of replica 0 used for validation/zero-shot. */
class Trainer3d::ReplicaScorer : public LmScorer
{
  public:
    explicit ReplicaScorer(Trainer3d &trainer) : trainer_(trainer) {}

    Tensor
    scoreLogits(const std::vector<int32_t> &tokens,
                int64_t batch) override
    {
        const int p = trainer_.config_.pipelineStages;
        Tensor h = trainer_.stage(0, 0).forwardTokens(tokens, batch);
        for (int s = 1; s < p; ++s)
            h = trainer_.stage(0, s).forwardHidden(h);
        for (int s = 0; s < p; ++s)
            trainer_.stage(0, s).clearStash();
        return h;
    }

    int64_t seqLen() const override
    {
        return trainer_.config_.model.seqLen;
    }

    int64_t vocab() const override
    {
        return trainer_.config_.model.vocab;
    }

  private:
    Trainer3d &trainer_;
};

Trainer3d::Trainer3d(const Trainer3dConfig &config)
    : config_(config), reduceMode_(config.reduceMode),
      baseTransport_(std::make_unique<InProcessTransport>()),
      recorder_(config.traceCommunication
                    ? std::make_unique<RecordingTransport>(
                          *baseTransport_)
                    : nullptr),
      tracing_(std::make_unique<TracingTransport>(
          recorder_ ? static_cast<Transport &>(*recorder_)
                    : *baseTransport_)),
      transport_(tracing_.get()),
      executor_(config.dataParallel, config.pipelineStages,
                config.microBatches),
      embSync_(config.fusedEmbeddingSync, transport_)
{
    const int d_ways = config.dataParallel;
    const int p_ways = config.pipelineStages;
    OPTIMUS_ASSERT(d_ways >= 1 && p_ways >= 1);
    OPTIMUS_ASSERT(config.microBatches >= 1);

    // Resolve the telemetry env knobs (OPTIMUS_TELEMETRY /
    // OPTIMUS_PROBES / thresholds / OPTIMUS_METRICS_PORT) while
    // construction may still allocate freely.
    obs::initTelemetryFromEnv();
    obs::maybeStartMetricsServerFromEnv();

    // Overlapped scheduling exists to hide bucket reduction behind
    // the *other* replicas' backward; at D == 1 there is nothing to
    // hide behind and the task-queue round trip is measured overhead
    // (0.978x at d=1 p=2 m=4), so run the same — bitwise identical —
    // reduction sequentially.
    if (reduceMode_ == DpReduceMode::Overlapped && d_ways == 1)
        reduceMode_ = DpReduceMode::Sequential;

    stepArena_ = std::make_unique<Workspace>("step");
    replicaArenas_.reserve(d_ways);
    for (int d = 0; d < d_ways; ++d)
        replicaArenas_.push_back(
            std::make_unique<Workspace>("replica"));

    tracePath_ = resolveTracePath(config);
    if (!tracePath_.empty() && !obs::tracingEnabled()) {
        obs::startTracing();
        ownsTrace_ = true;
    }

    stages_.resize(d_ways);
    channels_.resize(d_ways);
    optimizers_.resize(d_ways);
    losses_.resize(d_ways);
    for (int d = 0; d < d_ways; ++d) {
        for (int p = 0; p < p_ways; ++p) {
            stages_[d].push_back(std::make_unique<StageModule>(
                config.model, p, p_ways));
            auto params = stages_[d].back()->params();
            if (config.useAdam) {
                optimizers_[d].push_back(
                    std::make_unique<AdamOptimizer>(
                        std::move(params), config.learningRate));
            } else {
                optimizers_[d].push_back(
                    std::make_unique<SgdOptimizer>(
                        std::move(params), config.learningRate,
                        config.momentum));
            }
        }
        for (int s = 1; s < p_ways; ++s) {
            // Identical compressor seed across replicas: replicas
            // must behave identically given identical data order
            // seeds are per-channel, not per-replica-random.
            channels_[d].push_back(std::make_unique<BackwardChannel>(
                config.cb, p_ways, s,
                config.seed + 17 * s, transport_, d));
            channels_[d].back()->enableInstrumentation(
                config.instrumentChannels);
        }
    }

    reducers_.reserve(p_ways);
    engines_.reserve(p_ways);
    for (int p = 0; p < p_ways; ++p) {
        const bool selected =
            stageSelectedForCompression(config.dp, p, p_ways);
        // Same per-stage seed for both paths: the engine's
        // per-parameter compressor streams must match the legacy
        // reducer's bit for bit.
        const uint64_t stage_seed = config.seed + 31 * (p + 1);
        reducers_.push_back(std::make_unique<DataParallelReducer>(
            config.dp, selected, d_ways, stage_seed, transport_));
        ReduceEngineConfig ec;
        ec.dp = config.dp;
        ec.compressStage = selected;
        ec.workers = d_ways;
        ec.seed = stage_seed;
        ec.bucketBytes = config.bucketBytes;
        ec.transport = transport_;
        engines_.push_back(std::make_unique<ReduceEngine>(ec));
    }

    // Aligned per-stage parameter lists, built once: the engine
    // bind, the sequential reducer, and the optimizers all view the
    // same stable Param objects, so rebuilding these per iteration
    // was pure allocation churn.
    workerParams_.resize(p_ways);
    for (int p = 0; p < p_ways; ++p) {
        workerParams_[p].reserve(d_ways);
        for (int d = 0; d < d_ways; ++d)
            workerParams_[p].push_back(stages_[d][p]->params());
    }

    boundary_.resize(static_cast<size_t>(d_ways) * (p_ways - 1) *
                     config.microBatches);
    stashHighWater_.assign(static_cast<size_t>(d_ways) * p_ways, 0);
    scorer_ = std::make_unique<ReplicaScorer>(*this);
}

Trainer3d::~Trainer3d()
{
    if (ownsTrace_) {
        obs::stopTracing();
        if (!obs::writeTrace(tracePath_))
            warn("failed to write trace to '%s'", tracePath_.c_str());
    }
}

LmScorer &
Trainer3d::scorer()
{
    return *scorer_;
}

StageModule &
Trainer3d::stage(int d, int p)
{
    OPTIMUS_ASSERT(d >= 0 && d < static_cast<int>(stages_.size()));
    OPTIMUS_ASSERT(p >= 0 && p < static_cast<int>(stages_[d].size()));
    return *stages_[d][p];
}

const StageModule &
Trainer3d::stage(int d, int p) const
{
    return *stages_[d][p];
}

BackwardChannel &
Trainer3d::channel(int d, int s)
{
    OPTIMUS_ASSERT(s >= 1 && s < config_.pipelineStages);
    return *channels_[d][s - 1];
}

int
Trainer3d::stashHighWater(int d, int p) const
{
    OPTIMUS_ASSERT(d >= 0 && d < config_.dataParallel);
    OPTIMUS_ASSERT(p >= 0 && p < config_.pipelineStages);
    return stashHighWater_[d * config_.pipelineStages + p];
}

const ReduceEngine &
Trainer3d::reduceEngine(int p) const
{
    OPTIMUS_ASSERT(p >= 0 &&
                   p < static_cast<int>(engines_.size()));
    return *engines_[p];
}

// optlint:hot — steady-state step path (zero-allocation contract).
IterationStats
Trainer3d::trainIteration(const LmDataset &data, Rng &rng)
{
    const int d_ways = config_.dataParallel;
    const int p_ways = config_.pipelineStages;
    const int m_count = config_.microBatches;
    const int64_t mb_rows = config_.microBatchSize;

    const bool use_engine = reduceMode_ != DpReduceMode::Sequential;
    const bool overlap = reduceMode_ == DpReduceMode::Overlapped;

    // Serial portions of the step (sampling, sequential reduce,
    // embedding sync, optimizer) draw tensor storage from the step
    // arena; the pipeline ops below install per-replica scopes.
    // Workspaces rewind when nothing is outstanding and recycle
    // through their free lists otherwise — either way no heap call.
    stepArena_->reset();
    for (auto &arena : replicaArenas_)
        arena->reset();
    WorkspaceScope step_scope(stepArena_.get());

    IterationStats stats;
    double loss_sum = 0.0;

    // Stamp this iteration's transport events (outside any parallel
    // region; the first iteration is 0). The same boundary arms the
    // sampled probe cadence for every channel this step touches.
    transport_->setIteration(iterations_);
    obs::probeStepBegin(iterations_);

    // Channel byte counters are cumulative; snapshot them so the
    // returned stats cover this iteration only.
    int64_t base_sent = 0, base_exact = 0;
    for (int d = 0; d < d_ways; ++d) {
        for (int s = 1; s < p_ways; ++s) {
            base_sent += channels_[d][s - 1]->bytesSent();
            base_exact += channels_[d][s - 1]->bytesUncompressed();
        }
    }

    // Sample the global mini-batch: D * M micro-batches, assigned
    // round-robin-free (contiguous shards) to replicas. The batches
    // persist across iterations and are refilled in place.
    // optlint:coldalloc — warmup capacity ratchet.
    microBatches_.resize(d_ways * m_count);
    for (int i = 0; i < d_ways * m_count; ++i)
        data.sampleBatchInto(microBatches_[i], mb_rows, rng);

    // Tied embedding tables are excluded from the DP all-reduce (the
    // synchronizer owns them); the list is needed up front so the
    // engines can bind their bucket layouts before backward starts.
    excluded_.clear();
    for (int d = 0; d < d_ways; ++d) {
        // optlint:coldalloc — member scratch, capacity ratchets.
        if (auto table = stages_[d][0]->embeddingTable())
            excluded_.push_back(table.get());
        if (auto table = stages_[d][p_ways - 1]->embeddingTable())
            excluded_.push_back(table.get()); // optlint:coldalloc
    }

    if (use_engine) {
        for (int p = 0; p < p_ways; ++p) {
            if (!engines_[p]->bound())
                engines_[p]->bind(workerParams_[p], excluded_);
            engines_[p]->beginIteration(reduceGroup_, overlap,
                                        iterations_);
        }
    }

    if (obs::metricsEnabled()) {
        static obs::Counter &iters =
            obs::MetricsRegistry::instance().counter(
                "trainer.iterations");
        iters.add(1);
    }

    const float inv_m = 1.0f / static_cast<float>(m_count);
    // Every phase boundary below is one obs::nowNs() reading used
    // for both the StepPhaseTimes accumulator and the trace span,
    // so tools/tracesum reconciles with the struct exactly.
    const int64_t t_iter = obs::nowNs();

    // Forward/backward: the 1F1B schedule executed on the pool (see
    // pipeline_executor.hh). Each op is one stage's forward or
    // backward of one micro-batch; stages of a replica overlap as
    // far as their data dependencies allow, and the D replicas share
    // nothing until the all-reduce below. Every stage, channel, and
    // loss head sees its micro-batches in order, so the numerics do
    // not depend on OPTIMUS_THREADS. Per-replica losses land in a
    // fixed slot (only the last stage writes it, in micro-batch
    // order) and are summed in replica order.
    replicaLoss_.assign(d_ways, 0.0);
    std::fill(stashHighWater_.begin(), stashHighWater_.end(), 0);
    const auto boundary = [&](int d, int s, int m) -> Tensor & {
        return boundary_[(static_cast<size_t>(d) * (p_ways - 1) + s) *
                             m_count +
                         m];
    };
    const auto run_op = [&](int d, const PipeOp &op) {
        const int s = op.stage;
        const int m = op.microBatch;
        const bool last = s == p_ways - 1;
        const int64_t t_op = obs::tracingEnabled() ? obs::nowNs() : 0;
        // Replica-private recycling pool for activations, stashes,
        // and channel buffers, shared by the replica's stage ops.
        WorkspaceScope replica_scope(replicaArenas_[d].get());
        StageModule &stage = *stages_[d][s];
        if (op.kind == PipeOpKind::Forward) {
            const LmBatch &mb = microBatches_[d * m_count + m];
            Tensor h;
            if (s == 0) {
                h = stage.forwardTokens(mb.tokens, mb.batch);
            } else {
                const Tensor in = std::move(boundary(d, s - 1, m));
                channels_[d][s - 1]->observeForward(in, m);
                h = stage.forwardHidden(in);
            }
            if (last)
                replicaLoss_[d] += losses_[d].forward(h, mb.targets);
            else
                boundary(d, s, m) = std::move(h);
            int &high = stashHighWater_[d * p_ways + s];
            high = std::max(high, static_cast<int>(stage.stashDepth()));
        } else {
            // The boundary slot s -> s+1 carried micro-batch m's
            // activation forward and now carries its gradient back.
            Tensor g = last ? losses_[d].backward()
                            : std::move(boundary(d, s, m));
            g = stage.backwardHidden(g);
            if (s == 0)
                stage.backwardTokens(g);
            // On the last micro-batch a stage's gradients are final
            // the moment its backward returns: the engine path
            // scales them by 1/M here and signals the stage's
            // engine; the D-th replica's signal queues the stage's
            // buckets while earlier stages are still in backward.
            if (use_engine && m == m_count - 1) {
                optimizers_[d][s]->scaleGrad(inv_m);
                engines_[s]->notifyReplicaDone();
            }
            if (s > 0)
                boundary(d, s - 1, m) =
                    channels_[d][s - 1]->send(g, m, m_count);
        }
        if (t_op != 0) {
            obs::emitSpan("compute",
                          op.kind == PipeOpKind::Forward ? "forward"
                                                         : "backward",
                          t_op, obs::nowNs(), s, "replica", d, "mb",
                          m);
        }
    };
    executor_.run(run_op);
    const int64_t t_fb_end = obs::nowNs();
    stats.phases.forwardBackward = obs::secondsBetween(t_iter,
                                                       t_fb_end);
    obs::emitSpan("phase", "forwardBackward", t_iter, t_fb_end,
                  iterations_);
    for (int d = 0; d < d_ways; ++d)
        loss_sum += replicaLoss_[d];

    // Legacy path: average gradients over micro-batches after the
    // pipeline ran (per-replica optimizer state is disjoint). The
    // engine path already scaled inside the last backward ops —
    // same multiplications, earlier.
    if (!use_engine) {
        parallelFor(0, d_ways, 1, [&](int64_t d_lo, int64_t d_hi) {
            for (int64_t d = d_lo; d < d_hi; ++d) {
                for (int p = 0; p < p_ways; ++p)
                    optimizers_[d][p]->scaleGrad(inv_m);
            }
        });
    }

    // Data-parallel gradient all-reduce. Exposed time only: in
    // overlapped mode most bucket tasks already ran during backward.
    const int64_t t_reduce = obs::nowNs();
    if (use_engine) {
        for (int p = 0; p < p_ways; ++p)
            engines_[p]->flush();
        reduceGroup_.wait();
        for (int p = 0; p < p_ways; ++p) {
            double busy = 0.0;
            stats.dpVolume += engines_[p]->collect(&busy);
            stats.phases.dpReduceBusy += busy;
        }
    } else {
        for (int p = 0; p < p_ways; ++p) {
            stats.dpVolume += reducers_[p]->reduce(workerParams_[p],
                                                   excluded_);
        }
    }
    const int64_t t_reduce_end = obs::nowNs();
    stats.phases.dpReduce = obs::secondsBetween(t_reduce,
                                                t_reduce_end);
    obs::emitSpan("phase", "dpReduce", t_reduce, t_reduce_end,
                  iterations_);
    if (!use_engine)
        stats.phases.dpReduceBusy = stats.phases.dpReduce;
    stats.phases.overlapHidden = std::max(
        0.0, stats.phases.dpReduceBusy - stats.phases.dpReduce);

    // Embedding synchronization (baseline or fused).
    const int64_t t_emb = obs::nowNs();
    firstCopies_.clear();
    lastCopies_.clear();
    for (int d = 0; d < d_ways; ++d) {
        // optlint:coldalloc — member scratch, capacity ratchets.
        firstCopies_.push_back(stages_[d][0]->embeddingTable());
        lastCopies_.push_back(
            stages_[d][p_ways - 1]->embeddingTable());
    }
    stats.embVolume = embSync_.synchronize(firstCopies_, lastCopies_);
    const int64_t t_emb_end = obs::nowNs();
    stats.phases.embSync = obs::secondsBetween(t_emb, t_emb_end);
    obs::emitSpan("phase", "embSync", t_emb, t_emb_end, iterations_);

    // Global gradient norm, sampled after the reduce (replicas are
    // identical, so replica 0 in stage/parameter order suffices)
    // and before the optimizer zeroes the gradients. Read-only
    // observation: probed and unprobed runs stay bitwise identical.
    double grad_norm = -1.0;
    if (obs::probeActive()) {
        double grad_norm_sq = 0.0;
        for (int p = 0; p < p_ways; ++p) {
            for (const auto &param : workerParams_[p][0]) {
                grad_norm_sq += obs::l2NormSq(
                    param->grad.data(),
                    static_cast<size_t>(param->grad.size()));
            }
        }
        grad_norm = std::sqrt(grad_norm_sq);
    }

    // Optimizer update; replicas update identically because their
    // gradients are now identical.
    const int64_t t_opt = obs::nowNs();
    if (config_.applyUpdates) {
        parallelFor(0, d_ways, 1, [&](int64_t d_lo, int64_t d_hi) {
            for (int64_t d = d_lo; d < d_hi; ++d) {
                for (int p = 0; p < p_ways; ++p) {
                    optimizers_[d][p]->step();
                    optimizers_[d][p]->zeroGrad();
                }
            }
        });
    }
    const int64_t t_opt_end = obs::nowNs();
    stats.phases.optimizer = obs::secondsBetween(t_opt, t_opt_end);
    obs::emitSpan("phase", "optimizer", t_opt, t_opt_end,
                  iterations_);

    for (int d = 0; d < d_ways; ++d) {
        for (int s = 1; s < p_ways; ++s) {
            // optlint:allow(COM01) event-derived cumulative view.
            stats.interStageBytes +=
                channels_[d][s - 1]->bytesSent();
            // optlint:allow(COM01) same event-derived delta.
            stats.interStageBytesExact +=
                channels_[d][s - 1]->bytesUncompressed();
        }
    }
    // optlint:allow(COM01) snapshot subtraction, same view.
    stats.interStageBytes -= base_sent;
    stats.interStageBytesExact -= base_exact; // optlint:allow(COM01)

    stats.loss = loss_sum / static_cast<double>(d_ways * m_count);
    const int64_t t_end = obs::nowNs();
    stats.phases.total = obs::secondsBetween(t_iter, t_end);
    obs::emitSpan("phase", "step", t_iter, t_end, iterations_);
    // Telemetry boundary: ring samples, health-probe rollups, and
    // threshold monitors — all pure observation, all allocation-
    // free once the rings are registered (warmup does that).
    sampleTelemetry(stats, grad_norm);
    // Fold the allocation tallies into obs::metrics and the
    // mem.heapAllocs counter track once per step.
    mem::publishMetrics();
    ++iterations_;
    return stats;
}

obs::CompressionHealth
Trainer3d::ppHealth() const
{
    obs::CompressionHealth h;
    for (const auto &replica : channels_) {
        for (const auto &channel : replica)
            h.merge(channel->health());
    }
    return h;
}

obs::CompressionHealth
Trainer3d::dpHealth() const
{
    // The bucketed engines carry the probe state; in Sequential
    // mode (legacy reducer) the DP channel reports empty health.
    obs::CompressionHealth h;
    for (const auto &engine : engines_)
        h.merge(engine->health());
    return h;
}

// optlint:hot — runs once per step inside the zero-allocation
// window; rings and alert slots were registered during warmup.
void
Trainer3d::sampleTelemetry(const IterationStats &stats,
                           double grad_norm)
{
    if (obs::metricsEnabled()) {
        static obs::Ring &loss_ring =
            obs::RingRegistry::instance().ring("train.loss");
        static obs::Ring &step_ring =
            obs::RingRegistry::instance().ring(
                "train.step.seconds");
        static obs::Ring &fb_ring =
            obs::RingRegistry::instance().ring(
                "train.forwardBackward.seconds");
        static obs::Ring &reduce_ring =
            obs::RingRegistry::instance().ring(
                "train.dpReduce.seconds");
        loss_ring.push(stats.loss);
        step_ring.push(stats.phases.total);
        fb_ring.push(stats.phases.forwardBackward);
        reduce_ring.push(stats.phases.dpReduce);
    }
    if (!obs::probeActive())
        return;

    // Per-window health: cumulative snapshots minus the previous
    // sampled step's (residual norms carry over as state). Only
    // sampled steps pay the health fold and the ring pushes.
    const obs::CompressionHealth pp = ppHealth();
    const obs::CompressionHealth dp = dpHealth();
    const obs::CompressionHealth pp_step = pp.delta(ppHealthPrev_);
    const obs::CompressionHealth dp_step = dp.delta(dpHealthPrev_);
    ppHealthPrev_ = pp;
    dpHealthPrev_ = dp;

    if (obs::metricsEnabled()) {
        static obs::Ring &pp_relerr =
            obs::RingRegistry::instance().ring("probe.pp.relerr");
        static obs::Ring &pp_ratio =
            obs::RingRegistry::instance().ring(
                "probe.pp.wireratio");
        static obs::Ring &pp_residual =
            obs::RingRegistry::instance().ring(
                "probe.pp.residual");
        static obs::Ring &pp_cosine =
            obs::RingRegistry::instance().ring("probe.pp.cosine");
        static obs::Ring &dp_relerr =
            obs::RingRegistry::instance().ring("probe.dp.relerr");
        static obs::Ring &dp_ratio =
            obs::RingRegistry::instance().ring(
                "probe.dp.wireratio");
        static obs::Ring &dp_residual =
            obs::RingRegistry::instance().ring(
                "probe.dp.residual");
        static obs::Ring &dp_cosine =
            obs::RingRegistry::instance().ring("probe.dp.cosine");
        static obs::Ring &emb_bytes =
            obs::RingRegistry::instance().ring("probe.emb.bytes");
        static obs::Ring &gradnorm_ring =
            obs::RingRegistry::instance().ring("train.gradnorm");
        pp_relerr.push(pp_step.relError());
        pp_ratio.push(pp_step.wireRatio());
        pp_residual.push(pp_step.residualNorm());
        pp_cosine.push(pp_step.meanCosine());
        dp_relerr.push(dp_step.relError());
        dp_ratio.push(dp_step.wireRatio());
        dp_residual.push(dp_step.residualNorm());
        dp_cosine.push(dp_step.meanCosine());
        emb_bytes.push(static_cast<double>(
            stats.embVolume.tableBytes));
        gradnorm_ring.push(grad_norm);
    }

    // Threshold monitors -> rate-limited alerts. The stderr line
    // is the sanctioned step-summary echo: the one place training
    // surfaces an alert as text; every other consumer reads the
    // obs metrics / exporter.
    const obs::ProbeThresholds &limits = obs::probeThresholds();
    const auto monitor = [&](const char *channel,
                             obs::AlertKind kind, double value,
                             double threshold) {
        if (threshold <= 0.0 || !(value > threshold))
            return;
        if (!obs::AlertLog::instance().raise(
                channel, kind, iterations_, value, threshold))
            return;
        std::fprintf( // optlint:allow(OBS02)
            stderr,
            "optimus: alert step=%lld channel=%s kind=%s "
            "value=%.6g threshold=%.6g\n",
            static_cast<long long>(iterations_), channel,
            obs::alertKindName(kind), value, threshold);
    };
    if (pp_step.compressedSends > 0) {
        monitor("pp", obs::AlertKind::RelError,
                pp_step.relError(), limits.relErrMax);
    }
    if (dp_step.compressedSends > 0) {
        monitor("dp", obs::AlertKind::RelError,
                dp_step.relError(), limits.relErrMax);
    }
    if (grad_norm >= 0.0) {
        monitor("train", obs::AlertKind::GradNorm, grad_norm,
                limits.gradNormMax);
    }
    if (haveBestLoss_ && limits.lossFactor > 0.0) {
        monitor("train", obs::AlertKind::LossDrift, stats.loss,
                limits.lossFactor * bestLoss_);
    }
    if (!haveBestLoss_ || stats.loss < bestLoss_) {
        bestLoss_ = stats.loss;
        haveBestLoss_ = true;
    }
}

double
Trainer3d::validatePerplexity(const LmDataset &val)
{
    const auto batches = val.evalBatches(8);
    OPTIMUS_ASSERT(!batches.empty());
    double nll_sum = 0.0;
    for (const auto &b : batches) {
        Tensor logits = scorer_->scoreLogits(b.tokens, b.batch);
        nll_sum += SoftmaxCrossEntropy::evaluate(logits, b.targets);
    }
    return SoftmaxCrossEntropy::perplexity(
        nll_sum / static_cast<double>(batches.size()));
}

float
Trainer3d::replicaDivergence() const
{
    float worst = 0.0f;
    const int d_ways = config_.dataParallel;
    for (int p = 0; p < config_.pipelineStages; ++p) {
        const auto reference = stages_[0][p]->params();
        for (int d = 1; d < d_ways; ++d) {
            const auto other = stages_[d][p]->params();
            OPTIMUS_ASSERT(other.size() == reference.size());
            for (size_t j = 0; j < reference.size(); ++j) {
                const Tensor &a = reference[j]->value;
                const Tensor &b = other[j]->value;
                OPTIMUS_ASSERT(a.size() == b.size());
                for (int64_t i = 0; i < a.size(); ++i) {
                    const float diff = std::fabs(a[i] - b[i]);
                    if (diff > worst)
                        worst = diff;
                }
            }
        }
    }
    return worst;
}

int64_t
Trainer3d::lepBufferBytes() const
{
    int64_t total = 0;
    for (const auto &replica : channels_) {
        for (const auto &ch : replica)
            total += ch->errorBufferBytes();
    }
    return total;
}

int64_t
Trainer3d::compressorStateBytes() const
{
    int64_t total = 0;
    for (const auto &replica : channels_) {
        for (const auto &ch : replica)
            total += ch->compressorStateBytes();
    }
    // Only one of the two reduce paths holds warm state (whichever
    // the configured mode exercises); the other contributes zero.
    for (const auto &reducer : reducers_)
        total += reducer->stateBytes();
    for (const auto &engine : engines_)
        total += engine->stateBytes();
    return total;
}

int64_t
Trainer3d::parameterBytes() const
{
    int64_t total = 0;
    for (int p = 0; p < config_.pipelineStages; ++p) {
        for (const auto &param : stages_[0][p]->params())
            total += static_cast<int64_t>(sizeof(float)) *
                     param->size();
    }
    return total;
}

} // namespace optimus
