/**
 * @file
 * The serving workload, serve_mixed, driven through ServeEngine's
 * public API: P=2, exact boundary, 8 slots, 64-token round budget,
 * GPT vocab 64 / hidden 64 / 8 layers / 4 heads / seq 128.
 *
 * A closed loop of 16 clients: each submits its next request as soon
 * as its previous one has received its last token, so a queue forms
 * in front of the 8 slots. Prompts are cut from a seeded corpus;
 * about a quarter are long (48-96 tokens), so prefill shares rounds
 * with decode, and each request asks for 16-32 new tokens. The seed
 * picks the prompts' content only: lengths, budgets and request
 * order are the same for every seed, so every seed offers the same
 * load (token values change neither the cost nor the schedule).
 *
 * The engine admits FIFO and every active sequence gets exactly one
 * token per step(), so the harness sees each request's admission,
 * first token and later tokens from outside, timestamping them with
 * obs::nowNs() at the end of the step() that produced them.
 */

#include <deque>
#include <map>
#include <memory>

#include "comm/transport.hh"
#include "data/corpus.hh"
#include "harness.hh"
#include "obs/clock.hh"
#include "obs/trace.hh"
#include "runtime/runtime.hh"
#include "serve/engine.hh"
#include "tensor/arena.hh"

namespace perfbench
{

namespace
{

using namespace optimus;

constexpr int kClients = 16;
constexpr int kShortPrompts = 12;
constexpr int kLongPrompts = 4;
constexpr int kSetups = 7;
/** Rounds per block in the traced pass (alternating, as in train). */
constexpr int kBlockRounds = 32;

GptConfig
serveModel()
{
    GptConfig m;
    m.vocab = 64;
    m.hidden = 64;
    m.layers = 8;
    m.heads = 4;
    m.seqLen = 128;
    m.seed = 77;
    return m;
}

/** One distinct request: a prompt and its token budget. */
struct PoolEntry
{
    std::vector<int32_t> prompt;
    int64_t maxNew = 0;
};

/**
 * The request pool: prompt lengths and budgets (16-32 new tokens)
 * spread evenly over their ranges, content cut from the seeded
 * corpus. Every request repeats one entry, so the oracle runs once
 * per entry.
 */
std::vector<PoolEntry>
requestPool(uint64_t seed, int64_t vocab)
{
    CorpusConfig cc;
    cc.vocab = vocab;
    cc.totalTokens = 20000;
    cc.seed = seed;
    const SyntheticCorpus corpus(cc);
    const std::vector<int32_t> &text = corpus.train();
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<PoolEntry> pool;
    const auto cut = [&](int64_t len, int64_t max_new) {
        const auto start = static_cast<int64_t>(rng.uniformInt(
            static_cast<uint64_t>(text.size()) - static_cast<uint64_t>(len)));
        pool.push_back(PoolEntry{
            {text.begin() + start, text.begin() + start + len}, max_new});
    };
    for (int i = 0; i < kShortPrompts; ++i)
        cut(4 + (12 * i) / (kShortPrompts - 1),
            16 + (16 * ((5 * i) % kShortPrompts)) / (kShortPrompts - 1));
    for (int i = 0; i < kLongPrompts; ++i)
        cut(48 + (48 * i) / (kLongPrompts - 1),
            16 + (16 * ((3 * i) % kLongPrompts)) / (kLongPrompts - 1));
    return pool;
}

/** One request as the harness sees it. */
struct Request
{
    int entry = 0;
    int64_t maxNew = 0;
    int64_t submitNs = 0;
    int64_t lastTokenNs = 0;
    int64_t generated = 0;
};

/** Per-round observations kept for the metrics. */
struct Round
{
    double ms = 0.0;
    int64_t produced = 0;
    int64_t iteration = 0;
    bool traced = false;
    /** Analytic FLOPs of this round's decode tokens. */
    double decodeFlops = 0.0;
};

class ServeRun
{
  public:
    explicit ServeRun(const Options &options)
        : options_(options), model_(serveModel()),
          pool_(requestPool(options.seed, model_.vocab)),
          schedule_(0x51ed5eedULL)
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
    /** Build the engine and serve one warm wave (every pool entry
     *  once); seconds taken. */
    double setUp(Transport *transport)
    {
        engine_.reset();
        const int64_t t0 = obs::nowNs();
        serve::ServeConfig config;
        config.model = model_;
        config.pipelineStages = 2;
        config.maxSequences = 8;
        config.maxBatchTokens = 64;
        config.transport = transport;
        engine_ = std::make_unique<serve::ServeEngine>(config);
        for (const PoolEntry &e : pool_)
            engine_->submit(e.prompt, e.maxNew);
        engine_->drain();
        return obs::secondsBetween(t0, obs::nowNs());
    }

    /** Greedy reference tokens of every pool entry, computed once,
     *  outside the measured window. */
    void buildOracle()
    {
        oracle_.assign(pool_.size(), {});
        parallelFor(0, static_cast<int64_t>(pool_.size()), 1,
                    [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i)
                            oracle_[i] = serve::referenceGreedyDecode(
                                model_, pool_[i].prompt, pool_[i].maxNew);
                    });
    }

    void startLoop()
    {
        engine_->setFinishCallback(
            [this](const serve::FinishedRequest &done) { verify(done); });
        tokens0_ = engine_->tokensGenerated();
        for (int c = 0; c < kClients; ++c)
            submit();
    }

    void submit()
    {
        Request r;
        // 4 of the 16 pool prompts are long: a quarter of requests.
        r.entry = static_cast<int>(schedule_.uniformInt(pool_.size()));
        const PoolEntry &e = pool_[r.entry];
        r.maxNew = e.maxNew;
        obs::ScopedSpan span("bench", "submit");
        r.submitNs = obs::nowNs();
        const int64_t id = engine_->submit(e.prompt, e.maxNew);
        requests_[id] = r;
        queue_.push_back(id);
        ++result_.attempted;
    }

    void verify(const serve::FinishedRequest &done)
    {
        const auto it = requests_.find(done.id);
        if (it == requests_.end())
            return; // a warm-up request
        const Request &r = it->second;
        const std::vector<int32_t> &want = oracle_[r.entry];
        bool ok = static_cast<int64_t>(done.tokens.size()) - done.promptLen ==
                  r.maxNew;
        for (int64_t i = 0; ok && i < r.maxNew; ++i)
            ok = done.tokens[done.promptLen + i] == want[i];
        if (!ok)
            ++result_.failed;
        requests_.erase(it);
    }

    /**
     * One scheduler round, observed from outside. @p in_window
     * records latency samples; @p resubmit keeps the loop closed.
     */
    Round round(bool in_window, bool resubmit, bool traced)
    {
        const int64_t pending = engine_->pendingRequests();
        Round rd;
        rd.traced = traced;
        rd.iteration = engine_->iterations();
        const int64_t t0 = obs::nowNs();
        {
            obs::ScopedSpan span("bench", "step");
            rd.produced = engine_->step();
        }
        const int64_t t1 = obs::nowNs();
        rd.ms = 1e3 * obs::secondsBetween(t0, t1);
        const int64_t admitted = pending - engine_->pendingRequests();
        const double h = static_cast<double>(model_.hidden);
        const double l = static_cast<double>(model_.layers);
        const double tok_flops =
            2.0 * (12.0 * l * h * h + h * static_cast<double>(model_.vocab));

        int64_t expected = admitted;
        int finished = 0;
        for (size_t i = 0; i < decoding_.size();) {
            Request &r = requests_.at(decoding_[i]);
            const double ctx = static_cast<double>(
                pool_[r.entry].prompt.size() + static_cast<size_t>(r.generated));
            rd.decodeFlops += tok_flops + 4.0 * l * ctx * h;
            if (in_window)
                itlMs_.push_back(1e-6 * static_cast<double>(t1 - r.lastTokenNs));
            r.lastTokenNs = t1;
            ++expected;
            if (++r.generated == r.maxNew) {
                decoding_[i] = decoding_.back();
                decoding_.pop_back();
                ++finished;
            } else {
                ++i;
            }
        }
        for (int64_t k = 0; k < admitted && !queue_.empty(); ++k) {
            const int64_t id = queue_.front();
            queue_.pop_front();
            Request &r = requests_.at(id);
            if (in_window) {
                ttftMs_.push_back(1e-6 * static_cast<double>(t1 - r.submitNs));
                queueMs_.push_back(1e-6 * static_cast<double>(t0 - r.submitNs));
            }
            r.lastTokenNs = t1;
            r.generated = 1;
            if (r.generated == r.maxNew)
                ++finished;
            else
                decoding_.push_back(id);
        }
        if (rd.produced != expected) {
            result_.problem("round " + std::to_string(rd.iteration) +
                            " produced " + std::to_string(rd.produced) +
                            " tokens, the harness expected " +
                            std::to_string(expected));
        }
        countedTokens_ += expected;
        if (resubmit) {
            for (int c = 0; c < finished; ++c)
                submit();
        }
        return rd;
    }

    /** Stop submitting and serve what is in flight (untimed). */
    void drainAndReconcile()
    {
        while (!engine_->idle())
            round(false, false, false);
        if (countedTokens_ != engine_->tokensGenerated() - tokens0_) {
            result_.problem(
                "harness counted " + std::to_string(countedTokens_) +
                " tokens, tokensGenerated() reports " +
                std::to_string(engine_->tokensGenerated() - tokens0_));
        }
        result_.failed += static_cast<int64_t>(requests_.size());
    }

    void endToEnd()
    {
        std::vector<double> setups;
        for (int i = 0; i < kSetups; ++i)
            setups.push_back(setUp(nullptr));
        buildOracle();
        startLoop();
        std::vector<double> round_ms;
        int64_t produced = 0;
        const int64_t start = obs::nowNs();
        while (obs::secondsBetween(start, obs::nowNs()) < options_.seconds) {
            const Round rd = round(true, true, false);
            produced += rd.produced;
            round_ms.push_back(rd.ms);
        }
        const double window = obs::secondsBetween(start, obs::nowNs());
        drainAndReconcile();

        const auto n = static_cast<int64_t>(ttftMs_.size());
        const auto ni = static_cast<int64_t>(itlMs_.size());
        result_.add("setup_s", "s", percentile(setups, 50), kSetups);
        result_.add("tokens_per_s", "tokens/s",
                    static_cast<double>(produced) / window, produced);
        result_.add("latency_ms_p50", "ms", percentile(ttftMs_, 50), n);
        result_.add("latency_ms_p90", "ms", percentile(ttftMs_, 90), n);
        result_.add("peak_rss_mb", "MiB", peakRssMb());
        result_.add("itl_ms_p50", "ms", percentile(itlMs_, 50), ni);
        result_.add("itl_ms_p90", "ms", percentile(itlMs_, 90), ni);
        result_.add("round_ms_p50", "ms", percentile(round_ms, 50),
                    static_cast<int64_t>(round_ms.size()));
        result_.add("failed_share", "fraction",
                    perUnit(static_cast<double>(result_.failed),
                            result_.attempted),
                    result_.attempted);
    }

    void traced();

    Options options_;
    GptConfig model_;
    std::vector<PoolEntry> pool_;
    std::vector<std::vector<int32_t>> oracle_;
    /** Picks each request's pool entry; fixed, like the pool's
     *  shape, so the seed changes content and not load. */
    Rng schedule_;
    std::unique_ptr<serve::ServeEngine> engine_;
    std::map<int64_t, Request> requests_;
    /** Submitted, not yet admitted, in submission (FIFO) order. */
    std::deque<int64_t> queue_;
    /** Admitted and still owed tokens. */
    std::vector<int64_t> decoding_;
    int64_t tokens0_ = 0;
    int64_t countedTokens_ = 0;
    std::vector<double> ttftMs_, itlMs_, queueMs_;
    Result result_;
};

void
ServeRun::traced()
{
    InProcessTransport base;
    RecordingTransport recorder(base);
    setUp(&recorder);
    buildOracle();
    startLoop();
    const int64_t heap0 = mem::heapAllocs();
    const int64_t hits0 = mem::arenaHits();
    std::vector<Round> rounds;
    // The GEMM reference gets the last fifth of the window.
    const double loop_s = 0.8 * options_.seconds;
    const int64_t start = obs::nowNs();
    const TraceTally tally = alternateBlocks(
        kBlockRounds,
        [&] { return obs::secondsBetween(start, obs::nowNs()) < loop_s; },
        [&](bool traced) { rounds.push_back(round(true, true, traced)); });
    const auto n = static_cast<int64_t>(rounds.size());
    const double heap_per_round =
        static_cast<double>(mem::heapAllocs() - heap0) / n;
    const double hits_per_round =
        static_cast<double>(mem::arenaHits() - hits0) / n;
    const obs::CompressionHealth boundary = engine_->boundaryHealth();
    drainAndReconcile();

    std::vector<double> all_ms;
    // Time per token, traced over untraced blocks: rounds vary too
    // much with the load to compare their medians across blocks.
    double ms_per[2] = {0.0, 0.0}, tokens_per[2] = {0.0, 0.0};
    double decode_flops = 0.0, batch_sum = 0.0;
    int64_t traced_rounds = 0;
    CommTally comm;
    for (const Round &rd : rounds) {
        ms_per[rd.traced] += rd.ms;
        tokens_per[rd.traced] += static_cast<double>(rd.produced);
        all_ms.push_back(rd.ms);
        batch_sum += static_cast<double>(rd.produced);
        comm.add(recorder.trace(), rd.iteration);
        if (rd.traced) {
            ++traced_rounds;
            decode_flops += rd.decodeFlops;
        }
    }
    const SpanTotals prefill = spanTotals(tally.summary, "serve/serve.prefill");
    const SpanTotals decode = spanTotals(tally.summary, "serve/serve.decode");
    const double gemm =
        gemmGflops(8, model_.hidden, 4 * model_.hidden, 0.2 * options_.seconds);
    const double decode_gflops =
        perUnit(decode_flops, decode.totalNs); // FLOP/ns == GFLOP/s

    Result &r = result_;
    r.add("tensor.gemm_gflops", "GFLOP/s", gemm);
    r.add("tensor.heap_allocs_per_step", "count", heap_per_round, n);
    r.add("tensor.arena_hits_per_step", "count", hits_per_round, n);
    r.add("tensor.peak_mb", "MiB",
          static_cast<double>(mem::peakBytes()) / (1024.0 * 1024.0));
    r.add("nn.decode_gflops", "GFLOP/s", decode_gflops, decode.count);
    r.add("nn.decode_peak_share", "fraction", decode_gflops / gemm);
    r.add("compress.pp_wire_ratio", "ratio", boundary.wireRatio());
    addCommAndRuntime(r, tally, comm, n, traced_rounds);
    r.add("serve.step_ms_p50", "ms", percentile(all_ms, 50), n);
    r.add("serve.prefill_ms_per_round", "ms",
          perUnit(static_cast<double>(prefill.selfNs) / 1e6, traced_rounds),
          traced_rounds);
    r.add("serve.decode_ms_per_round", "ms",
          perUnit(static_cast<double>(decode.totalNs) / 1e6, traced_rounds),
          traced_rounds);
    r.add("serve.batch_mean", "seqs", batch_sum / n, n);
    r.add("serve.queue_wait_ms_p50", "ms", percentile(queueMs_, 50),
          static_cast<int64_t>(queueMs_.size()));
    r.add("serve.itl_ms_p50", "ms", percentile(itlMs_, 50),
          static_cast<int64_t>(itlMs_.size()));
    r.add("serve.itl_ms_p90", "ms", percentile(itlMs_, 90),
          static_cast<int64_t>(itlMs_.size()));
    r.add("obs.trace_overhead_ratio", "ratio",
          (ms_per[1] / tokens_per[1]) / (ms_per[0] / tokens_per[0]),
          traced_rounds);
    // The engine holds a pointer to the recorder, which dies here.
    engine_.reset();
}

} // namespace

Result
runServe(const Options &options)
{
    ServeRun run(options);
    return run.run();
}

} // namespace perfbench
