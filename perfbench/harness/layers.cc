/**
 * @file
 * Per-layer timings taken from outside: the public nn layer classes
 * and the tensor GEMM, called directly at a workload's shapes on the
 * current pool, each timed per call and reported as a median.
 */

#include <vector>

#include "harness.hh"
#include "nn/activation.hh"
#include "nn/attention.hh"
#include "nn/embedding.hh"
#include "nn/layernorm.hh"
#include "nn/linear.hh"
#include "nn/loss.hh"
#include "obs/clock.hh"
#include "obs/trace.hh"
#include "tensor/arena.hh"
#include "tensor/matmul.hh"
#include "util/random.hh"

namespace perfbench
{

namespace
{

/** Median milliseconds of @p fn after one warm call (at least five
 *  samples, then as many as fit in @p budget_s). */
template <typename Fn>
double
medianMs(const Fn &fn, double budget_s)
{
    fn();
    std::vector<double> samples;
    const int64_t start = optimus::obs::nowNs();
    while (samples.size() < 5 ||
           optimus::obs::secondsBetween(start, optimus::obs::nowNs()) <
               budget_s) {
        const int64_t t0 = optimus::obs::nowNs();
        fn();
        samples.push_back(1e3 * optimus::obs::secondsBetween(
                                    t0, optimus::obs::nowNs()));
    }
    return percentile(samples, 50);
}

} // namespace

double
gemmGflops(int64_t m, int64_t k, int64_t n, double budget_s)
{
    optimus::Rng rng(7);
    const optimus::Tensor a = optimus::Tensor::randn({m, k}, rng);
    const optimus::Tensor b = optimus::Tensor::randn({k, n}, rng);
    optimus::Tensor c({m, n});
    const double ms = medianMs(
        [&] {
            optimus::obs::ScopedSpan span("bench", "gemm");
            optimus::gemm(c.data(), a.data(), b.data(), m, k, n, false);
        },
        budget_s);
    return 2.0 * static_cast<double>(m * k * n) / (ms * 1e6);
}

LayerTimes
timeTrainLayers(int64_t vocab, int64_t hidden, int64_t heads, int64_t seq,
                int64_t batch, double budget_s)
{
    using namespace optimus;
    Workspace arena("perfbench.layers");
    WorkspaceScope scope(&arena);
    Rng rng(11);
    const int64_t rows = batch * seq;
    const Tensor x = Tensor::randn({rows, hidden}, rng);
    const Tensor dy = Tensor::randn({rows, hidden}, rng);
    std::vector<int32_t> tokens(static_cast<size_t>(rows));
    for (auto &t : tokens)
        t = static_cast<int32_t>(rng.uniformInt(
            static_cast<uint64_t>(vocab)));

    MultiHeadAttention attention("attn", hidden, heads, seq, rng);
    Linear fc1("fc1", hidden, 4 * hidden, rng);
    Gelu gelu;
    Linear fc2("fc2", 4 * hidden, hidden, rng);
    LayerNorm norm("ln", hidden);
    EmbeddingLayer embedding("emb", vocab, hidden, seq, rng);
    OutputHead head(embedding.tokenTable());
    SoftmaxCrossEntropy loss;
    const double share = budget_s / 5.0;

    LayerTimes t;
    t.attentionMs = medianMs(
        [&] {
            obs::ScopedSpan span("bench", "nn.attention");
            attention.forward(x);
            attention.backward(dy);
        },
        share);
    t.mlpMs = medianMs(
        [&] {
            obs::ScopedSpan span("bench", "nn.mlp");
            fc2.forward(gelu.forward(fc1.forward(x)));
            fc1.backward(gelu.backward(fc2.backward(dy)));
        },
        share);
    t.layernormMs = medianMs(
        [&] {
            obs::ScopedSpan span("bench", "nn.layernorm");
            norm.forward(x);
            norm.backward(dy);
        },
        share);
    t.embeddingMs = medianMs(
        [&] {
            obs::ScopedSpan span("bench", "nn.embedding");
            embedding.forward(tokens, batch, seq);
            embedding.backward(dy);
        },
        share);
    t.headLossMs = medianMs(
        [&] {
            obs::ScopedSpan span("bench", "nn.head_loss");
            loss.forward(head.forward(x), tokens);
            head.backward(loss.backward());
        },
        share);
    return t;
}

} // namespace perfbench
