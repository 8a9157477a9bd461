/**
 * @file
 * Benchmark harness entry point. One process runs one workload in
 * one pass:
 *
 *   perfbench_harness --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> [--commit <id>]
 *
 * `--trace 0` is the end-to-end pass (observability off); `--trace 1`
 * the per-layer pass (spans, metrics, probes and the communication
 * trace on). The harness prints a human-readable report and, as its
 * last line, `PERFBENCH_RESULT {json}` with every metric, its unit
 * and sample count, the correctness tallies and the machine
 * fingerprint. perfbench/run.py builds the harness and turns that
 * line into the benchmark's result. The exit code is non-zero when
 * the options are bad or a traced reconciliation check failed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hh"
#include "runtime/runtime.hh"
#include "tensor/simd.hh"

using namespace perfbench;

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness "
                 "--workload train_cc_3d|train_pipe_exact|serve_mixed "
                 "--seed N --seconds S --trace 0|1 [--commit ID]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            options.trace = std::strtol(value.c_str(), &end, 10) != 0;
        } else if (arg == "--commit") {
            commit = value;
        } else {
            return usage(("unknown option " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            return usage(("bad value for " + arg).c_str());
    }
    if (!(options.seconds > 0.0) || options.seconds > 600.0)
        return usage("--seconds must be in (0, 600]");
    if (options.workload != "train_cc_3d" &&
        options.workload != "train_pipe_exact" &&
        options.workload != "serve_mixed")
        return usage("unknown workload");

    // Half the cores: at every core the run-to-run spread of the
    // same binary was several times wider than at half of them. The
    // pool reads its size once, at first use.
    const unsigned nproc = std::thread::hardware_concurrency();
    const unsigned threads = nproc > 1 ? nproc / 2 : 1;
    setenv("OPTIMUS_THREADS", std::to_string(threads).c_str(), 1);

    const Result result = options.workload == "serve_mixed"
                              ? runServe(options)
                              : runTrain(options);

    std::printf("\n%-34s %16s  %-9s %s\n", "metric", "value", "unit",
                "samples");
    for (const Metric &m : result.metrics) {
        std::printf("%-34s %16.6g  %-9s %lld\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<long long>(m.samples));
    }
    std::printf("attempted %lld  failed %lld  failed_share %.6g\n",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed),
                perUnit(static_cast<double>(result.failed),
                        result.attempted));
    for (const std::string &p : result.problems)
        std::printf("PROBLEM: %s\n", p.c_str());

    std::string json = "{\"workload\": " + jsonString(options.workload);
    json += ", \"seed\": " + std::to_string(options.seed);
    json += ", \"trace\": " + std::string(options.trace ? "1" : "0");
    json += ", \"correct\": ";
    json += result.problems.empty() && result.failed == 0 ? "true"
                                                          : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"problems\": [";
    for (size_t i = 0; i < result.problems.size(); ++i)
        json += (i ? ", " : "") + jsonString(result.problems[i]);
    json += "], \"fingerprint\": {";
    json += "\"cpu\": " + jsonString(cpuModel());
    json += ", \"nproc\": " + std::to_string(nproc);
    json += ", \"pool_threads\": " +
            std::to_string(optimus::runtimeThreads());
    json += ", \"simd_tier\": " +
            jsonString(optimus::simd::tierName(optimus::simd::tier()));
    json += ", \"compiler\": " + jsonString(PB_COMPILER);
    json += ", \"flags\": " + jsonString(PB_FLAGS);
    json += ", \"build_type\": " + jsonString(PB_BUILD_TYPE);
    json += ", \"commit\": " + jsonString(commit);
    json += "}, \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        json += (i ? ", " : "") + jsonString(m.name) +
                ": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": " + jsonString(m.unit) +
                ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    json += "}}";
    std::printf("PERFBENCH_RESULT %s\n", json.c_str());
    std::fflush(stdout);
    // A traced run whose reconciliation failed must not pass.
    return options.trace && !result.problems.empty() ? 1 : 0;
}
