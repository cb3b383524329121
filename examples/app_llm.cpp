/**
 * @file
 * LLM decode-serving demo: continuous batching over a paged KV cache
 * on one PIM-HBM stack.
 *
 *   $ ./app_llm                              # continuous batching, load 0.8
 *   $ ./app_llm --policy admit-once          # padded static batches
 *   $ ./app_llm --load 1.0 --deadline-ms 600 # saturate with a tight SLO
 *   $ ./app_llm --burst 4                    # 4x arrival burst mid-run
 *   $ ./app_llm --trace-out=trace.json       # pid-6 iteration/KV timeline
 *   $ ./app_llm --stats-json=stats.json      # stats registry + seed dump
 *
 * Everything is deterministic: the same flags replay identically.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/logging.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "llm/trace_gen.h"
#include "serve/load_gen.h"
#include "serve/service_model.h"

using namespace pimsim;
using namespace pimsim::llm;

namespace {

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [--policy continuous|admit-once] [--load F]\n"
                 "          [--deadline-ms N] [--requests N] [--burst F]\n"
                 "          [--seed N] [--tail-sample F] [--slo-target F]\n"
                 "          [--stats-json=PATH] [--trace-out=PATH]\n"
                 "          [--timeseries-out=PATH]\n"
                 "  --policy       batch scheduling policy (default "
                 "continuous)\n"
                 "  --load         offered load relative to request "
                 "capacity, > 0 (default 0.8)\n"
                 "  --deadline-ms  per-request completion SLO, 0 disables "
                 "(default 0 = auto)\n"
                 "  --requests     open-loop arrivals to draw (default "
                 "2000)\n"
                 "  --burst        arrival-rate multiplier for the middle "
                 "20%% of the run, >= 1 (default 1)\n"
                 "  --seed         arrival/length seed (default 1)\n"
                 "  --tail-sample  head-sample rate of the tail-based "
                 "request tracer,\n"
                 "                 in [0, 1] (default 0.01; erred / "
                 "deadline-missed /\n"
                 "                 preempted requests are always kept)\n"
                 "  --slo-target   SLO monitor good-fraction target, in "
                 "(0, 1) (default 0.99)\n"
                 "  --stats-json=PATH  dump the stats registry (with the "
                 "seed, SLO and\n"
                 "                     tail-sampling summaries) as JSON\n"
                 "  --trace-out=PATH   Chrome-trace timeline: decode "
                 "iterations, KV\n"
                 "                     occupancy, sampled per-request span "
                 "trees (pid-6)\n"
                 "                     and SLO alert instants (pid-7)\n"
                 "  --timeseries-out=PATH  windowed counter rates and "
                 "latency percentiles\n",
                 prog);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);

    BatchPolicy policy = BatchPolicy::Continuous;
    double load = 0.8;
    double deadline_ms = 0.0; // 0 = auto (5x an unloaded p95 request)
    unsigned requests = 2000;
    double burst = 1.0;
    std::uint64_t seed = 1;
    double tail_sample = 0.01;
    double slo_target = 0.99;
    std::string stats_json;
    std::string trace_out;
    std::string timeseries_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--stats-json=", 0) == 0) {
            stats_json = arg.substr(13);
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = arg.substr(12);
        } else if (arg.rfind("--timeseries-out=", 0) == 0) {
            timeseries_out = arg.substr(17);
        } else if ((arg == "--tail-sample" && i + 1 < argc) ||
                   arg.rfind("--tail-sample=", 0) == 0) {
            const char *text =
                arg.size() > 13 && arg[13] == '=' ? arg.c_str() + 14
                                                  : argv[++i];
            char *end = nullptr;
            tail_sample = std::strtod(text, &end);
            if (end == text || *end != '\0' || tail_sample < 0.0 ||
                tail_sample > 1.0) {
                std::fprintf(stderr, "%s: bad --tail-sample '%s': expected "
                             "a number in [0, 1]\n", argv[0], text);
                usage(argv[0]);
                return 2;
            }
        } else if ((arg == "--slo-target" && i + 1 < argc) ||
                   arg.rfind("--slo-target=", 0) == 0) {
            const char *text =
                arg.size() > 12 && arg[12] == '=' ? arg.c_str() + 13
                                                  : argv[++i];
            char *end = nullptr;
            slo_target = std::strtod(text, &end);
            if (end == text || *end != '\0' || !(slo_target > 0.0) ||
                !(slo_target < 1.0)) {
                std::fprintf(stderr, "%s: bad --slo-target '%s': expected "
                             "a number in (0, 1)\n", argv[0], text);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--policy" && i + 1 < argc) {
            const std::string p = argv[++i];
            if (p == "continuous") {
                policy = BatchPolicy::Continuous;
            } else if (p == "admit-once") {
                policy = BatchPolicy::AdmitOnce;
            } else {
                std::fprintf(stderr, "%s: unknown policy '%s'\n", argv[0],
                             p.c_str());
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--load" && i + 1 < argc) {
            char *end = nullptr;
            load = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || !(load > 0.0)) {
                std::fprintf(stderr, "%s: bad --load '%s': expected a "
                             "positive number\n", argv[0], argv[i]);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--deadline-ms" && i + 1 < argc) {
            char *end = nullptr;
            deadline_ms = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || !(deadline_ms >= 0.0)) {
                std::fprintf(stderr, "%s: bad --deadline-ms '%s': expected "
                             "a non-negative number\n", argv[0], argv[i]);
                usage(argv[0]);
                return 2;
            }
        } else if (arg == "--requests" && i + 1 < argc) {
            char *end = nullptr;
            const unsigned long parsed = std::strtoul(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || argv[i][0] == '-' ||
                parsed < 1 || parsed > 1'000'000) {
                std::fprintf(stderr, "%s: bad --requests '%s': expected an "
                             "integer in [1, 1000000]\n", argv[0], argv[i]);
                usage(argv[0]);
                return 2;
            }
            requests = static_cast<unsigned>(parsed);
        } else if (arg == "--burst" && i + 1 < argc) {
            char *end = nullptr;
            burst = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || !(burst >= 1.0)) {
                std::fprintf(stderr, "%s: bad --burst '%s': expected a "
                             "number >= 1\n", argv[0], argv[i]);
                usage(argv[0]);
                return 2;
            }
        } else if ((arg == "--seed" && i + 1 < argc) ||
                   arg.rfind("--seed=", 0) == 0) {
            const char *text =
                arg[6] == '=' ? arg.c_str() + 7 : argv[++i];
            char *end = nullptr;
            const unsigned long long parsed =
                std::strtoull(text, &end, 10);
            if (end == text || *end != '\0' || text[0] == '-') {
                std::fprintf(stderr, "%s: bad --seed '%s': expected a "
                             "non-negative integer\n", argv[0], text);
                usage(argv[0]);
                return 2;
            }
            seed = parsed;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0],
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    LlmEngineConfig config;
    config.system = SystemConfig::pimHbmSystem();
    config.system.numStacks = 1;
    config.decoder = DecoderSpec::tiny();
    config.batcher.policy = policy;
    config.batcher.maxBatch = 8;
    config.timingCache = std::make_shared<serve::ServiceTimeCache>();

    // Decode-heavy serving mix: short prompts, long generations.
    LlmTrafficSpec traffic;
    traffic.tenant = 0;
    traffic.prompt = serve::LengthConfig{64.0, 0.6, 8, 256};
    traffic.output = serve::LengthConfig{192.0, 0.6, 16, 640};
    const serve::LengthSampler prompt_sampler(traffic.prompt);
    const serve::LengthSampler out_sampler(traffic.output);

    // Calibrate the device time one mean-length request demands end to
    // end (prefill is the expensive part a naive token rate hides), so
    // --load is expressed relative to request capacity.
    std::printf("calibrating request demand...\n");
    DecodeCost cost(config.system, config.decoder, config.ctxGranule,
                    config.prefillGranule, config.timingCache);
    const double mean_prompt = prompt_sampler.analyticMean();
    const double mean_out = out_sampler.analyticMean();
    const unsigned mid_ctx =
        static_cast<unsigned>(mean_prompt + 0.5 * mean_out);
    const double tok_ns = cost.tokenNs(mid_ctx, config.batcher.maxBatch);
    const double demand_ns =
        cost.prefillNs(static_cast<unsigned>(mean_prompt)) +
        mean_out * tok_ns;
    const double capacity_rps = 1e9 / demand_ns;

    if (deadline_ms <= 0.0) {
        const double p95_prompt = prompt_sampler.analyticQuantile(0.95);
        const double p95_out = out_sampler.analyticQuantile(0.95);
        const double tok1_ns =
            cost.tokenNs(static_cast<unsigned>(p95_prompt + p95_out), 1);
        deadline_ms =
            5.0 *
            (cost.prefillNs(static_cast<unsigned>(p95_prompt)) +
             p95_out * tok1_ns) /
            1e6;
    }
    config.tenants = {LlmTenantSpec{"prod", deadline_ms * 1e6, 0}};

    traffic.ratePerSec = load * capacity_rps;
    const double horizon_ns =
        static_cast<double>(requests) * 1e9 / traffic.ratePerSec;
    serve::BurstSpec burst_window;
    if (burst > 1.0) {
        burst_window.startNs = 0.4 * horizon_ns;
        burst_window.endNs = 0.6 * horizon_ns;
        burst_window.factor = burst;
    }
    const auto arrivals =
        drawLlmTrace({traffic}, horizon_ns, seed, burst_window);

    LlmEngine engine(config);
    TraceSession trace;
    std::unique_ptr<RequestTracer> tracer;
    if (!trace_out.empty()) {
        engine.setTrace(&trace);
        RequestTracerConfig rc;
        rc.headSampleRate = tail_sample;
        rc.seed = seed;
        tracer = std::make_unique<RequestTracer>(rc);
        engine.setRequestTracer(tracer.get());
    }

    // SLO monitor + timeseries share one window grid: 1% of the run.
    const double window_ns = horizon_ns / 100.0;
    SloMonitorConfig slo_config;
    slo_config.target = slo_target;
    slo_config.windowNs = window_ns;
    SloMonitor slo(slo_config);
    MetricsTimeseries timeseries(window_ns);
    if (!timeseries_out.empty()) {
        StatsRegistry &registry = engine.statsRegistry();
        timeseries.trackCounter("completed", registry.group("llm"),
                                "completed");
        timeseries.trackCounter("iterations", registry.group("llm"),
                                "iterations");
        timeseries.trackCounter("kv_blocks_allocated",
                                registry.group("llm.kv"),
                                "blocksAllocated");
        timeseries.trackHistogram("ttft_ns", &engine.ttftHistogram(0));
        timeseries.trackHistogram("e2e_ns", &engine.e2eHistogram(0));
    }

    std::printf("decoder %s on %u channels, policy %s, KV block %u "
                "tokens\n",
                config.decoder.name.c_str(), config.system.numChannels(),
                batchPolicyName(policy), engine.kv().blockTokens());
    std::printf("request demand %.2f ms, capacity %.1f req/s; offered "
                "%.2fx (%.1f req/s), deadline %.1f ms%s\n\n",
                demand_ns / 1e6, capacity_rps, load, traffic.ratePerSec,
                deadline_ms,
                burst > 1.0 ? ", burst window armed" : "");

    // Open loop with window marks: the llm/kv counter groups refresh
    // lazily (report() updates them), so poke them at every boundary
    // for exact per-window attribution.
    double next_mark = window_ns;
    const auto close_windows = [&](double upto) {
        while (next_mark <= upto) {
            engine.advanceTo(next_mark);
            slo.feed(engine.takeSloObservations());
            if (!timeseries_out.empty()) {
                (void)engine.report();
                timeseries.advanceTo(next_mark);
            }
            next_mark += window_ns;
        }
    };
    for (const LlmArrival &a : arrivals) {
        close_windows(a.ns);
        engine.submit(a.tenant, a.ns, a.promptTokens, a.outputTokens);
    }
    close_windows(horizon_ns);
    engine.drain();
    slo.feed(engine.takeSloObservations());
    slo.finish(engine.nowNs());
    if (!timeseries_out.empty()) {
        (void)engine.report();
        timeseries.finish(engine.nowNs());
    }

    const LlmReport r = engine.report();
    r.reconcile();

    if (tracer != nullptr) {
        tracer->flush(trace);
        engine.statsRegistry().retainExemplars(tracer->keptTraceIds());
        trace.registerStats(engine.statsRegistry());
        slo.emitTrace(trace);
    }

    const LlmTenantReport &t = r.total;
    std::printf("completed %llu / %llu (rejected %llu, shed %llu, timed "
                "out %llu)\n",
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.rejected),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(t.timedOut));
    std::printf("goodput %.0f tok/s (%llu SLO violations), %llu "
                "iterations, mean batch %.2f, %llu preemptions\n",
                t.goodputTokensPerSec,
                static_cast<unsigned long long>(t.sloViolations),
                static_cast<unsigned long long>(r.iterations),
                r.meanBatch,
                static_cast<unsigned long long>(t.preemptions));
    std::printf("KV: %llu blocks allocated, peak resident %llu, %llu "
                "alloc failures\n",
                static_cast<unsigned long long>(r.kvBlocksAllocated),
                static_cast<unsigned long long>(r.kvPeakResidentBlocks),
                static_cast<unsigned long long>(r.kvAllocFailures));
    std::printf("ttft: p50 %.1f ms, p99 %.1f ms\n", t.ttft.p50Ns / 1e6,
                t.ttft.p99Ns / 1e6);
    std::printf("normalized latency (e2e/token): p50 %.2f ms, p99 %.2f "
                "ms\n",
                t.perToken.p50Ns / 1e6, t.perToken.p99Ns / 1e6);
    std::printf("e2e: p50 %.1f ms, p99 %.1f ms, max %.1f ms\n",
                t.e2e.p50Ns / 1e6, t.e2e.p99Ns / 1e6, t.e2e.maxNs / 1e6);

    std::size_t fired = 0;
    for (const auto &tr : slo.transitions())
        fired += tr.firing ? 1 : 0;
    std::printf("slo(%.3f): %llu good / %llu bad over %zu windows, "
                "%zu alert firings\n",
                slo_target,
                static_cast<unsigned long long>(slo.totalGood()),
                static_cast<unsigned long long>(slo.totalBad()),
                slo.numWindows(), fired);
    if (tracer != nullptr) {
        std::printf("tail sampling: kept %zu / %llu traces (%llu "
                    "must-keep, %llu head, %llu slow), %llu events "
                    "flushed\n",
                    tracer->keptTraceIds().size(),
                    static_cast<unsigned long long>(tracer->tracesEnded()),
                    static_cast<unsigned long long>(tracer->mustKeepCount()),
                    static_cast<unsigned long long>(
                        tracer->headSampledCount()),
                    static_cast<unsigned long long>(tracer->slowKeptCount()),
                    static_cast<unsigned long long>(
                        tracer->eventsFlushed()));
    }

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "%s: cannot open '%s'\n", argv[0],
                         stats_json.c_str());
            return 1;
        }
        // Wrap the registry dump so the seed rides along with the stats
        // (replay provenance), plus the SLO and tail-sampling verdicts.
        os << "{\n  \"seed\": " << seed << ",\n  \"slo\": ";
        {
            JsonWriter w(os);
            slo.writeJson(w);
        }
        if (tracer != nullptr) {
            os << ",\n  \"tail\": ";
            JsonWriter w(os);
            w.beginObject();
            w.field("head_sample_rate", tracer->config().headSampleRate);
            w.field("traces_started", tracer->tracesStarted());
            w.field("traces_ended", tracer->tracesEnded());
            w.field("traces_kept", tracer->keptTraceIds().size());
            w.field("must_keep", tracer->mustKeepCount());
            w.field("head_sampled", tracer->headSampledCount());
            w.field("slow_kept", tracer->slowKeptCount());
            w.field("events_flushed", tracer->eventsFlushed());
            w.field("events_truncated", tracer->eventsTruncated());
            w.endObject();
        }
        os << ",\n  \"stats\": ";
        engine.writeStats(os);
        os << "\n}\n";
    }
    if (!timeseries_out.empty() && !timeseries.writeFile(timeseries_out))
        return 1;
    if (!trace_out.empty() && !trace.writeFile(trace_out))
        return 1;
    return 0;
}
