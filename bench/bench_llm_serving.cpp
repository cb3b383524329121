/**
 * @file
 * LLM decode-serving benchmark: continuous vs admit-once batching.
 *
 * One PIM-HBM stack (16 pseudo channels) serves a decoder-only
 * transformer (DecoderSpec::tiny) under production-shaped open-loop
 * traffic: lognormal prompt/output lengths, Poisson arrivals. The sweep
 * crosses batch policy {admit-once, continuous} x offered load {0.6,
 * 1.0, 1.4} x output-length profile {short, long}; loads are relative
 * to the calibrated full-batch decode token capacity, so "1.0" means
 * the offered token demand equals what the device can decode with a
 * full batch.
 *
 * Reported per cell: goodput (tokens/s of deadline-met completions),
 * p99 normalized latency (e2e per output token), TTFT, mean decode
 * batch, preemption/KV counters. In-binary acceptance requires
 * continuous batching to beat admit-once on BOTH goodput and p99
 * normalized latency in every cell (strictly at the highest load), the
 * terminal-state and KV-block accounting to reconcile in every cell,
 * and a same-seed replay to be bit-identical. Results go to
 * BENCH_llm.json (validated with validateJson before writing).
 *
 * Flags (stripped before google/benchmark parsing):
 *   --json-out=FILE   result file (default BENCH_llm.json; "" disables)
 *   --trace-out=FILE  write a Chrome trace of one continuous-batching
 *                     run (pid-6 "llm" track; default off)
 *   --smoke           shrink the sweep for CI sanitizer runs
 *   --seed=N          override the campaign seed (recorded in the JSON)
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/trace.h"
#include "llm/trace_gen.h"
#include "serve/load_gen.h"

using namespace pimsim;
using namespace pimsim::bench;
using namespace pimsim::llm;

namespace {

std::uint64_t g_seed = 0x11a5eed;
bool g_smoke = false;

constexpr unsigned kMaxBatch = 8;

/** One sweep cell's outcome. */
struct Cell
{
    BatchPolicy policy = BatchPolicy::Continuous;
    double load = 0.0;
    std::string profile;
    double offeredRps = 0.0;
    double capacityRps = 0.0; ///< calibrated request capacity
    double deadlineNs = 0.0;
    LlmReport report;
};

/** Outcome of the tail-based-sampling experiment (one overload run). */
struct TailResult
{
    std::uint64_t requests = 0;
    std::uint64_t tracesEnded = 0;
    std::uint64_t kept = 0;
    std::uint64_t mustKeep = 0;
    std::uint64_t headSampled = 0;
    std::uint64_t slowKept = 0;
    std::uint64_t eventsFlushed = 0;
    std::uint64_t eventsTruncated = 0;
    std::uint64_t eventsRecorded = 0;
    std::uint64_t eventsDropped = 0;
    std::uint64_t mustKeepFloor = 0; ///< bad terminals from the report
    std::uint64_t exemplars = 0;
    std::uint64_t exemplarMisses = 0; ///< exemplar ids not in the kept set
    std::vector<std::uint64_t> keptIds; ///< sorted, for the replay diff
};

std::vector<Cell> g_cells;
double g_perTokenNs = 0.0;  ///< calibrated full-batch time per token
double g_capacityTps = 0.0; ///< calibrated decode tokens per second
bool g_replayIdentical = false;
TailResult g_tail;
bool g_tailReplayIdentical = false;
std::unique_ptr<SloMonitor> g_tailSlo;
RunSelfMetrics g_self;
std::vector<std::string> g_failures;
std::string g_traceOut;

void
check(bool ok, const std::string &what)
{
    if (!ok)
        g_failures.push_back(what);
}

SystemConfig
benchSystem()
{
    SystemConfig sys = SystemConfig::pimHbmSystem();
    sys.numStacks = 1; // one stack: 16 pseudo channels
    return sys;
}

/**
 * Decode-heavy serving mix: short prompts, long generations. This is
 * the regime the subsystem targets — decode iterations dominate device
 * time, so the comparison isolates the batching policy (padding waste,
 * wave-boundary queueing) rather than prefill handling, which is
 * policy-independent here (a joiner's prefill runs inside an iteration
 * under either policy).
 */
serve::LengthConfig
promptProfile()
{
    return serve::LengthConfig{64.0, 0.6, 8, 256};
}

serve::LengthConfig
outputProfile(bool long_outputs)
{
    if (long_outputs)
        return serve::LengthConfig{384.0, 0.6, 32, 1024};
    return serve::LengthConfig{192.0, 0.6, 16, 640};
}

LlmEngineConfig
cellConfig(BatchPolicy policy, double deadline_ns,
           const std::shared_ptr<serve::ServiceTimeCache> &cache)
{
    LlmEngineConfig cfg;
    cfg.system = benchSystem();
    cfg.decoder = DecoderSpec::tiny();
    cfg.tenants = {LlmTenantSpec{"prod", deadline_ns, 0}};
    cfg.batcher.policy = policy;
    cfg.batcher.maxBatch = kMaxBatch;
    cfg.batcher.maxQueue = 512;
    cfg.timingCache = cache;
    return cfg;
}

/** The engine's prefill pricing, mirrored for calibration (same
 *  memoised model, same default granules). */
double
prefillNs(serve::ShardServiceModel &model, const DecoderSpec &spec,
          unsigned ctx)
{
    const unsigned bucket = ctxBucket(ctx, 64);
    return model.serviceNs(decodeFfnApp(spec), bucket) +
           model.serviceNs(decodeAttnApp(spec, ctxBucket(ctx, 128)),
                           std::max(1u, bucket / 2));
}

/** Device time one request demands end to end: staged prefill plus
 *  decode at full-batch FFN amortisation and mid-stream context. */
double
requestDemandNs(serve::ShardServiceModel &model, const DecoderSpec &spec,
                double prompt_tokens, double output_tokens)
{
    const unsigned p = static_cast<unsigned>(prompt_tokens);
    const unsigned mid_ctx = static_cast<unsigned>(
        prompt_tokens + 0.5 * output_tokens);
    const double ffn_tok =
        model.serviceNs(decodeFfnApp(spec), kMaxBatch) / kMaxBatch;
    const double attn_tok =
        model.serviceNs(decodeAttnApp(spec, ctxBucket(mid_ctx, 128)), 1);
    return prefillNs(model, spec, p) +
           output_tokens * (ffn_tok + attn_tok);
}

/**
 * Calibrate the decode token capacity at a typical context length and
 * a full batch, through the same memoised service model every engine
 * in the sweep shares.
 */
void
calibrate(const std::shared_ptr<serve::ServiceTimeCache> &cache)
{
    const DecoderSpec spec = DecoderSpec::tiny();
    serve::ShardServiceModel model(benchSystem(),
                                   benchSystem().numChannels(), cache);
    const AppSpec ffn = decodeFfnApp(spec);
    const unsigned typ_ctx = static_cast<unsigned>(
        promptProfile().medianTokens +
        outputProfile(false).medianTokens / 2);
    const AppSpec attn = decodeAttnApp(spec, ctxBucket(typ_ctx, 128));
    const double iter_ns = model.serviceNs(ffn, kMaxBatch) +
                           kMaxBatch * model.serviceNs(attn, 1);
    g_perTokenNs = iter_ns / kMaxBatch;
    g_capacityTps = 1e9 / g_perTokenNs;
}

Cell
runCell(BatchPolicy policy, double load, bool long_outputs,
        const std::shared_ptr<serve::ServiceTimeCache> &cache,
        TraceSession *trace)
{
    Cell cell;
    cell.policy = policy;
    cell.load = load;
    cell.profile = long_outputs ? "long" : "short";

    LlmTrafficSpec traffic;
    traffic.tenant = 0;
    traffic.prompt = promptProfile();
    traffic.output = outputProfile(long_outputs);

    // Offered load is relative to the calibrated *request* capacity:
    // the device time a mean-length request demands end to end
    // (prefill included — the expensive part the naive token-capacity
    // number hides).
    const DecoderSpec spec = DecoderSpec::tiny();
    serve::ShardServiceModel model(benchSystem(),
                                   benchSystem().numChannels(), cache);
    const serve::LengthSampler prompt_sampler(traffic.prompt);
    const serve::LengthSampler out_sampler(traffic.output);
    const double demand_ns =
        requestDemandNs(model, spec, prompt_sampler.analyticMean(),
                        out_sampler.analyticMean());
    cell.capacityRps = 1e9 / demand_ns;
    cell.offeredRps = load * cell.capacityRps;
    traffic.ratePerSec = cell.offeredRps;

    // Roomy per-request SLO: 5x an unloaded p95-length request on the
    // batch-1 decode path (no FFN amortisation available).
    const double p95_prompt = prompt_sampler.analyticQuantile(0.95);
    const double p95_out = out_sampler.analyticQuantile(0.95);
    const double tok1_ns =
        model.serviceNs(decodeFfnApp(spec), 1) +
        model.serviceNs(
            decodeAttnApp(spec, ctxBucket(static_cast<unsigned>(
                                              p95_prompt + p95_out),
                                          128)),
            1);
    cell.deadlineNs =
        5.0 * (prefillNs(model, spec,
                         static_cast<unsigned>(p95_prompt)) +
               p95_out * tok1_ns);

    const std::uint64_t n = g_smoke ? 250 : 2'500;
    const double horizon_ns =
        static_cast<double>(n) * 1e9 / cell.offeredRps;
    const auto arrivals =
        drawLlmTrace({traffic}, horizon_ns, g_seed ^ 0x7a11);

    LlmEngine engine(cellConfig(policy, cell.deadlineNs, cache));
    if (trace != nullptr)
        engine.setTrace(trace);
    cell.report = runOpenLoop(engine, arrivals);
    cell.report.reconcile();
    return cell;
}

/**
 * Tail-based-sampling experiment: one continuous-batching run pushed
 * into overload (every deadline miss / shed / preemption is a must-keep
 * trace), short outputs so the event volume is bounded by policy, not
 * by luck. Fills `out` with the tracer's accounting and the sorted
 * kept-trace-id set; the caller runs it twice to prove the kept set is
 * seed-deterministic.
 */
std::unique_ptr<SloMonitor>
runTail(const std::shared_ptr<serve::ServiceTimeCache> &cache,
        TailResult *out)
{
    LlmTrafficSpec traffic;
    traffic.tenant = 0;
    traffic.prompt = promptProfile();
    // ~16-token outputs: even with ~half the 100k requests kept as
    // must-keep under overload, the flushed volume stays well inside
    // the session's 4M-event budget (~40 events per kept trace).
    traffic.output = serve::LengthConfig{16.0, 0.6, 4, 64};

    const DecoderSpec spec = DecoderSpec::tiny();
    serve::ShardServiceModel model(benchSystem(),
                                   benchSystem().numChannels(), cache);
    const serve::LengthSampler prompt_sampler(traffic.prompt);
    const serve::LengthSampler out_sampler(traffic.output);
    const double demand_ns =
        requestDemandNs(model, spec, prompt_sampler.analyticMean(),
                        out_sampler.analyticMean());
    const double capacity_rps = 1e9 / demand_ns;
    traffic.ratePerSec = 1.1 * capacity_rps; // sustained mild overload

    const double p95_prompt = prompt_sampler.analyticQuantile(0.95);
    const double p95_out = out_sampler.analyticQuantile(0.95);
    const double tok1_ns =
        model.serviceNs(decodeFfnApp(spec), 1) +
        model.serviceNs(
            decodeAttnApp(spec, ctxBucket(static_cast<unsigned>(
                                              p95_prompt + p95_out),
                                          128)),
            1);
    const double deadline_ns =
        5.0 * (prefillNs(model, spec,
                         static_cast<unsigned>(p95_prompt)) +
               p95_out * tok1_ns);

    const std::uint64_t n = g_smoke ? 5'000 : 100'000;
    const double horizon_ns =
        static_cast<double>(n) * 1e9 / traffic.ratePerSec;
    const auto arrivals =
        drawLlmTrace({traffic}, horizon_ns, g_seed ^ 0x7a11e);

    SloMonitorConfig slo_config;
    slo_config.windowNs = horizon_ns / 100.0;
    auto slo = std::make_unique<SloMonitor>(slo_config);

    LlmEngine engine(cellConfig(BatchPolicy::Continuous, deadline_ns,
                                cache));
    TraceSession trace;
    engine.setTrace(&trace);
    RequestTracerConfig rc;
    rc.seed = g_seed;
    rc.headSampleRate = 0.01;
    RequestTracer tracer(rc);
    engine.setRequestTracer(&tracer);

    const LlmReport report = runOpenLoop(engine, arrivals);
    report.reconcile();
    g_self.simulatedNs += engine.nowNs();
    slo->feed(engine.takeSloObservations());
    slo->finish(engine.nowNs());
    tracer.flush(trace);

    out->requests = report.total.submitted;
    out->tracesEnded = tracer.tracesEnded();
    out->kept = tracer.keptTraceIds().size();
    out->mustKeep = tracer.mustKeepCount();
    out->headSampled = tracer.headSampledCount();
    out->slowKept = tracer.slowKeptCount();
    out->eventsFlushed = tracer.eventsFlushed();
    out->eventsTruncated = tracer.eventsTruncated();
    out->eventsRecorded = trace.recordedEvents();
    out->eventsDropped = trace.droppedEvents();
    // Every request with a bad terminal is must-keep by definition;
    // the report gives an external floor the tracer cannot undercut.
    const LlmTenantReport &t = report.total;
    out->mustKeepFloor =
        t.rejected + t.shed + t.timedOut + t.sloViolations;

    // Exemplars pruned to the kept set must all resolve.
    engine.statsRegistry().retainExemplars(tracer.keptTraceIds());
    const auto &kept_set = tracer.keptTraceIds();
    for (const Histogram *h :
         {&engine.ttftHistogram(0), &engine.e2eHistogram(0)}) {
        for (const auto &[bucket, slot] : h->exemplars()) {
            (void)bucket;
            for (const auto &ex : slot) {
                ++out->exemplars;
                if (kept_set.find(ex.traceId) == kept_set.end())
                    ++out->exemplarMisses;
            }
        }
    }

    out->keptIds.assign(kept_set.begin(), kept_set.end());
    std::sort(out->keptIds.begin(), out->keptIds.end());
    return slo;
}

std::string
cellJson(const Cell &cell)
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    w.field("policy", batchPolicyName(cell.policy));
    w.field("load", cell.load);
    w.field("profile", cell.profile);
    w.field("offered_rps", cell.offeredRps);
    w.field("capacity_rps", cell.capacityRps);
    w.field("deadline_ns", cell.deadlineNs);
    const LlmTenantReport &t = cell.report.total;
    w.field("submitted", t.submitted);
    w.field("admitted", t.admitted);
    w.field("completed", t.completed);
    w.field("rejected", t.rejected);
    w.field("shed", t.shed);
    w.field("timed_out", t.timedOut);
    w.field("slo_violations", t.sloViolations);
    w.field("preemptions", t.preemptions);
    w.field("tokens_out", t.tokensOut);
    w.field("goodput_tokens_per_sec", t.goodputTokensPerSec);
    w.field("p99_token_ns", t.perToken.p99Ns);
    w.field("p50_token_ns", t.perToken.p50Ns);
    w.field("p99_ttft_ns", t.ttft.p99Ns);
    w.field("p99_e2e_ns", t.e2e.p99Ns);
    w.field("iterations", cell.report.iterations);
    w.field("mean_batch", cell.report.meanBatch);
    w.key("kv").beginObject();
    w.field("blocks_allocated", cell.report.kvBlocksAllocated);
    w.field("blocks_freed", cell.report.kvBlocksFreed);
    w.field("peak_resident_blocks", cell.report.kvPeakResidentBlocks);
    w.field("alloc_failures", cell.report.kvAllocFailures);
    w.endObject();
    w.endObject();
    os << "\n";
    return os.str();
}

void
runExperiments()
{
    static bool done = false;
    if (done)
        return;
    done = true;
    setQuiet(true);
    const auto wall_start = std::chrono::steady_clock::now();

    auto cache = std::make_shared<serve::ServiceTimeCache>();
    calibrate(cache);

    // 0.6 = comfortable, 0.8 = where admit-once's padding waste tips it
    // into effective overload, 1.0 = calibrated capacity. Past 1.0 both
    // policies drown in deadline-doomed arrivals (FCFS without
    // backlog-aware admission) and the comparison is noise.
    const std::vector<double> loads =
        g_smoke ? std::vector<double>{0.9}
                : std::vector<double>{0.6, 0.8, 1.0};
    const std::vector<bool> profiles =
        g_smoke ? std::vector<bool>{false} : std::vector<bool>{false, true};

    for (const bool long_outputs : profiles)
        for (const double load : loads)
            for (const BatchPolicy policy :
                 {BatchPolicy::AdmitOnce, BatchPolicy::Continuous})
                g_cells.push_back(
                    runCell(policy, load, long_outputs, cache, nullptr));

    // Same-seed replay of the last continuous cell must be
    // bit-identical (determinism is load-bearing for every number
    // above).
    {
        const Cell &orig = g_cells.back();
        const Cell replay =
            runCell(orig.policy, orig.load, orig.profile == "long", cache,
                    nullptr);
        g_replayIdentical = cellJson(replay) == cellJson(orig);
    }

    // Optional Chrome-trace artifact of one continuous run (pid 6).
    if (!g_traceOut.empty()) {
        TraceSession trace;
        runCell(BatchPolicy::Continuous, loads.back(), false, cache,
                &trace);
        trace.writeFile(g_traceOut);
    }

    // --- Tail-based sampling under sustained overload ------------------
    {
        g_tailSlo = runTail(cache, &g_tail); // the measurement
        TailResult replay;
        runTail(cache, &replay); // second run: kept-set determinism
        g_tailReplayIdentical = replay.keptIds == g_tail.keptIds;
    }

    // --- In-binary acceptance checks ----------------------------------
    const double top_load = loads.back();
    for (std::size_t i = 0; i + 1 < g_cells.size(); i += 2) {
        const Cell &once = g_cells[i];
        const Cell &cont = g_cells[i + 1];
        const std::string where = " at load " + fmt(once.load, 1) + "/" +
                                  once.profile;
        const bool strict = once.load == top_load;
        const double gp_once = once.report.total.goodputTokensPerSec;
        const double gp_cont = cont.report.total.goodputTokensPerSec;
        const double p99_once = once.report.total.perToken.p99Ns;
        const double p99_cont = cont.report.total.perToken.p99Ns;
        check(strict ? gp_cont > gp_once : gp_cont >= 0.98 * gp_once,
              "continuous goodput " + fmt(gp_cont, 0) +
                  " not beating admit-once " + fmt(gp_once, 0) + where);
        check(strict ? p99_cont < p99_once : p99_cont <= 1.02 * p99_once,
              "continuous p99 token latency " + fmtNs(p99_cont) +
                  " not beating admit-once " + fmtNs(p99_once) + where);
        // No mean-batch check: below saturation continuous legitimately
        // runs a *smaller* live batch than a backlogged admit-once wave
        // — it drains arrivals as they come instead of accumulating
        // them. The padding column (wave size) is what admit-once pays.
    }
    for (const Cell &cell : g_cells)
        check(cell.report.kvBlocksAllocated == cell.report.kvBlocksFreed,
              "KV blocks leaked in " + std::string(batchPolicyName(
                  cell.policy)) + "/" + fmt(cell.load, 1));
    check(g_replayIdentical, "same-seed replay diverged");

    // Tail-based sampling contract: every must-keep request kept (the
    // report's bad-terminal count is an external floor), the kept set
    // exactly partitioned across keep classes, nothing dropped at the
    // session, the event volume bounded, exemplars resolving, and the
    // kept-trace-id set bit-identical under the same seed.
    check(g_tail.mustKeep >= g_tail.mustKeepFloor,
          "tracer must-keep " + std::to_string(g_tail.mustKeep) +
              " below the report's bad-terminal floor " +
              std::to_string(g_tail.mustKeepFloor));
    check(g_tail.kept ==
              g_tail.mustKeep + g_tail.headSampled + g_tail.slowKept,
          "kept traces do not partition into must-keep + head + slow");
    check(g_tail.eventsDropped == 0,
          "trace session dropped " +
              std::to_string(g_tail.eventsDropped) + " events");
    check(g_tail.eventsRecorded < 4'000'000,
          "tail run recorded " + std::to_string(g_tail.eventsRecorded) +
              " events, over the 4M budget");
    check(g_tail.exemplars > 0 && g_tail.exemplarMisses == 0,
          "histogram exemplars reference discarded traces (" +
              std::to_string(g_tail.exemplarMisses) + "/" +
              std::to_string(g_tail.exemplars) + ")");
    check(g_tailReplayIdentical,
          "same-seed kept-trace-id set diverged");
    check(g_tailSlo->firingBetween(0.0, g_tailSlo->config().windowNs *
                                            100.0),
          "sustained overload never fired an SLO burn alert");

    g_self.wallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    g_self.traceEventsRecorded = g_tail.eventsRecorded;
    g_self.traceEventsDropped = g_tail.eventsDropped;
}

void
printResults()
{
    printHeader(
        "LLM decode serving: tiny decoder on 1 PIM-HBM stack, open loop" +
        std::string(g_smoke ? " [smoke]" : ""));
    std::printf("full-batch decode token time %s (%.0f tok/s); loads are "
                "relative to the per-profile request capacity\n",
                fmtNs(g_perTokenNs).c_str(), g_capacityTps);
    printRow({"policy", "load", "profile", "offered", "goodput-t/s",
              "p99-tok", "p99-ttft", "mean-batch", "timeout"},
             12);
    for (const Cell &cell : g_cells) {
        const LlmTenantReport &t = cell.report.total;
        printRow({batchPolicyName(cell.policy), fmt(cell.load, 1),
                  cell.profile, fmt(cell.offeredRps, 1),
                  fmt(t.goodputTokensPerSec, 0), fmtNs(t.perToken.p99Ns),
                  fmtNs(t.ttft.p99Ns), fmt(cell.report.meanBatch, 2),
                  std::to_string(t.timedOut)},
                 12);
    }
    std::printf("\nsame-seed replay bit-identical: %s\n",
                g_replayIdentical ? "yes" : "NO");
    std::printf("tail sampling (%llu req, 1%% head): kept %llu traces "
                "(%llu must-keep >= floor %llu, %llu head, %llu slow), "
                "%llu events, %llu dropped, kept set replay-identical: "
                "%s\n",
                static_cast<unsigned long long>(g_tail.requests),
                static_cast<unsigned long long>(g_tail.kept),
                static_cast<unsigned long long>(g_tail.mustKeep),
                static_cast<unsigned long long>(g_tail.mustKeepFloor),
                static_cast<unsigned long long>(g_tail.headSampled),
                static_cast<unsigned long long>(g_tail.slowKept),
                static_cast<unsigned long long>(g_tail.eventsRecorded),
                static_cast<unsigned long long>(g_tail.eventsDropped),
                g_tailReplayIdentical ? "yes" : "NO");
    if (g_failures.empty()) {
        std::printf("all acceptance checks passed\n");
    } else {
        for (const auto &f : g_failures)
            std::fprintf(stderr, "ACCEPTANCE FAILURE: %s\n", f.c_str());
    }
}

std::string
jsonReport()
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/true);
    w.beginObject();
    writeBenchPreamble(w, "llm_serving", g_seed, g_smoke,
                       "tiny decoder, 1 PIM-HBM stack, maxBatch " +
                           std::to_string(kMaxBatch),
                       &g_self);
    w.field("per_token_ns", g_perTokenNs);
    w.field("capacity_tokens_per_sec", g_capacityTps);
    w.key("sweep").beginArray();
    for (const Cell &cell : g_cells) {
        // Re-emit the cell object inline (cellJson is a standalone
        // document used for the replay comparison).
        w.beginObject();
        w.field("policy", batchPolicyName(cell.policy));
        w.field("load", cell.load);
        w.field("profile", cell.profile);
        w.field("offered_rps", cell.offeredRps);
        w.field("capacity_rps", cell.capacityRps);
        w.field("deadline_ns", cell.deadlineNs);
        const LlmTenantReport &t = cell.report.total;
        w.field("submitted", t.submitted);
        w.field("admitted", t.admitted);
        w.field("completed", t.completed);
        w.field("rejected", t.rejected);
        w.field("shed", t.shed);
        w.field("timed_out", t.timedOut);
        w.field("slo_violations", t.sloViolations);
        w.field("preemptions", t.preemptions);
        w.field("tokens_out", t.tokensOut);
        w.field("goodput_tokens_per_sec", t.goodputTokensPerSec);
        w.field("p99_token_ns", t.perToken.p99Ns);
        w.field("p99_ttft_ns", t.ttft.p99Ns);
        w.field("p99_e2e_ns", t.e2e.p99Ns);
        w.field("iterations", cell.report.iterations);
        w.field("mean_batch", cell.report.meanBatch);
        w.key("kv").beginObject();
        w.field("blocks_allocated", cell.report.kvBlocksAllocated);
        w.field("blocks_freed", cell.report.kvBlocksFreed);
        w.field("peak_resident_blocks", cell.report.kvPeakResidentBlocks);
        w.field("alloc_failures", cell.report.kvAllocFailures);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("replay_identical", g_replayIdentical);
    w.key("tail").beginObject();
    w.field("requests", g_tail.requests);
    w.field("head_sample_rate", 0.01);
    w.field("traces_ended", g_tail.tracesEnded);
    w.field("kept", g_tail.kept);
    w.field("must_keep", g_tail.mustKeep);
    w.field("must_keep_floor", g_tail.mustKeepFloor);
    w.field("head_sampled", g_tail.headSampled);
    w.field("slow_kept", g_tail.slowKept);
    w.field("events_flushed", g_tail.eventsFlushed);
    w.field("events_truncated", g_tail.eventsTruncated);
    w.field("events_recorded", g_tail.eventsRecorded);
    w.field("events_dropped", g_tail.eventsDropped);
    w.field("exemplars", g_tail.exemplars);
    w.field("exemplar_misses", g_tail.exemplarMisses);
    w.field("kept_set_replay_identical", g_tailReplayIdentical);
    w.endObject();
    w.key("slo");
    g_tailSlo->writeJson(w);
    w.field("acceptance_failures",
            static_cast<std::uint64_t>(g_failures.size()));
    w.endObject();
    os << "\n";
    return os.str();
}

/** Validate, then write BENCH_llm.json. Invalid JSON is a hard fail
 *  (the CI smoke job relies on this self-check). */
bool
writeJsonReport(const std::string &path)
{
    const std::string text = jsonReport();
    std::string error;
    if (!validateJson(text, &error)) {
        std::fprintf(stderr, "BENCH_llm JSON invalid: %s\n", error.c_str());
        return false;
    }
    std::ofstream os(path);
    if (!os) {
        PIMSIM_WARN("cannot open bench output '", path, "'");
        return false;
    }
    os << text;
    return true;
}

void
BM_LlmServing(benchmark::State &state)
{
    for (auto _ : state)
        runExperiments();
    const std::size_t i = static_cast<std::size_t>(state.range(0));
    if (i < g_cells.size()) {
        const Cell &cell = g_cells[i];
        const LlmTenantReport &t = cell.report.total;
        state.counters["goodput_tps"] = t.goodputTokensPerSec;
        state.counters["p99_token_ns"] = t.perToken.p99Ns;
        state.counters["mean_batch"] = cell.report.meanBatch;
        state.SetLabel(std::string(batchPolicyName(cell.policy)) + "/" +
                       fmt(cell.load, 1) + "/" + cell.profile);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip our flags before google/benchmark sees (and rejects) them.
    std::string json_out = "BENCH_llm.json";
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json-out=", 11) == 0)
            json_out = argv[i] + 11;
        else if (std::strncmp(argv[i], "--trace-out=", 12) == 0)
            g_traceOut = argv[i] + 12;
        else if (std::strcmp(argv[i], "--smoke") == 0)
            g_smoke = true;
        else if (std::strncmp(argv[i], "--seed=", 7) == 0)
            g_seed = std::strtoull(argv[i] + 7, nullptr, 0);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;

    runExperiments();
    for (std::size_t i = 0; i < g_cells.size(); ++i) {
        const Cell &cell = g_cells[i];
        const std::string name =
            "LlmServing/" + std::string(batchPolicyName(cell.policy)) +
            "/" + fmt(cell.load, 1) + "/" + cell.profile;
        benchmark::RegisterBenchmark(name.c_str(), BM_LlmServing)
            ->Arg(static_cast<int>(i))
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printResults();
    if (!json_out.empty() && !writeJsonReport(json_out))
        return 1;
    return g_failures.empty() ? 0 : 1;
}
