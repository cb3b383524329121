/**
 * @file
 * Byte gates for LlmEngine shapes EngineDigest does not cover.
 *
 * Each test drives one small deterministic decode-serving run and pins
 * three FNV-1a digests: the stats JSON (written once mid-run, while a
 * batch is decoding, and once after drain), the Chrome trace with every
 * request trace kept, and every completion's (id, firstTokenNs,
 * completeNs). The shapes stress what a change to the iteration loop
 * can get wrong: AdmitOnce waves, preemption and rejoin under a tight
 * KV cap, frequent context-bucket and KV-block crossings, a full batch
 * with a queued backlog timing out, and a run with no observer. A
 * change that claims identical results must leave every constant here
 * alone.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/reqtrace.h"
#include "common/rng.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "serve/chaos.h"

namespace pimsim::llm {
namespace {

/** A streambuf that FNV-1a-hashes everything written to it. */
class Fnv1aBuf : public std::streambuf
{
  public:
    std::uint64_t hash = 0xcbf29ce484222325ull;

  protected:
    int_type overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof()))
            mix(static_cast<unsigned char>(ch));
        return ch;
    }

    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            mix(static_cast<unsigned char>(s[i]));
        return n;
    }

  private:
    void mix(unsigned char byte)
    {
        hash = (hash ^ byte) * 0x100000001b3ull;
    }
};

/** The three digests of one run (trace is 0 without observers). */
struct Digests
{
    std::uint64_t stats = 0;
    std::uint64_t trace = 0;
    std::uint64_t completions = 0;

    bool operator==(const Digests &) const = default;
};

void
PrintTo(const Digests &d, std::ostream *os)
{
    *os << std::hex << "{0x" << d.stats << "ull, 0x" << d.trace
        << "ull, 0x" << d.completions << "ull}" << std::dec;
}

/** How one shape's arrivals are drawn. */
struct Traffic
{
    unsigned requests = 80;
    double meanGapNs = 1.0e6;
    unsigned promptMin = 8, promptSpan = 40;
    unsigned outputMin = 4, outputSpan = 60;
    std::uint64_t seed = 1;
};

/** What a run exercised, for the shape's sanity expectations. */
struct Outcome
{
    Digests digests;
    LlmReport report;
};

Outcome
run(const LlmEngineConfig &config, const Traffic &traffic, bool observe,
    double faults_per_sec = 0.0)
{
    setQuiet(true);
    LlmEngine engine(config);
    serve::ChaosConfig chaos_config;
    chaos_config.faultsPerSec = faults_per_sec;
    chaos_config.seed = 0xd1e;
    serve::ChaosCampaign chaos(chaos_config, 1);
    if (faults_per_sec > 0.0)
        engine.setFaultModel(&chaos);
    TraceSession session;
    RequestTracerConfig keep_all;
    keep_all.headSampleRate = 1.0;
    RequestTracer tracer(keep_all);
    if (observe) {
        engine.setTrace(&session);
        engine.setRequestTracer(&tracer);
    }

    Fnv1aBuf stats_buf, done_buf;
    std::ostream stats_os(&stats_buf), done_os(&done_buf);
    const auto take = [&] {
        char line[96];
        for (const LlmRequest &r : engine.takeCompletions()) {
            std::snprintf(line, sizeof(line), "%llu %.17g %.17g\n",
                          static_cast<unsigned long long>(r.id),
                          r.firstTokenNs, r.completeNs);
            done_os << line;
        }
    };

    Rng rng(traffic.seed);
    double t = 0.0;
    bool wrote_mid_run = false;
    for (unsigned i = 0; i < traffic.requests; ++i) {
        t += traffic.meanGapNs * 2.0 * rng.nextDouble();
        const unsigned tenant = static_cast<unsigned>(
            rng.nextBelow(engine.numTenants()));
        const unsigned prompt =
            traffic.promptMin +
            static_cast<unsigned>(rng.nextBelow(traffic.promptSpan));
        const unsigned output =
            traffic.outputMin +
            static_cast<unsigned>(rng.nextBelow(traffic.outputSpan));
        engine.submit(tenant, t, prompt, output);
        if (i % 7 == 3)
            take();
        if (!wrote_mid_run && i == traffic.requests / 2 &&
            engine.batcher().runningSize() > 0) {
            engine.writeStats(stats_os);
            wrote_mid_run = true;
        }
    }
    engine.drain();
    take();
    EXPECT_TRUE(wrote_mid_run) << "no batch decoding at the mid-run dump";

    Outcome out;
    out.report = engine.report();
    out.report.reconcile();
    if (observe) {
        tracer.flush(session);
        engine.statsRegistry().retainExemplars(tracer.keptTraceIds());
        Fnv1aBuf trace_buf;
        std::ostream trace_os(&trace_buf);
        session.write(trace_os);
        out.digests.trace = trace_buf.hash;
    }
    engine.writeStats(stats_os);
    out.digests.stats = stats_buf.hash;
    out.digests.completions = done_buf.hash;
    return out;
}

LlmEngineConfig
baseConfig()
{
    LlmEngineConfig c;
    c.system = SystemConfig::pimHbmSystem();
    c.system.numStacks = 1;
    c.system.geometry.rowsPerBank = 512;
    c.decoder = DecoderSpec::tiny();
    c.tenants = {LlmTenantSpec{"t0", 0.0, 0}};
    c.batcher.maxBatch = 4;
    c.batcher.maxQueue = 64;
    c.timingCache = std::make_shared<serve::ServiceTimeCache>();
    return c;
}

TEST(LlmDigest, AdmitOnceWaves)
{
    LlmEngineConfig c = baseConfig();
    c.batcher.policy = BatchPolicy::AdmitOnce;
    Traffic traffic;
    traffic.meanGapNs = 5.0e6;
    traffic.seed = 11;
    const Outcome o = run(c, traffic, /*observe=*/true,
                          /*faults_per_sec=*/20.0);
    EXPECT_EQ(o.report.total.completed, traffic.requests);
    EXPECT_GT(o.report.faultedIterations, 0u);
    EXPECT_EQ(o.digests, (Digests{0xa8ffab310e7eed69ull, 0xa242617f1a65700ull,
                             0xc5f1d44fda08b2ecull}));
}

TEST(LlmDigest, TightKvCapPreemptsAndRejoins)
{
    LlmEngineConfig c = baseConfig();
    c.tenants = {LlmTenantSpec{"tight", 0.0, 6},
                 LlmTenantSpec{"roomy", 0.0, 0}};
    Traffic traffic;
    traffic.meanGapNs = 10.0e6;
    traffic.outputMin = 20;
    traffic.outputSpan = 80;
    traffic.seed = 22;
    const Outcome o = run(c, traffic, /*observe=*/true);
    EXPECT_GT(o.report.total.preemptions, 0u);
    EXPECT_GT(o.report.kvAllocFailures, 0u);
    EXPECT_EQ(o.report.total.completed, traffic.requests);
    EXPECT_EQ(o.digests, (Digests{0x5b96716bd87eeee9ull, 0xb4d36631386a3140ull,
                             0x909d0bdaf9b2b2f1ull}));
}

TEST(LlmDigest, FineBucketsAndSmallBlocks)
{
    LlmEngineConfig c = baseConfig();
    c.ctxGranule = 16;
    c.kv.blockTokens = 8;
    Traffic traffic;
    traffic.meanGapNs = 10.0e6;
    traffic.outputMin = 30;
    traffic.outputSpan = 90;
    traffic.seed = 33;
    const Outcome o = run(c, traffic, /*observe=*/true);
    EXPECT_EQ(o.report.total.completed, traffic.requests);
    EXPECT_EQ(o.digests, (Digests{0x4372e46a9f6a3035ull, 0xe5242a5d522d337aull,
                             0x573203476da0e8b5ull}));
}

TEST(LlmDigest, FullBatchWithBacklogAndDeadlines)
{
    LlmEngineConfig c = baseConfig();
    // Queued requests expire while the full batch decodes: admission
    // shedding is off so the deadline is met or missed in the queue.
    c.tenants = {LlmTenantSpec{"slo", 60.0e6, 0},
                 LlmTenantSpec{"bulk", 0.0, 0}};
    c.deadlineAdmission = false;
    c.batcher.maxQueue = 24;
    Traffic traffic;
    traffic.requests = 120;
    traffic.meanGapNs = 6.0e6;
    traffic.outputMin = 10;
    traffic.outputSpan = 70;
    traffic.seed = 44;
    const Outcome o = run(c, traffic, /*observe=*/true);
    EXPECT_GT(o.report.tenants[0].timedOut, 0u);
    EXPECT_GT(o.report.tenants[0].completed, 0u);
    EXPECT_EQ(o.digests, (Digests{0xfe23ecb6dc1881d8ull, 0xe240cdee50e1bc09ull,
                             0x1feb8d83a5e50bf4ull}));
}

TEST(LlmDigest, NoObserver)
{
    LlmEngineConfig c = baseConfig();
    c.tenants = {LlmTenantSpec{"a", 80.0e6, 0}, LlmTenantSpec{"b", 0.0, 5}};
    c.ctxGranule = 32;
    c.kv.blockTokens = 16;
    Traffic traffic;
    traffic.requests = 150;
    traffic.meanGapNs = 12.0e6;
    traffic.outputSpan = 120;
    traffic.seed = 55;
    const Outcome o = run(c, traffic, /*observe=*/false);
    EXPECT_GT(o.report.total.completed, 0u);
    EXPECT_GT(o.report.total.preemptions, 0u);
    EXPECT_EQ(o.digests, (Digests{0xec69d3ca55d36ec0ull, 0x0ull,
                             0x23c1540fb99ad5ccull}));
}

} // namespace
} // namespace pimsim::llm
