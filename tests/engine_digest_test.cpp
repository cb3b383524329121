/**
 * @file
 * Byte gates for the three request engines.
 *
 * Each test drives one small, fully deterministic run of a serving
 * engine through every terminal path it has and pins three FNV-1a
 * digests: the stats JSON (or report JSON), the Chrome trace with every
 * request trace kept, and the SLO observation feed. A refactor of the
 * request-close and accounting paths that claims identical output must
 * leave all nine constants alone; only a deliberate model change may
 * update them.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <streambuf>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster_engine.h"
#include "common/logging.h"
#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/trace.h"
#include "llm/engine.h"
#include "serve/chaos.h"
#include "serve/serving_engine.h"

namespace pimsim {
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

/** The three digests of one run. */
struct Digests
{
    std::uint64_t stats = 0;
    std::uint64_t trace = 0;
    std::uint64_t slo = 0;

    bool operator==(const Digests &) const = default;
};

void
PrintTo(const Digests &d, std::ostream *os)
{
    *os << std::hex << "{0x" << d.stats << "ull, 0x" << d.trace
        << "ull, 0x" << d.slo << "ull}" << std::dec;
}

std::uint64_t
sloDigest(const std::vector<SloObservation> &obs)
{
    Fnv1aBuf buf;
    std::ostream os(&buf);
    char line[64];
    for (const SloObservation &o : obs) {
        std::snprintf(line, sizeof(line), "%.17g %d\n", o.tsNs,
                      o.good ? 1 : 0);
        os << line;
    }
    return buf.hash;
}

std::uint64_t
traceDigest(const TraceSession &session)
{
    Fnv1aBuf buf;
    std::ostream os(&buf);
    session.write(os);
    return buf.hash;
}

/** A tracer that keeps every request trace. */
RequestTracerConfig
keepAll()
{
    RequestTracerConfig rc;
    rc.headSampleRate = 1.0;
    return rc;
}

SystemConfig
smallSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1;
    c.geometry.rowsPerBank = 512;
    return c;
}

AppSpec
fcApp(const std::string &name, unsigned dim)
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = dim;
    fc.input = dim;
    fc.steps = 1;
    fc.pimEligible = true;

    AppSpec app;
    app.name = name;
    app.layers = {fc};
    return app;
}

// ------------------------------------------------------------------
// ServingEngine
// ------------------------------------------------------------------

/**
 * Scripted uncorrectable faults: every PIM batch of shard 0 starting in
 * [outageStartNs, outageEndNs) fails (the breaker trips and retries
 * run out), and every third PIM batch of shard 1 fails once.
 */
class ScriptedFaults : public serve::FaultModel
{
  public:
    static constexpr double outageStartNs = 1.0e6;
    static constexpr double outageEndNs = 2.5e6;

    unsigned faultEvents(unsigned shard, double start_ns, double) override
    {
        if (shard == 0)
            return start_ns >= outageStartNs && start_ns < outageEndNs;
        return (calls_++ % 3) == 2 ? 1u : 0u;
    }

  private:
    unsigned calls_ = 0;
};

/**
 * Silent corruptions on channel 8 (shard 1): one event at the start of
 * every batch window that overlaps [fromNs, toNs).
 */
class SdcWindow : public serve::SdcModel
{
  public:
    static constexpr double fromNs = 3.0e6;
    static constexpr double toNs = 3.6e6;

    std::vector<serve::SdcEvent> sdcEvents(unsigned channel,
                                           double start_ns,
                                           double end_ns) override
    {
        if (channel == 8 && start_ns < toNs && end_ns > fromNs)
            return {serve::SdcEvent{start_ns, channel, 0}};
        return {};
    }
};

TEST(EngineDigest, ServingEngineTwoTenantsWithFaultsAndDeadlines)
{
    setQuiet(true);
    serve::ServeConfig config;
    config.system = smallSystem();
    serve::TenantSpec a;
    a.name = "a";
    a.app = fcApp("fc256", 256);
    a.deadlineNs = 15'000.0;
    serve::TenantSpec b;
    b.name = "b";
    b.app = fcApp("fc512", 512);
    b.deadlineNs = 30'000.0;
    config.tenants = {a, b};
    config.shardChannels = true;
    config.queue.depth = 12;
    config.queue.perTenantDepth = 8;
    config.sched.policy = serve::SchedPolicy::BatchTimeout;
    config.sched.maxBatch = 4;
    config.sched.batchTimeoutNs = 5'000.0;
    config.retry.maxRetries = 1;
    config.retry.baseBackoffNs = 20'000.0;
    config.breaker.enabled = true;
    config.breaker.window = 4;
    config.breaker.minSamples = 2;
    config.breaker.openNs = 300'000.0;
    config.sdc.enabled = true;
    config.sdc.abft = false; // the struck batch completes wrong

    serve::ServingEngine engine(config);
    ScriptedFaults faults;
    SdcWindow sdc;
    engine.setFaultModel(&faults);
    engine.setSdcModel(&sdc);
    TraceSession session;
    RequestTracer tracer(keepAll());
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);

    // Bursty two-tenant arrivals: quiet stretches and overload bursts.
    Rng rng(0xd16e57);
    std::vector<SloObservation> obs;
    double t = 0.0;
    for (unsigned i = 0; i < 400; ++i) {
        const bool burst = (i / 40) % 2 == 1;
        t += (burst ? 400.0 : 30'000.0) * (0.5 + rng.nextDouble());
        engine.submit(i % 3 == 0 ? 1u : 0u, t);
        for (const SloObservation &o : engine.takeSloObservations())
            obs.push_back(o);
    }
    engine.drain();
    for (const SloObservation &o : engine.takeSloObservations())
        obs.push_back(o);

    const serve::ServeReport report = engine.report();
    report.reconcile();
    const serve::TenantReport &total = report.total;
    EXPECT_GT(total.completed, 0u);
    EXPECT_GT(total.shed, 0u);
    EXPECT_GT(total.timedOut, 0u);
    EXPECT_GT(total.rejected, 0u);
    EXPECT_GT(total.retries, 0u);
    EXPECT_GT(total.fallbackCompleted, 0u);
    EXPECT_GT(total.silentlyWrong, 0u);
    EXPECT_GT(total.sloViolations, 0u);
    EXPECT_GT(report.shards[0].opens, 0u);

    tracer.flush(session);
    engine.system().statsRegistry().retainExemplars(tracer.keptTraceIds());
    Fnv1aBuf stats_buf;
    std::ostream stats_os(&stats_buf);
    engine.system().statsRegistry().dumpJson(stats_os);
    const Digests got{stats_buf.hash, traceDigest(session), sloDigest(obs)};
    EXPECT_EQ(got, (Digests{0xe3e30f251072bc57ull, 0x3c438ad9f135dd41ull,
                             0x497616b07591b074ull}));
}

// ------------------------------------------------------------------
// LlmEngine
// ------------------------------------------------------------------

TEST(EngineDigest, LlmEngineTwoTenantsWithDeadlineShedsAndTimeouts)
{
    setQuiet(true);
    llm::LlmEngineConfig config;
    config.system = smallSystem();
    config.decoder = llm::DecoderSpec::tiny();
    // "chat" carries a deadline (sheds, queue timeouts, late
    // completions); "batch" has a small KV cap (preemptions).
    config.tenants = {llm::LlmTenantSpec{"chat", 10.0e6, 12},
                      llm::LlmTenantSpec{"batch", 0.0, 4}};
    config.batcher.policy = llm::BatchPolicy::Continuous;
    config.batcher.maxBatch = 4;
    config.batcher.maxQueue = 10;
    config.timingCache = std::make_shared<serve::ServiceTimeCache>();

    llm::LlmEngine engine(config);
    serve::ChaosConfig chaos_config;
    chaos_config.faultsPerSec = 200.0;
    chaos_config.seed = 0x11a;
    serve::ChaosCampaign chaos(chaos_config, 1);
    engine.setFaultModel(&chaos);
    TraceSession session;
    RequestTracer tracer(keepAll());
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);

    Rng rng(0x11e);
    std::vector<SloObservation> obs;
    double t = 0.0;
    for (unsigned i = 0; i < 120; ++i) {
        const bool burst = (i / 20) % 2 == 1;
        t += (burst ? 200'000.0 : 10'000'000.0) *
             (0.5 + rng.nextDouble());
        const unsigned tenant = i % 2;
        const unsigned prompt =
            8 + static_cast<unsigned>(rng.nextDouble() * 40);
        unsigned output = 4 + static_cast<unsigned>(rng.nextDouble() * 36);
        if (i % 10 == 4)
            output = 300; // a long chat answer: shed at admission
        if (i == 7)
            output = 4096; // beyond the context limit: rejected
        engine.submit(tenant, t, prompt, output);
        for (const SloObservation &o : engine.takeSloObservations())
            obs.push_back(o);
    }
    engine.drain();
    for (const SloObservation &o : engine.takeSloObservations())
        obs.push_back(o);

    const llm::LlmReport report = engine.report();
    report.reconcile();
    const llm::LlmTenantReport &chat = report.tenants[0];
    EXPECT_GT(chat.completed, 0u);
    EXPECT_GT(chat.shed, 0u);
    EXPECT_GT(chat.timedOut, 0u);
    EXPECT_GT(chat.sloViolations, 0u);
    EXPECT_GT(report.total.rejected, 1u); // infeasible and queue-full
    EXPECT_GT(report.total.preemptions, 0u);
    EXPECT_GT(report.faultedIterations, 0u);

    tracer.flush(session);
    engine.statsRegistry().retainExemplars(tracer.keptTraceIds());
    Fnv1aBuf stats_buf;
    std::ostream stats_os(&stats_buf);
    engine.writeStats(stats_os);
    const Digests got{stats_buf.hash, traceDigest(session), sloDigest(obs)};
    EXPECT_EQ(got, (Digests{0x6ac7a7a4d55d64bfull, 0x1dc773cb5ff47f39ull,
                             0x28ad099f40608d3aull}));
}

// ------------------------------------------------------------------
// ClusterEngine
// ------------------------------------------------------------------

TEST(EngineDigest, ClusterEngineHedgingWithAKilledHost)
{
    setQuiet(true);
    cluster::ClusterConfig config;
    config.system = smallSystem();
    config.numHosts = 3;
    config.stacksPerHost = 1;
    config.app = fcApp("fc256", 256);
    config.queueDepth = 8;
    config.maxAttempts = 2;
    config.hedge.enabled = true;
    config.hedge.minSamples = 8;
    const double est = cluster::ClusterEngine(config).attemptEstimateNs();
    config.deadlineNs = 8.0 * est;
    config.router.health.probeIntervalNs = 4.0 * est;

    cluster::ClusterEngine engine(config);
    serve::ChaosConfig chaos_config;
    chaos_config.seed = 0xc1;
    serve::ChaosCampaign chaos(chaos_config, 1);
    serve::HostFaultSpec kill;
    kill.kind = serve::HostFaultSpec::Kind::Crash;
    kill.host = 0;
    kill.startNs = 20.0 * est;
    kill.endNs = 90.0 * est;
    chaos.addHostFault(kill);
    serve::HostFaultSpec slow;
    slow.kind = serve::HostFaultSpec::Kind::Straggler;
    slow.host = 2;
    slow.startNs = 0.0;
    slow.endNs = 1e18;
    slow.factor = 8.0;
    chaos.addHostFault(slow);
    for (unsigned h : {0u, 1u, 2u}) {
        serve::HostFaultSpec flaky;
        flaky.kind = serve::HostFaultSpec::Kind::FlakyLink;
        flaky.host = h;
        flaky.startNs = 0.0;
        flaky.endNs = 1e18;
        flaky.lossProb = 0.3;
        chaos.addHostFault(flaky);
    }
    engine.setFaultModel(&chaos);
    TraceSession session;
    RequestTracer tracer(keepAll());
    engine.setTrace(&session);
    engine.setRequestTracer(&tracer);

    Rng rng(0xc2);
    std::vector<SloObservation> obs;
    double t = 0.0;
    for (unsigned i = 0; i < 300; ++i) {
        const bool burst = (i / 50) % 2 == 1;
        t += (burst ? 0.35 : 0.8) * est * (0.5 + rng.nextDouble());
        engine.submit(t);
        for (const SloObservation &o : engine.takeSloObservations())
            obs.push_back(o);
    }
    engine.drain();
    for (const SloObservation &o : engine.takeSloObservations())
        obs.push_back(o);

    const cluster::ClusterReport report = engine.report();
    report.reconcile();
    EXPECT_GT(report.completed, 0u);
    EXPECT_GT(report.shed, 0u);
    EXPECT_GT(report.rejected, 0u);
    EXPECT_GT(report.timedOut, 0u);
    EXPECT_GT(report.failed, 0u);
    EXPECT_GT(report.sloViolations, 0u);
    EXPECT_GT(report.hedgesFired, 0u);
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(report.hosts[0].entries[2], 0u); // host 0 went down

    tracer.flush(session);
    Fnv1aBuf stats_buf;
    std::ostream stats_os(&stats_buf);
    stats_os << report.toJson();
    const Digests got{stats_buf.hash, traceDigest(session), sloDigest(obs)};
    EXPECT_EQ(got, (Digests{0x79661bbb852deeb8ull, 0xbece6585094f72c9ull,
                             0xe7670c8a7081e439ull}));
}

} // namespace
} // namespace pimsim
