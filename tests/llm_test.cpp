/**
 * @file
 * LLM subsystem tests: decoder lowering, paged KV-cache accounting,
 * continuous-batching invariants (join/leave ledger, starvation-free
 * preemption, exact KV conservation), deadline handling, and
 * deterministic replay of the decode-serving engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "llm/batcher.h"
#include "llm/decoder.h"
#include "llm/engine.h"
#include "llm/kv_cache.h"
#include "llm/trace_gen.h"
#include "serve/chaos.h"
#include "serve/service_model.h"

namespace pimsim::llm {
namespace {

SystemConfig
smallSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 channels keeps tests fast
    c.geometry.rowsPerBank = 512;
    return c;
}

LlmEngineConfig
smallConfig(BatchPolicy policy = BatchPolicy::Continuous)
{
    LlmEngineConfig cfg;
    cfg.system = smallSystem();
    cfg.decoder = DecoderSpec::tiny();
    cfg.tenants = {LlmTenantSpec{"t0", 0.0, 0}};
    cfg.batcher.policy = policy;
    cfg.batcher.maxBatch = 4;
    cfg.timingCache = std::make_shared<serve::ServiceTimeCache>();
    return cfg;
}

// ------------------------------------------------------------------
// Decoder lowering
// ------------------------------------------------------------------

TEST(Decoder, SpecDerivedQuantities)
{
    const DecoderSpec spec = DecoderSpec::tiny();
    spec.validate();
    EXPECT_EQ(spec.headDim(), spec.hiddenDim / spec.heads);
    EXPECT_EQ(spec.kvDim(), spec.kvHeads * spec.headDim());
    // K + V, FP16, per layer.
    EXPECT_EQ(spec.kvBytesPerToken(),
              2ULL * spec.layers * spec.kvDim() * 2ULL);
    EXPECT_GT(spec.weightBytes(), 0u);
}

TEST(Decoder, CtxBucketRoundsUp)
{
    EXPECT_EQ(ctxBucket(1, 128), 128u);
    EXPECT_EQ(ctxBucket(128, 128), 128u);
    EXPECT_EQ(ctxBucket(129, 128), 256u);
    EXPECT_EQ(ctxBucket(0, 128), 128u); // minimum one granule
}

TEST(Decoder, FfnAppBatchesWithResidentWeights)
{
    const DecoderSpec spec = DecoderSpec::tiny();
    const AppSpec app = decodeFfnApp(spec);
    ASSERT_EQ(app.layers.size(), 4u); // QKV, out, FFN up, FFN down
    for (const auto &l : app.layers) {
        EXPECT_EQ(l.kind, LayerSpec::Kind::Fc);
        EXPECT_TRUE(l.pimEligible);
        // Resident weights: batches amortise launches, not re-staging.
        EXPECT_TRUE(l.inputsAvailable);
        EXPECT_EQ(l.steps, spec.layers);
    }
    // Fused QKV projection: hidden + 2x kvDim outputs.
    EXPECT_EQ(app.layers[0].hidden, spec.hiddenDim + 2 * spec.kvDim());
}

TEST(Decoder, AttnAppShapeGrowsWithContext)
{
    const DecoderSpec spec = DecoderSpec::tiny();
    const AppSpec a128 = decodeAttnApp(spec, 128);
    const AppSpec a256 = decodeAttnApp(spec, 256);
    EXPECT_NE(a128.name, a256.name); // distinct memo keys per bucket
    ASSERT_EQ(a128.layers.size(), 2u); // score + context GEMVs
    EXPECT_EQ(a128.layers[0].steps, spec.layers * spec.kvHeads);

    // Longer context must cost more through the real service model.
    serve::ShardServiceModel model(smallSystem(), 16, nullptr);
    EXPECT_GT(model.serviceNs(a256, 1), model.serviceNs(a128, 1));
}

TEST(DecodeCost, MatchesTheComposedServiceTimesBitForBit)
{
    const LlmEngineConfig cfg = smallConfig();
    DecodeCost cost(cfg.system, cfg.decoder, cfg.ctxGranule,
                    cfg.prefillGranule, cfg.timingCache);
    // The reference composes the app-level times on its own cache.
    serve::ShardServiceModel model(cfg.system, cfg.system.numChannels(),
                                   nullptr);
    const AppSpec ffn = decodeFfnApp(cfg.decoder);
    for (const unsigned ctx : {1u, 100u, 300u}) {
        const AppSpec attn =
            decodeAttnApp(cfg.decoder, ctxBucket(ctx, cfg.ctxGranule));
        const unsigned bucket = ctxBucket(ctx, cfg.prefillGranule);
        EXPECT_EQ(cost.prefillNs(ctx),
                  model.serviceNs(ffn, bucket) +
                      model.serviceNs(attn, std::max(1u, bucket / 2)));
        EXPECT_EQ(cost.attnNs(ctx), model.serviceNs(attn, 1));
        EXPECT_EQ(cost.tokenNs(ctx, 1),
                  model.serviceNs(ffn, 1) + model.serviceNs(attn, 1));
        EXPECT_EQ(cost.tokenNs(ctx, 4),
                  model.serviceNs(ffn, 4) / 4 + model.serviceNs(attn, 1));
    }
}

TEST(DecodeCost, RepricingAContextAddsNoCacheEntry)
{
    const LlmEngineConfig cfg = smallConfig();
    DecodeCost cost(cfg.system, cfg.decoder, cfg.ctxGranule,
                    cfg.prefillGranule, cfg.timingCache);
    const double prefill = cost.prefillNs(200);
    const double token = cost.tokenNs(200, 4);
    const std::size_t entries = cfg.timingCache->size();
    EXPECT_GT(entries, 0u);
    EXPECT_EQ(cost.prefillNs(200), prefill);
    EXPECT_EQ(cost.tokenNs(200, 4), token);
    // 150 shares 200's context bucket.
    EXPECT_EQ(cost.tokenNs(150, 4), token);
    EXPECT_EQ(cfg.timingCache->size(), entries);
}

// ------------------------------------------------------------------
// Paged KV cache
// ------------------------------------------------------------------

/** A KV manager over one (or more) partitions of a fresh system. */
struct KvFixture
{
    explicit KvFixture(unsigned tenants = 1, unsigned rows_per_tenant = 64,
                       std::vector<std::uint64_t> caps = {})
        : spec(DecoderSpec::tiny()), system(smallSystem())
    {
        base = std::make_unique<PimDriver>(system);
        rowBytes = system.config().geometry.bytesPerRow() *
                   system.config().geometry.banksPerPch() *
                   system.numChannels();
        std::vector<PimDriver *> parts;
        for (unsigned t = 0; t < tenants; ++t) {
            drivers.push_back(std::make_unique<PimDriver>(
                system, base->baseRow() + t * rows_per_tenant,
                rows_per_tenant));
            parts.push_back(drivers.back().get());
        }
        if (caps.empty())
            caps.assign(tenants, 0);
        kv = std::make_unique<KvCacheManager>(spec, KvCacheConfig{},
                                              rowBytes, parts, caps);
    }

    DecoderSpec spec;
    PimSystem system;
    std::unique_ptr<PimDriver> base;
    std::vector<std::unique_ptr<PimDriver>> drivers;
    std::uint64_t rowBytes = 0;
    std::unique_ptr<KvCacheManager> kv;
};

TEST(KvCache, BlocksForCeils)
{
    KvFixture f;
    const unsigned bt = f.kv->blockTokens();
    EXPECT_EQ(f.kv->blocksFor(0), 0u);
    EXPECT_EQ(f.kv->blocksFor(1), 1u);
    EXPECT_EQ(f.kv->blocksFor(bt), 1u);
    EXPECT_EQ(f.kv->blocksFor(bt + 1), 2u);
}

TEST(KvCache, ReserveGrowsAndReleaseFrees)
{
    KvFixture f;
    const KvSeqId s = f.kv->createSeq(0);
    ASSERT_TRUE(f.kv->reserve(s, 1));
    EXPECT_EQ(f.kv->seqBlocks(s), 1u);
    const unsigned bt = f.kv->blockTokens();
    ASSERT_TRUE(f.kv->reserve(s, 3 * bt));
    EXPECT_EQ(f.kv->seqBlocks(s), 3u);
    // Reserve is monotone: asking for less never shrinks.
    ASSERT_TRUE(f.kv->reserve(s, 1));
    EXPECT_EQ(f.kv->seqBlocks(s), 3u);
    EXPECT_EQ(f.kv->residentBlocks(), 3u);

    f.kv->release(s);
    EXPECT_EQ(f.kv->residentBlocks(), 0u);
    EXPECT_EQ(f.kv->liveSeqs(), 0u);
    EXPECT_EQ(f.kv->blocksAllocated(), f.kv->blocksFreed());
    f.kv->reconcile();
}

TEST(KvCache, AllOrNothingOnExhaustion)
{
    KvFixture f(1, /*rows_per_tenant=*/4);
    const std::uint64_t cap = f.kv->capBlocks(0);
    ASSERT_GE(cap, 1u);
    const KvSeqId s = f.kv->createSeq(0);
    ASSERT_TRUE(f.kv->reserve(s, cap * f.kv->blockTokens()));
    const std::uint64_t before = f.kv->blocksAllocated();

    const KvSeqId s2 = f.kv->createSeq(0);
    EXPECT_FALSE(f.kv->reserve(s2, 2 * f.kv->blockTokens()));
    // Failure must be side-effect free: nothing allocated or resident.
    EXPECT_EQ(f.kv->blocksAllocated(), before);
    EXPECT_EQ(f.kv->seqBlocks(s2), 0u);
    EXPECT_EQ(f.kv->allocFailures(), 1u);
    f.kv->release(s);
    f.kv->release(s2);
    f.kv->reconcile();
}

TEST(KvCache, PerTenantCapAndIsolation)
{
    KvFixture f(2, 64, {2, 0});
    EXPECT_EQ(f.kv->capBlocks(0), 2u);
    const KvSeqId a = f.kv->createSeq(0);
    EXPECT_TRUE(f.kv->reserve(a, 2 * f.kv->blockTokens()));
    EXPECT_FALSE(f.kv->reserve(a, 3 * f.kv->blockTokens()));
    // Tenant 1's partition is untouched by tenant 0's pressure.
    const KvSeqId b = f.kv->createSeq(1);
    EXPECT_TRUE(f.kv->reserve(b, 3 * f.kv->blockTokens()));
    EXPECT_EQ(f.kv->residentBlocks(0), 2u);
    EXPECT_EQ(f.kv->residentBlocks(1), 3u);
    f.kv->release(a);
    f.kv->release(b);
    f.kv->reconcile();
}

TEST(KvCacheDeathTest, DoubleReleaseAsserts)
{
    KvFixture f;
    const KvSeqId s = f.kv->createSeq(0);
    ASSERT_TRUE(f.kv->reserve(s, 1));
    f.kv->release(s);
    EXPECT_DEATH(f.kv->release(s), "");
}

TEST(KvCacheDeathTest, StaleIdOfAReusedSlotAsserts)
{
    KvFixture f;
    const KvSeqId stale = f.kv->createSeq(0);
    f.kv->release(stale);
    // The next sequence reuses the slot; the old id must not alias it.
    const KvSeqId fresh = f.kv->createSeq(0);
    ASSERT_EQ(fresh.slot, stale.slot);
    ASSERT_TRUE(f.kv->reserve(fresh, 1));
    EXPECT_DEATH(f.kv->reserve(stale, 1), "unknown KV sequence");
    EXPECT_DEATH(f.kv->release(stale), "unknown KV sequence");
    EXPECT_DEATH(f.kv->seqBlocks(stale), "unknown KV sequence");
    EXPECT_EQ(f.kv->seqBlocks(fresh), 1u);
    f.kv->release(fresh);
    f.kv->reconcile();
}

// ------------------------------------------------------------------
// Batcher invariants
// ------------------------------------------------------------------

LlmRequest
makeReq(std::uint64_t id, double arrival_ns, unsigned prompt,
        unsigned output)
{
    LlmRequest r;
    r.id = id;
    r.tenant = 0;
    r.promptTokens = prompt;
    r.outputTokens = output;
    r.arrivalNs = arrival_ns;
    return r;
}

TEST(Batcher, JoinLeaveLedgerReconciles)
{
    KvFixture f;
    BatcherConfig cfg;
    cfg.maxBatch = 2;
    ContinuousBatcher b(cfg, *f.kv);
    ASSERT_TRUE(b.admit(makeReq(1, 0.0, 8, 2)));
    ASSERT_TRUE(b.admit(makeReq(2, 1.0, 8, 3)));
    ASSERT_TRUE(b.admit(makeReq(3, 2.0, 8, 1))); // waits for a slot

    std::vector<LlmRequest> joined;
    ASSERT_TRUE(b.beginIteration(10.0, joined));
    EXPECT_EQ(joined.size(), 2u); // maxBatch caps the join
    EXPECT_EQ(b.runningSize(), 2u);
    b.reconcile();

    // Drive to quiescence; ledger must reconcile at every boundary.
    double now = 10.0;
    while (!b.idle()) {
        b.finishIteration(now += 1.0);
        b.reconcile();
        b.beginIteration(now, joined);
    }
    EXPECT_EQ(b.joins(), 3u);
    EXPECT_EQ(b.leavesCompleted(), 3u);
    EXPECT_EQ(f.kv->liveSeqs(), 0u);
    f.kv->reconcile();
}

TEST(Batcher, AdmitOnceRefillsOnlyWhenEmpty)
{
    KvFixture f;
    BatcherConfig cfg;
    cfg.policy = BatchPolicy::AdmitOnce;
    cfg.maxBatch = 4;
    ContinuousBatcher b(cfg, *f.kv);
    ASSERT_TRUE(b.admit(makeReq(1, 0.0, 8, 3)));

    std::vector<LlmRequest> joined;
    ASSERT_TRUE(b.beginIteration(0.0, joined));
    EXPECT_EQ(b.runningSize(), 1u);

    // A later arrival must wait for the wave to drain.
    ASSERT_TRUE(b.admit(makeReq(2, 1.0, 8, 1)));
    b.finishIteration(1.0);
    ASSERT_TRUE(b.beginIteration(1.0, joined));
    EXPECT_TRUE(joined.empty());
    EXPECT_EQ(b.runningSize(), 1u);

    b.finishIteration(2.0);
    b.finishIteration(3.0); // request 1 done (3 tokens)
    ASSERT_TRUE(b.beginIteration(3.0, joined));
    EXPECT_EQ(joined.size(), 1u);
    EXPECT_EQ(joined[0].id, 2u);
    b.finishIteration(4.0);
    EXPECT_TRUE(b.idle());
    f.kv->reconcile();
}

TEST(Batcher, AdmitOncePadsWaveToLongestMember)
{
    KvFixture f;
    BatcherConfig cfg;
    cfg.policy = BatchPolicy::AdmitOnce;
    cfg.maxBatch = 4;
    ContinuousBatcher b(cfg, *f.kv);
    ASSERT_TRUE(b.admit(makeReq(1, 0.0, 8, 1)));
    ASSERT_TRUE(b.admit(makeReq(2, 1.0, 8, 4)));

    std::vector<LlmRequest> joined;
    ASSERT_TRUE(b.beginIteration(0.0, joined));
    EXPECT_EQ(b.costBatch(), 2u);
    b.finishIteration(1.0); // request 1 leaves...
    EXPECT_EQ(b.runningSize(), 1u);
    EXPECT_EQ(b.costBatch(), 2u); // ...but its slot stays padded
    ASSERT_TRUE(b.beginIteration(1.0, joined));
    EXPECT_EQ(b.costBatch(), 2u);
    for (double t = 2.0; !b.idle(); t += 1.0) {
        b.finishIteration(t);
        b.beginIteration(t, joined);
    }
    EXPECT_EQ(b.costBatch(), 0u); // wave drained, padding released
    f.kv->reconcile();
}

TEST(Batcher, ContinuousCostBatchTracksLiveBatch)
{
    KvFixture f;
    BatcherConfig cfg;
    cfg.maxBatch = 4;
    ContinuousBatcher b(cfg, *f.kv);
    ASSERT_TRUE(b.admit(makeReq(1, 0.0, 8, 1)));
    ASSERT_TRUE(b.admit(makeReq(2, 1.0, 8, 3)));
    std::vector<LlmRequest> joined;
    ASSERT_TRUE(b.beginIteration(0.0, joined));
    EXPECT_EQ(b.costBatch(), 2u);
    b.finishIteration(1.0); // request 1 leaves, slot reclaimed
    EXPECT_EQ(b.costBatch(), 1u);
    for (double t = 1.0; !b.idle(); t += 1.0) {
        b.beginIteration(t, joined);
        b.finishIteration(t + 0.5);
    }
    f.kv->reconcile();
}

TEST(Batcher, PreemptionIsStarvationFree)
{
    // A partition so tight that running requests fight for blocks:
    // sustained churn must still complete every request, and the oldest
    // must never lose its seat to a younger one.
    KvFixture f(1, /*rows_per_tenant=*/3 * 8); // few blocks
    const std::uint64_t cap = f.kv->capBlocks(0);
    ASSERT_GE(cap, 3u) << "fixture too tight to seat two requests";

    BatcherConfig cfg;
    cfg.maxBatch = 4;
    cfg.maxQueue = 64;
    ContinuousBatcher b(cfg, *f.kv);

    // Each request alone fits (feasibility), but two growing together
    // exhaust the pool and force evict-and-requeue.
    const unsigned bt = f.kv->blockTokens();
    const unsigned prompt = static_cast<unsigned>((cap / 2) * bt);
    const unsigned output = static_cast<unsigned>((cap / 2) * bt);
    ASSERT_LE(f.kv->blocksFor(prompt + output), cap);
    for (std::uint64_t id = 1; id <= 6; ++id)
        ASSERT_TRUE(b.admit(makeReq(id, static_cast<double>(id), prompt,
                                    output)));

    std::set<std::uint64_t> completed;
    double now = 10.0;
    std::vector<LlmRequest> joined;
    unsigned iterations = 0;
    while (!b.idle()) {
        ASSERT_LT(++iterations, 10'000u) << "batcher livelocked";
        ASSERT_TRUE(b.beginIteration(now, joined));
        // Starvation-freedom: the oldest unfinished request is seated.
        std::uint64_t oldest_waiting = ~0ULL;
        for (const LlmRequest &r : b.running())
            oldest_waiting = std::min(oldest_waiting, r.id);
        for (std::uint64_t id = 1; id <= 6; ++id)
            if (completed.count(id) == 0) {
                EXPECT_EQ(oldest_waiting, id)
                    << "oldest live request not running";
                break;
            }
        for (const LlmRequest &r : b.finishIteration(now += 1.0))
            completed.insert(r.id);
        b.reconcile();
        f.kv->reconcile();
    }
    EXPECT_EQ(completed.size(), 6u);
    EXPECT_GT(b.leavesPreempted(), 0u) << "fixture never forced churn";
    EXPECT_EQ(f.kv->liveSeqs(), 0u);
    EXPECT_EQ(f.kv->blocksAllocated(), f.kv->blocksFreed());
}

// ------------------------------------------------------------------
// Engine: deadlines, determinism, conservation
// ------------------------------------------------------------------

TEST(LlmEngine, CompletesAndReconciles)
{
    LlmEngine engine(smallConfig());
    ASSERT_TRUE(engine.submit(0, 0.0, 16, 4));
    ASSERT_TRUE(engine.submit(0, 100.0, 16, 8));
    engine.drain();
    const LlmReport r = engine.report();
    r.reconcile();
    EXPECT_EQ(r.total.submitted, 2u);
    EXPECT_EQ(r.total.completed, 2u);
    EXPECT_EQ(r.total.tokensOut, 12u);
    EXPECT_EQ(r.kvBlocksAllocated, r.kvBlocksFreed);
    EXPECT_GE(r.iterations, 8u); // at least one per output token
    const auto done = engine.takeCompletions();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_GT(done[0].firstTokenNs, 0.0);
    EXPECT_GE(done[0].completeNs, done[0].firstTokenNs);
}

TEST(LlmEngine, ConstructionMeasuresNothing)
{
    const LlmEngineConfig cfg = smallConfig();
    LlmEngine engine(cfg);
    EXPECT_EQ(cfg.timingCache->size(), 0u);
}

TEST(LlmEngine, RejectsInfeasibleRequests)
{
    LlmEngineConfig cfg = smallConfig();
    LlmEngine engine(cfg);
    // Beyond the context limit: cannot ever be seated.
    EXPECT_FALSE(
        engine.submit(0, 0.0, cfg.decoder.maxContextTokens, 1024));
    const LlmReport r = engine.report();
    EXPECT_EQ(r.total.rejected, 1u);
    r.reconcile();
}

TEST(LlmEngine, DeadlineShedsAndTimesOut)
{
    LlmEngineConfig cfg = smallConfig();
    cfg.tenants = {LlmTenantSpec{"slo", 1.0, 0}}; // 1 ns: hopeless
    LlmEngine engine(cfg);
    EXPECT_FALSE(engine.submit(0, 0.0, 16, 4)); // shed at admission
    LlmReport r = engine.report();
    EXPECT_EQ(r.total.shed, 1u);
    r.reconcile();

    // With admission shedding off, a doomed request queued behind a
    // long-running wave must time out instead of burning decode work.
    LlmEngineConfig cfg3 = smallConfig();
    cfg3.tenants = {LlmTenantSpec{"slo", 1.0, 0},
                    LlmTenantSpec{"free", 0.0, 0}};
    cfg3.deadlineAdmission = false;
    cfg3.batcher.policy = BatchPolicy::AdmitOnce; // no mid-wave joins
    LlmEngine e3(cfg3);
    ASSERT_TRUE(e3.submit(1, 0.0, 16, 64)); // seated immediately
    ASSERT_TRUE(e3.submit(0, 1.0, 16, 4));  // queued, deadline 2 ns
    e3.drain();
    LlmReport r3 = e3.report();
    EXPECT_EQ(r3.tenants[0].timedOut, 1u);
    EXPECT_EQ(r3.tenants[1].completed, 1u);
    r3.reconcile();
}

TEST(LlmEngine, SameSeedReplayIsBitIdentical)
{
    LlmTrafficSpec traffic;
    traffic.tenant = 0;
    traffic.ratePerSec = 2000.0;
    traffic.prompt = serve::LengthConfig{32.0, 0.5, 4, 128};
    traffic.output = serve::LengthConfig{16.0, 0.5, 2, 64};
    const auto arrivals = drawLlmTrace({traffic}, 50e6, 42);
    ASSERT_GT(arrivals.size(), 10u);

    const auto run = [&] {
        LlmEngine engine(smallConfig());
        return runOpenLoop(engine, arrivals);
    };
    const LlmReport a = run();
    const LlmReport b = run();
    EXPECT_EQ(a.total.completed, b.total.completed);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.total.tokensOut, b.total.tokensOut);
    EXPECT_EQ(a.kvBlocksAllocated, b.kvBlocksAllocated);
    EXPECT_EQ(a.horizonNs, b.horizonNs); // bit-identical virtual time
    EXPECT_EQ(a.total.e2e.p99Ns, b.total.e2e.p99Ns);
}

TEST(LlmEngine, FaultedIterationsWasteWorkButConserveKv)
{
    serve::ChaosConfig chaos_cfg;
    chaos_cfg.faultsPerSec = 2000.0; // virtual-seconds scale
    chaos_cfg.seed = 7;
    serve::ChaosCampaign chaos(chaos_cfg, 1);

    LlmEngine engine(smallConfig());
    engine.setFaultModel(&chaos);
    ASSERT_TRUE(engine.submit(0, 0.0, 16, 32));
    engine.drain();
    const LlmReport r = engine.report();
    r.reconcile();
    EXPECT_EQ(r.total.completed, 1u);
    // A faulted iteration re-runs the batch: iterations exceed tokens.
    EXPECT_GT(r.faultedIterations, 0u);
    EXPECT_GT(r.iterations, 32u);
    EXPECT_EQ(r.kvBlocksAllocated, r.kvBlocksFreed);
}

TEST(LlmEngine, TotalLatenciesArePooledAcrossTenants)
{
    // Two tenants with short and long answers: the total is the summary
    // of every completion pooled into one histogram of the engine's
    // shape (not zeros, not a max over the tenants).
    LlmEngineConfig cfg = smallConfig();
    cfg.tenants = {LlmTenantSpec{"short", 0.0, 0},
                   LlmTenantSpec{"long", 0.0, 0}};
    LlmEngine engine(cfg);
    for (unsigned i = 0; i < 12; ++i) {
        ASSERT_TRUE(engine.submit(i % 2, i * 200'000.0, 16,
                                  i % 2 == 0 ? 4 : 48));
    }
    engine.drain();

    const Histogram &shape = engine.e2eHistogram(0);
    Histogram ttft(shape.bucketWidth(), shape.buckets().size());
    Histogram per_token = ttft, e2e = ttft;
    for (const LlmRequest &r : engine.takeCompletions()) {
        const double lat = std::max(0.0, r.completeNs - r.arrivalNs);
        ttft.sample(static_cast<std::uint64_t>(
            std::max(0.0, r.firstTokenNs - r.arrivalNs)));
        per_token.sample(static_cast<std::uint64_t>(
            lat / std::max(1u, r.outputTokens)));
        e2e.sample(static_cast<std::uint64_t>(lat));
    }
    const LlmReport report = engine.report();
    ASSERT_EQ(e2e.count(), report.total.completed);
    ASSERT_EQ(report.total.completed, 12u);
    const auto expect_pooled = [](const serve::LatencySummary &got,
                                  const Histogram &want, const char *what) {
        EXPECT_GT(got.meanNs, 0.0) << what;
        EXPECT_GT(got.p50Ns, 0.0) << what;
        EXPECT_GT(got.p95Ns, 0.0) << what;
        EXPECT_EQ(got.meanNs, want.mean()) << what;
        EXPECT_EQ(got.p50Ns, want.p50()) << what;
        EXPECT_EQ(got.p95Ns, want.p95()) << what;
        EXPECT_EQ(got.p99Ns, want.p99()) << what;
        EXPECT_EQ(got.maxNs, static_cast<double>(want.max())) << what;
    };
    expect_pooled(report.total.ttft, ttft, "ttft");
    expect_pooled(report.total.perToken, per_token, "perToken");
    expect_pooled(report.total.e2e, e2e, "e2e");
}

TEST(LlmEngine, ContinuousBeatsAdmitOnceTtftUnderConcurrency)
{
    // Two staggered requests: under AdmitOnce the second waits for the
    // whole first wave; under Continuous it joins the next iteration.
    const auto ttft = [](BatchPolicy policy) {
        LlmEngine engine(smallConfig(policy));
        EXPECT_TRUE(engine.submit(0, 0.0, 16, 64));
        EXPECT_TRUE(engine.submit(0, 1.0, 16, 4));
        engine.drain();
        double second_ttft = 0.0;
        for (const LlmRequest &r : engine.takeCompletions())
            if (r.arrivalNs > 0.0)
                second_ttft = r.firstTokenNs - r.arrivalNs;
        return second_ttft;
    };
    EXPECT_LT(ttft(BatchPolicy::Continuous),
              ttft(BatchPolicy::AdmitOnce));
}

} // namespace
} // namespace pimsim::llm
