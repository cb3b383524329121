/**
 * @file
 * Serving-layer tests: admission control, batching schedulers, fair
 * share, channel/row sharding isolation, and deterministic replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <set>

#include "common/rng.h"

#include "serve/load_gen.h"
#include "serve/request_ledger.h"
#include "serve/request_queue.h"
#include "serve/scheduler.h"
#include "serve/service_model.h"
#include "serve/serving_engine.h"
#include "serve/shard.h"
#include "stack/workloads.h"

namespace pimsim::serve {
namespace {

SystemConfig
smallSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 channels keeps tests fast
    c.geometry.rowsPerBank = 512;
    return c;
}

/** One small FC layer: a real PIM GEMV, but cheap to simulate. */
AppSpec
tinyApp(const std::string &name, unsigned dim = 256)
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

ServeRequest
req(std::uint64_t id, unsigned tenant, double arrival_ns = 0.0)
{
    ServeRequest r;
    r.id = id;
    r.tenant = tenant;
    r.arrivalNs = arrival_ns;
    return r;
}

// ------------------------------------------------------------------
// Admission queue
// ------------------------------------------------------------------

TEST(RequestQueue, RejectsWhenFull)
{
    QueueConfig config;
    config.depth = 4;
    config.perTenantDepth = 2;
    RequestQueue q(config, 2);

    EXPECT_TRUE(q.tryPush(req(0, 0)));
    EXPECT_TRUE(q.tryPush(req(1, 0)));
    EXPECT_FALSE(q.tryPush(req(2, 0))); // per-tenant bound
    EXPECT_TRUE(q.tryPush(req(3, 1)));
    EXPECT_TRUE(q.tryPush(req(4, 1)));
    EXPECT_FALSE(q.tryPush(req(5, 1))); // per-tenant bound again

    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.admitted(0), 2u);
    EXPECT_EQ(q.rejected(0), 1u);
    EXPECT_EQ(q.admitted(1), 2u);
    EXPECT_EQ(q.rejected(1), 1u);

    // Draining tenant 0 reopens its per-tenant and global slots.
    q.popFront(0);
    q.popFront(0);
    EXPECT_TRUE(q.tryPush(req(6, 0)));
}

TEST(RequestQueue, GlobalDepthBindsAcrossTenants)
{
    QueueConfig config;
    config.depth = 3;
    RequestQueue q(config, 2);
    EXPECT_TRUE(q.tryPush(req(0, 0)));
    EXPECT_TRUE(q.tryPush(req(1, 0)));
    EXPECT_TRUE(q.tryPush(req(2, 1)));
    EXPECT_FALSE(q.tryPush(req(3, 1))); // global depth
    EXPECT_EQ(q.rejected(1), 1u);
}

TEST(RequestQueue, OldestTenantHonoursEligibility)
{
    RequestQueue q(QueueConfig{}, 3);
    EXPECT_TRUE(q.tryPush(req(0, 2)));
    EXPECT_TRUE(q.tryPush(req(1, 0)));

    EXPECT_EQ(q.oldestTenant({0, 1, 2}).value(), 2u);
    EXPECT_EQ(q.oldestTenant({0, 1}).value(), 0u);
    EXPECT_FALSE(q.oldestTenant({1}).has_value());
}

/**
 * Seeded push/pop stream against a std::deque model of each tenant's
 * FIFO: the ring must grow, wrap around and enforce both bounds exactly
 * as the deque it replaced did.
 */
void
checkQueueAgainstDequeModel(const QueueConfig &config, unsigned tenants,
                            std::uint64_t seed, unsigned ops)
{
    RequestQueue q(config, tenants);
    std::vector<std::deque<std::uint64_t>> model(tenants);
    std::vector<std::uint64_t> admitted(tenants, 0);
    std::vector<std::uint64_t> rejected(tenants, 0);
    std::size_t total = 0;
    std::uint64_t next_id = 0;
    Rng rng(seed);

    for (unsigned op = 0; op < ops; ++op) {
        const unsigned t = static_cast<unsigned>(rng.nextBelow(tenants));
        // Phases of push-heavy and pop-heavy traffic, so queues fill to
        // their bounds, drain, and refill with the ring's head anywhere.
        const bool push_heavy = (op / 64) % 2 == 0;
        const bool push = rng.nextBelow(4) < (push_heavy ? 3u : 1u);
        if (push) {
            const std::uint64_t id = next_id++;
            const bool fits =
                total < config.depth &&
                (config.perTenantDepth == 0 ||
                 model[t].size() < config.perTenantDepth);
            ASSERT_EQ(q.tryPush(req(id, t, static_cast<double>(op))), fits)
                << "op " << op;
            if (fits) {
                model[t].push_back(id);
                ++admitted[t];
                ++total;
            } else {
                ++rejected[t];
            }
        } else if (!model[t].empty()) {
            const ServeRequest r = q.popFront(t);
            EXPECT_EQ(r.id, model[t].front()) << "op " << op;
            EXPECT_EQ(r.tenant, t);
            model[t].pop_front();
            --total;
        }

        ASSERT_EQ(q.size(), total) << "op " << op;
        EXPECT_EQ(q.empty(), total == 0);
        for (unsigned u = 0; u < tenants; ++u) {
            ASSERT_EQ(q.sizeForTenant(u), model[u].size()) << "op " << op;
            const ServeRequest *head = q.front(u);
            if (model[u].empty()) {
                EXPECT_EQ(head, nullptr);
            } else {
                ASSERT_NE(head, nullptr);
                EXPECT_EQ(head->id, model[u].front()) << "op " << op;
                EXPECT_EQ(head->tenant, u);
            }
            EXPECT_EQ(q.admitted(u), admitted[u]);
            EXPECT_EQ(q.rejected(u), rejected[u]);
        }
    }
    // Drain everything in order.
    for (unsigned u = 0; u < tenants; ++u) {
        while (!model[u].empty()) {
            EXPECT_EQ(q.popFront(u).id, model[u].front());
            model[u].pop_front();
        }
    }
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, RingMatchesDequeModelUnderGlobalBound)
{
    checkQueueAgainstDequeModel(QueueConfig{7, 0}, 1, 1, 4000);
    checkQueueAgainstDequeModel(QueueConfig{128, 0}, 3, 2, 4000);
}

TEST(RequestQueue, RingMatchesDequeModelUnderPerTenantBound)
{
    checkQueueAgainstDequeModel(QueueConfig{64, 5}, 4, 3, 4000);
    // A per-tenant bound looser than the global one never binds.
    checkQueueAgainstDequeModel(QueueConfig{3, 10}, 2, 4, 4000);
    // Non-power-of-two bounds cap the ring's growth mid-doubling.
    checkQueueAgainstDequeModel(QueueConfig{1000, 37}, 2, 5, 8000);
}

TEST(RequestQueue, ZeroDepthRejectsEverything)
{
    RequestQueue q(QueueConfig{0, 0}, 2);
    EXPECT_FALSE(q.tryPush(req(0, 0)));
    EXPECT_FALSE(q.tryPush(req(1, 1)));
    EXPECT_EQ(q.rejected(0), 1u);
    EXPECT_EQ(q.rejected(1), 1u);
    EXPECT_EQ(q.front(0), nullptr);
    EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------------------
// Schedulers (unit level, no device)
// ------------------------------------------------------------------

TEST(Scheduler, FcfsPicksOldestAcrossTenantsBatchOne)
{
    RequestQueue q(QueueConfig{}, 2);
    EXPECT_TRUE(q.tryPush(req(0, 1)));
    EXPECT_TRUE(q.tryPush(req(1, 0)));

    auto sched = Scheduler::make(SchedulerConfig{}, {1.0, 1.0});
    Batch batch;
    ASSERT_TRUE(sched->pick(q, {0, 1}, 0.0, batch));
    EXPECT_EQ(batch.tenant, 1u);
    EXPECT_EQ(batch.size(), 1u);

    ASSERT_TRUE(sched->pick(q, {0, 1}, 0.0, batch));
    EXPECT_EQ(batch.tenant, 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(sched->pick(q, {0, 1}, 0.0, batch));
}

TEST(Scheduler, BatchTimeoutWaitsForCompanionsThenFlushes)
{
    SchedulerConfig config;
    config.policy = SchedPolicy::BatchTimeout;
    config.maxBatch = 4;
    config.batchTimeoutNs = 1000.0;
    auto sched = Scheduler::make(config, {1.0});

    RequestQueue q(QueueConfig{}, 1);
    EXPECT_TRUE(q.tryPush(req(0, 0, 0.0)));
    EXPECT_TRUE(q.tryPush(req(1, 0, 10.0)));

    // Two of four queued, head not timed out: hold.
    Batch batch;
    EXPECT_FALSE(sched->pick(q, {0}, 500.0, batch));
    EXPECT_DOUBLE_EQ(sched->nextReadyNs(q, {0}, 500.0), 1000.0);

    // Head timed out: flush the partial batch.
    ASSERT_TRUE(sched->pick(q, {0}, 1000.0, batch));
    EXPECT_EQ(batch.size(), 2u);

    // A full batch dispatches immediately, no timeout wait.
    for (std::uint64_t i = 0; i < 5; ++i)
        EXPECT_TRUE(q.tryPush(req(10 + i, 0, 2000.0)));
    ASSERT_TRUE(sched->pick(q, {0}, 2000.0, batch));
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(Scheduler, FairShareTracksWeightedServedTime)
{
    SchedulerConfig config;
    config.policy = SchedPolicy::FairShare;
    config.maxBatch = 1;
    auto sched = Scheduler::make(config, {3.0, 1.0});

    RequestQueue q(QueueConfig{1000, 0}, 2);
    std::uint64_t id = 0;
    for (unsigned i = 0; i < 100; ++i) {
        EXPECT_TRUE(q.tryPush(req(id++, 0)));
        EXPECT_TRUE(q.tryPush(req(id++, 1)));
    }

    // Saturated queue, equal per-dispatch cost: dispatch counts must
    // follow the 3:1 weights exactly.
    unsigned dispatched[2] = {0, 0};
    for (unsigned i = 0; i < 80; ++i) {
        Batch batch;
        ASSERT_TRUE(sched->pick(q, {0, 1}, 0.0, batch));
        sched->onDispatched(batch, 1000.0);
        ++dispatched[batch.tenant];
    }
    EXPECT_EQ(dispatched[0], 60u);
    EXPECT_EQ(dispatched[1], 20u);
}

TEST(Scheduler, FairShareIsWorkConserving)
{
    SchedulerConfig config;
    config.policy = SchedPolicy::FairShare;
    config.maxBatch = 2;
    auto sched = Scheduler::make(config, {8.0, 1.0});

    // Only the light tenant has work: it must still dispatch.
    RequestQueue q(QueueConfig{}, 2);
    EXPECT_TRUE(q.tryPush(req(0, 1)));
    Batch batch;
    ASSERT_TRUE(sched->pick(q, {0, 1}, 0.0, batch));
    EXPECT_EQ(batch.tenant, 1u);
}

TEST(Scheduler, FairSharePadsMissingWeightsWithDefault)
{
    SchedulerConfig config;
    config.policy = SchedPolicy::FairShare;
    config.maxBatch = 1;
    // Fewer weights than tenants: tenants 1 and 2 must behave as
    // weight-1.0 tenants instead of indexing past the weight arrays
    // (this read out of bounds before the lazy-padding fix).
    auto sched = Scheduler::make(config, {2.0});

    RequestQueue q(QueueConfig{1000, 0}, 3);
    std::uint64_t id = 0;
    for (unsigned i = 0; i < 40; ++i)
        for (unsigned t = 0; t < 3; ++t)
            EXPECT_TRUE(q.tryPush(req(id++, t)));

    unsigned dispatched[3] = {0, 0, 0};
    for (unsigned i = 0; i < 40; ++i) {
        Batch batch;
        ASSERT_TRUE(sched->pick(q, {0, 1, 2}, 0.0, batch));
        sched->onDispatched(batch, 1000.0);
        ++dispatched[batch.tenant];
    }
    // 2:1:1 effective weights over 40 equal-cost dispatches.
    EXPECT_EQ(dispatched[0], 20u);
    EXPECT_EQ(dispatched[1], 10u);
    EXPECT_EQ(dispatched[2], 10u);
}

TEST(Scheduler, FairShareHandlesEmptyWeightVector)
{
    SchedulerConfig config;
    config.policy = SchedPolicy::FairShare;
    config.maxBatch = 1;
    auto sched = Scheduler::make(config, {});

    RequestQueue q(QueueConfig{}, 2);
    EXPECT_TRUE(q.tryPush(req(0, 1)));
    Batch batch;
    ASSERT_TRUE(sched->pick(q, {0, 1}, 0.0, batch));
    EXPECT_EQ(batch.tenant, 1u);
    sched->onDispatched(batch, 500.0);
}

// ------------------------------------------------------------------
// Shard plan
// ------------------------------------------------------------------

TEST(ShardPlan, EqualWeightsSplitChannelsAndRowsDisjointly)
{
    const ShardPlan plan = ShardPlan::sharded(16, 400, {1.0, 1.0});
    ASSERT_EQ(plan.numShards(), 2u);
    EXPECT_TRUE(plan.isSharded());

    const ShardSpec &a = plan.shard(plan.shardOf(0));
    const ShardSpec &b = plan.shard(plan.shardOf(1));
    EXPECT_EQ(a.numChannels, 8u);
    EXPECT_EQ(b.numChannels, 8u);
    EXPECT_EQ(a.firstChannel + a.numChannels, b.firstChannel);
    EXPECT_EQ(a.numRows + b.numRows, 400u);
    EXPECT_EQ(a.firstRow + a.numRows, b.firstRow);
}

TEST(ShardPlan, SkewedWeightsRoundChannelsToPowerOfTwo)
{
    const ShardPlan plan = ShardPlan::sharded(16, 400, {3.0, 1.0});
    const ShardSpec &heavy = plan.shard(plan.shardOf(0));
    const ShardSpec &light = plan.shard(plan.shardOf(1));
    EXPECT_EQ(heavy.numChannels, 8u); // floorPow2(12)
    EXPECT_EQ(light.numChannels, 4u); // floorPow2(4)
    EXPECT_EQ(heavy.numRows, 300u);
    EXPECT_EQ(light.numRows, 100u);
}

TEST(ShardPlan, TenantListsAreBuiltOnceAndSurviveQuarantine)
{
    ShardPlan shared = ShardPlan::shared(16, 400, 3);
    ASSERT_EQ(shared.numShards(), 1u);
    EXPECT_EQ(shared.tenantsOf(0), (std::vector<unsigned>{0, 1, 2}));

    ShardPlan sharded = ShardPlan::sharded(16, 400, {1.0, 2.0, 1.0});
    ASSERT_EQ(sharded.numShards(), 3u);
    for (unsigned t = 0; t < 3; ++t) {
        EXPECT_EQ(sharded.tenantsOf(sharded.shardOf(t)),
                  (std::vector<unsigned>{t}));
    }

    // Withdrawing and restoring channels changes capacity, never the
    // tenant -> shard map: the same lists, at the same addresses.
    const std::vector<unsigned> *shared_list = &shared.tenantsOf(0);
    const std::vector<unsigned> *sharded_list = &sharded.tenantsOf(1);
    for (ShardPlan *plan : {&shared, &sharded}) {
        plan->quarantineChannel(5);
        plan->quarantineChannel(0);
    }
    EXPECT_EQ(sharded.activeChannelsOf(sharded.shardOf(1)), 7u);
    EXPECT_EQ(&shared.tenantsOf(0), shared_list);
    EXPECT_EQ(&sharded.tenantsOf(1), sharded_list);
    EXPECT_EQ(shared.tenantsOf(0), (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(sharded.tenantsOf(1), (std::vector<unsigned>{1}));
    for (ShardPlan *plan : {&shared, &sharded}) {
        plan->restoreChannel(5);
        plan->restoreChannel(0);
    }
    EXPECT_EQ(shared.tenantsOf(0), (std::vector<unsigned>{0, 1, 2}));
    for (unsigned t = 0; t < 3; ++t) {
        EXPECT_EQ(sharded.tenantsOf(sharded.shardOf(t)),
                  (std::vector<unsigned>{t}));
    }
}

// ------------------------------------------------------------------
// Engine end to end
// ------------------------------------------------------------------

ServeConfig
oneTenantConfig()
{
    ServeConfig config;
    config.system = smallSystem();
    config.tenants = {TenantSpec{"a", tinyApp("tiny-a"), 1.0}};
    return config;
}

TEST(ServingEngine, SingleRequestCompletesWithServiceLatency)
{
    ServingEngine engine(oneTenantConfig());
    EXPECT_TRUE(engine.submit(0, 0.0));
    engine.drain();

    const auto done = engine.takeCompletions();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0].serviceNs(), 0.0);
    EXPECT_DOUBLE_EQ(done[0].queueNs(), 0.0);
    EXPECT_DOUBLE_EQ(done[0].latencyNs(), done[0].serviceNs());

    const ServeReport report = engine.report();
    EXPECT_EQ(report.total.completed, 1u);
    EXPECT_EQ(report.total.rejected, 0u);
    EXPECT_GT(report.total.service.p50Ns, 0.0);
    EXPECT_EQ(engine.system().serveStats().counter("tenant.a.completed"),
              1u);
}

TEST(ServingEngine, AdmissionRejectsBurstBeyondQueueDepth)
{
    ServeConfig config = oneTenantConfig();
    config.queue.depth = 4;
    ServingEngine engine(config);

    unsigned admitted = 0;
    for (unsigned i = 0; i < 10; ++i)
        admitted += engine.submit(0, 0.0) ? 1 : 0;
    // The first dispatches immediately, four queue, five bounce.
    EXPECT_EQ(admitted, 5u);
    engine.drain();

    const ServeReport report = engine.report();
    EXPECT_EQ(report.total.submitted, 10u);
    EXPECT_EQ(report.total.admitted, 5u);
    EXPECT_EQ(report.total.rejected, 5u);
    EXPECT_EQ(report.total.completed, 5u);
    EXPECT_EQ(engine.system().serveStats().counter("tenant.a.rejected"),
              5u);
}

ServeConfig
twoTenantConfig(bool sharded)
{
    ServeConfig config;
    config.system = smallSystem();
    config.tenants = {TenantSpec{"alpha", tinyApp("tiny-alpha"), 1.0},
                      TenantSpec{"beta", tinyApp("tiny-beta"), 1.0}};
    config.shardChannels = sharded;
    return config;
}

TEST(ServingEngine, ShardedDriversAreRowDisjointAndExhaustIndependently)
{
    ServingEngine engine(twoTenantConfig(true));
    ASSERT_TRUE(engine.plan().isSharded());

    PimDriver &a = engine.tenantDriver(0);
    PimDriver &b = engine.tenantDriver(1);

    // Disjoint row partitions covering distinct ranges.
    EXPECT_NE(&a, &b);
    const unsigned a_end = a.baseRow() + a.capacityRows();
    EXPECT_LE(a_end, b.baseRow());

    // Exhaust tenant a's partition entirely.
    PimRowBlock all{};
    ASSERT_EQ(a.allocRows(a.capacityRows(), all), PimStatus::Ok);
    EXPECT_GE(all.firstRow, a.baseRow());
    EXPECT_LE(all.firstRow + all.numRows, a_end);
    PimRowBlock more{};
    EXPECT_EQ(a.allocRows(1, more), PimStatus::OutOfRows);

    // Tenant b is untouched: full capacity still available, and every
    // block it hands out stays inside its own partition.
    EXPECT_EQ(b.freeRows(), b.capacityRows());
    PimRowBlock bb{};
    ASSERT_EQ(b.allocRows(8, bb), PimStatus::Ok);
    EXPECT_GE(bb.firstRow, b.baseRow());
    EXPECT_LT(bb.firstRow, b.baseRow() + b.capacityRows());
    EXPECT_GE(bb.firstRow, a_end); // never inside tenant a's shard
}

TEST(ServingEngine, ShardedChannelGroupsAreDisjoint)
{
    ServingEngine engine(twoTenantConfig(true));
    const ShardSpec &a = engine.plan().shard(engine.plan().shardOf(0));
    const ShardSpec &b = engine.plan().shard(engine.plan().shardOf(1));
    EXPECT_EQ(a.numChannels + b.numChannels, 16u);
    EXPECT_LE(a.firstChannel + a.numChannels, b.firstChannel);
}

TEST(ServingEngine, FairShareServesWeightedThroughputUnderSaturation)
{
    ServeConfig config = twoTenantConfig(false);
    config.tenants[0].weight = 3.0;
    config.tenants[1].weight = 1.0;
    config.sched.policy = SchedPolicy::FairShare;
    config.sched.maxBatch = 1;
    config.queue.depth = 1000;
    auto cache = std::make_shared<ServiceTimeCache>();
    config.timingCache = cache;
    ServingEngine engine(config);

    // Saturate: everything arrives up-front, the scheduler decides who
    // gets the device.
    for (unsigned i = 0; i < 40; ++i) {
        ASSERT_TRUE(engine.submit(0, 0.0));
        ASSERT_TRUE(engine.submit(1, 0.0));
    }
    // Stop mid-backlog: advance until ~half the work is done, then
    // compare served device time (the fair-share currency).
    engine.drain();

    const ServeReport report = engine.report();
    EXPECT_EQ(report.total.completed, 80u);
    // Both tenants run the same app, so served time per weight equal
    // means tenant 0 finished (nearly) 3x tenant 1's work before the
    // queues emptied; over the whole drain both complete everything,
    // so assert on queueing delay instead: the heavy tenant waited
    // less on average.
    const double wait0 = report.tenants[0].queue.meanNs;
    const double wait1 = report.tenants[1].queue.meanNs;
    EXPECT_LT(wait0, wait1);
    // And served-time accounting matches completions.
    EXPECT_GT(report.tenants[0].servedNs, 0.0);
    EXPECT_NEAR(report.tenants[0].servedNs, report.tenants[1].servedNs,
                report.tenants[0].servedNs * 0.05);
}

TEST(ServingEngine, DeterministicReplaySameSeedSameReport)
{
    const std::vector<ArrivalSpec> specs = {{0, 2000.0}, {1, 1000.0}};
    const double horizon = 5.0e7; // 50 ms
    const auto arrivals1 = poissonArrivals(specs, horizon, 42);
    const auto arrivals2 = poissonArrivals(specs, horizon, 42);
    ASSERT_EQ(arrivals1.size(), arrivals2.size());
    for (std::size_t i = 0; i < arrivals1.size(); ++i) {
        EXPECT_DOUBLE_EQ(arrivals1[i].ns, arrivals2[i].ns);
        EXPECT_EQ(arrivals1[i].tenant, arrivals2[i].tenant);
    }
    const auto arrivals3 = poissonArrivals(specs, horizon, 43);
    bool identical = arrivals1.size() == arrivals3.size();
    for (std::size_t i = 0; identical && i < arrivals1.size(); ++i)
        identical = arrivals1[i].ns == arrivals3[i].ns &&
                    arrivals1[i].tenant == arrivals3[i].tenant;
    EXPECT_FALSE(identical); // a different seed draws a different stream

    auto cache = std::make_shared<ServiceTimeCache>();
    ServeConfig config = twoTenantConfig(false);
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.timingCache = cache;

    ServingEngine engine1(config);
    const ServeReport r1 = runOpenLoop(engine1, arrivals1);
    ServingEngine engine2(config);
    const ServeReport r2 = runOpenLoop(engine2, arrivals2);

    EXPECT_DOUBLE_EQ(r1.horizonNs, r2.horizonNs);
    EXPECT_EQ(r1.total.completed, r2.total.completed);
    EXPECT_EQ(r1.total.rejected, r2.total.rejected);
    EXPECT_EQ(r1.total.batches, r2.total.batches);
    ASSERT_EQ(r1.tenants.size(), r2.tenants.size());
    for (std::size_t t = 0; t < r1.tenants.size(); ++t) {
        EXPECT_EQ(r1.tenants[t].completed, r2.tenants[t].completed);
        EXPECT_DOUBLE_EQ(r1.tenants[t].e2e.p50Ns, r2.tenants[t].e2e.p50Ns);
        EXPECT_DOUBLE_EQ(r1.tenants[t].e2e.p95Ns, r2.tenants[t].e2e.p95Ns);
        EXPECT_DOUBLE_EQ(r1.tenants[t].e2e.p99Ns, r2.tenants[t].e2e.p99Ns);
        EXPECT_DOUBLE_EQ(r1.tenants[t].throughputRps,
                         r2.tenants[t].throughputRps);
    }
}

TEST(ShardServiceModelDeathTest, RejectsNonMultipleChannelCount)
{
    // 24 channels on 16-pch stacks is neither a whole number of stacks
    // nor a single smaller stack; the old code truncated 24/16 to one
    // stack and silently modelled a 16-channel shard.
    EXPECT_DEATH(ShardServiceModel(smallSystem(), 24, nullptr),
                 "not a multiple of pchPerStack");
}

TEST(ShardServiceModel, WholeStackMultiplesRebuildTheStackSplit)
{
    // 32 channels on 16-pch stacks: exactly two stacks, nothing dropped.
    ShardServiceModel model(smallSystem(), 32, nullptr);
    EXPECT_GT(model.serviceNs(tinyApp("tiny-32"), 1), 0.0);
}

TEST(ServiceTimeCacheDeathTest, NameReusedForOtherLayersAsserts)
{
    // Two shapes under one name would share one memo entry, and the
    // second caller would silently be charged the first app's time.
    auto cache = std::make_shared<ServiceTimeCache>();
    ShardServiceModel model(smallSystem(), 16, cache);
    EXPECT_GT(model.serviceNs(tinyApp("dup", 256), 1), 0.0);
    EXPECT_DEATH(model.serviceNs(tinyApp("dup", 512), 1),
                 "already interned with different layers");
}

TEST(ServiceTimeCache, InterningMeasuresNothingAndIdsAreCacheWide)
{
    auto cache = std::make_shared<ServiceTimeCache>();
    SystemConfig hbm = smallSystem();
    hbm.kind = MemoryKind::Hbm;
    ShardServiceModel pim(smallSystem(), 16, cache);
    ShardServiceModel host(hbm, 16, cache);

    const auto id = pim.intern(tinyApp("tiny-a"));
    EXPECT_EQ(host.intern(tinyApp("tiny-a")), id);
    EXPECT_EQ(cache->intern(tinyApp("tiny-a")), id);
    EXPECT_NE(cache->intern(tinyApp("tiny-b")), id);
    EXPECT_EQ(cache->size(), 0u);

    EXPECT_EQ(pim.serviceNs(id, 2), pim.serviceNs(tinyApp("tiny-a"), 2));
    EXPECT_EQ(cache->size(), 1u);
}

TEST(ServiceTimeCache, PimAndHostModelsSharingACacheNeverAlias)
{
    // Same app, same batch, same channel count: only the memory kind
    // tells the PIM shard's entry from the host path's.
    SystemConfig hbm = smallSystem();
    hbm.kind = MemoryKind::Hbm;
    const AppSpec app = tinyApp("tiny-a");
    auto cache = std::make_shared<ServiceTimeCache>();
    ShardServiceModel pim(smallSystem(), 16, cache);
    ShardServiceModel host(hbm, 16, cache);

    const double host_ns = host.serviceNs(app, 1);
    const double pim_ns = pim.serviceNs(app, 1);
    EXPECT_EQ(cache->size(), 2u);
    EXPECT_NE(pim_ns, host_ns);
    EXPECT_EQ(pim_ns,
              ShardServiceModel(smallSystem(), 16, nullptr).serviceNs(app, 1));
    EXPECT_EQ(host_ns, ShardServiceModel(hbm, 16, nullptr).serviceNs(app, 1));
}

TEST(ShardServiceModel, HbmVariantMatchesTheHostOnlyRunner)
{
    // The host golden path: a model on the plain-HBM variant must time
    // an app exactly as an AppRunner without PIM BLAS on a fresh HBM
    // system. Host stream timings depend on the clock at which a stream
    // shape is first simulated, so the reference replays the model's
    // measurement order on one system.
    SystemConfig hbm = smallSystem();
    hbm.kind = MemoryKind::Hbm;
    ShardServiceModel model(hbm, hbm.numChannels(), nullptr);
    PimSystem system(hbm);
    HostModel host(system);
    AppRunner runner(host, nullptr);
    for (const AppSpec &app : {gnmtApp(), ds2App()}) {
        for (const unsigned batch : {1u, 2u, 4u, 8u}) {
            EXPECT_EQ(model.serviceNs(app, batch),
                      runner.runApp(app, batch).ns)
                << app.name << " batch " << batch;
        }
    }
}

TEST(ServingEngine, BatchingBeatsFcfsThroughputUnderSaturation)
{
    auto cache = std::make_shared<ServiceTimeCache>();

    // Calibrate: the per-request service time at batch 1.
    ShardServiceModel probe(smallSystem(), 16, cache);
    const double svc1 = probe.serviceNs(tinyApp("tiny-a"), 1);
    ASSERT_GT(svc1, 0.0);

    // Offer 2x the FCFS capacity for ~100 service times.
    const double rate = 2.0e9 / svc1;
    const double horizon = 100.0 * svc1;
    const auto arrivals =
        poissonArrivals({{0, rate}}, horizon, 7);

    ServeConfig fcfs;
    fcfs.system = smallSystem();
    fcfs.tenants = {TenantSpec{"a", tinyApp("tiny-a"), 1.0}};
    fcfs.timingCache = cache;
    fcfs.sched.policy = SchedPolicy::Fcfs;

    ServeConfig batched = fcfs;
    batched.sched.policy = SchedPolicy::BatchTimeout;
    batched.sched.maxBatch = 8;
    batched.sched.batchTimeoutNs = svc1;

    ServingEngine engineF(fcfs);
    const ServeReport rf = runOpenLoop(engineF, arrivals);
    ServingEngine engineB(batched);
    const ServeReport rb = runOpenLoop(engineB, arrivals);

    // Same offered load; batching amortises the kernel-launch overhead
    // so it must admit and complete more and sustain higher throughput.
    EXPECT_GT(rb.total.completed, rf.total.completed);
    EXPECT_LT(rb.total.rejected, rf.total.rejected);
    EXPECT_GT(rb.total.throughputRps, rf.total.throughputRps);
    EXPECT_LT(rb.total.batches, rb.total.completed); // real coalescing
}

TEST(ServingEngine, ClosedLoopCompletesExactlyTheRequestedCount)
{
    ServeConfig config = twoTenantConfig(false);
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.queue.depth = 64;
    auto cache = std::make_shared<ServiceTimeCache>();
    config.timingCache = cache;
    ServingEngine engine(config);

    const ServeReport report = runClosedLoop(engine, 4, 20, 0.0);
    EXPECT_EQ(report.total.completed, 40u);
    EXPECT_EQ(report.total.rejected, 0u);
    EXPECT_EQ(report.tenants[0].completed, 20u);
    EXPECT_EQ(report.tenants[1].completed, 20u);
}

/** Fails the first `n` PIM batches it is asked about. */
class FailFirstBatches : public FaultModel
{
  public:
    explicit FailFirstBatches(unsigned n) : left_(n) {}

    unsigned faultEvents(unsigned, double, double) override
    {
        if (left_ == 0)
            return 0;
        --left_;
        return 1;
    }

  private:
    unsigned left_;
};

/** Fails about one PIM batch in three, keyed on (shard, start time). */
class HashedFaults : public FaultModel
{
  public:
    unsigned faultEvents(unsigned shard, double start_ns, double) override
    {
        SplitMix64 mix(std::bit_cast<std::uint64_t>(start_ns) ^ shard);
        return mix.next() % 3 == 0 ? 1u : 0u;
    }
};

TEST(ServingEngine, RetriedBatchKeepsItsRequestsWhileTheServerRecycles)
{
    ServeConfig config = oneTenantConfig();
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.sched.maxBatch = 4;
    config.retry.maxRetries = 3;
    // Back off long enough that a fresh batch forms in the server's
    // recycled buffer and completes before the retry runs.
    config.retry.baseBackoffNs = 1e9;
    config.retry.maxBackoffNs = 1e9;
    config.retry.jitterFrac = 0.0;
    ServingEngine engine(config);
    FailFirstBatches faults(1);
    engine.setFaultModel(&faults);

    // Ids 0..3 fill the first batch; 4..7 wait behind it.
    for (unsigned i = 0; i < 8; ++i)
        ASSERT_TRUE(engine.submit(0, 0.0));
    engine.drain();

    const auto done = engine.takeCompletions();
    ASSERT_EQ(done.size(), 8u);
    std::map<std::uint64_t, const ServeRequest *> by_id;
    for (const ServeRequest &r : done)
        EXPECT_TRUE(by_id.emplace(r.id, &r).second) << "id " << r.id;
    ASSERT_EQ(by_id.size(), 8u);
    EXPECT_EQ(by_id.begin()->first, 0u);
    EXPECT_EQ(by_id.rbegin()->first, 7u);

    // The failed batch retried whole: ids 0..3, second attempt, one
    // dispatch. The batch formed after the failure holds 4..7 only.
    const double retry_dispatch = by_id[0]->dispatchNs;
    const double next_dispatch = by_id[4]->dispatchNs;
    for (std::uint64_t id = 0; id < 4; ++id) {
        EXPECT_EQ(by_id[id]->attempts, 2u) << "id " << id;
        EXPECT_EQ(by_id[id]->dispatchNs, retry_dispatch) << "id " << id;
    }
    for (std::uint64_t id = 4; id < 8; ++id) {
        EXPECT_EQ(by_id[id]->attempts, 1u) << "id " << id;
        EXPECT_EQ(by_id[id]->dispatchNs, next_dispatch) << "id " << id;
    }
    EXPECT_LT(next_dispatch, retry_dispatch);
    EXPECT_LT(by_id[4]->completeNs, retry_dispatch);

    const ServeReport report = engine.report();
    EXPECT_EQ(report.total.completed, 8u);
    EXPECT_EQ(report.total.retries, 4u);
    EXPECT_EQ(report.total.batches, 2u);
    EXPECT_EQ(report.shards[0].batchFaults, 1u);
}

TEST(ServingEngine, FaultedBatchesNeverShareRequestsAcrossShards)
{
    ServeConfig config = twoTenantConfig(true);
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.sched.maxBatch = 4;
    config.sched.batchTimeoutNs = 20'000.0;
    config.queue.depth = 256;
    config.retry.maxRetries = 4;
    config.retry.baseBackoffNs = 5'000.0;
    ServingEngine engine(config);
    HashedFaults faults;
    engine.setFaultModel(&faults);

    const auto arrivals =
        poissonArrivals({{0, 40'000.0}, {1, 60'000.0}}, 2.0e7, 11);
    for (const Arrival &a : arrivals)
        engine.submit(a.tenant, std::max(a.ns, engine.nowNs()));
    engine.drain();
    const auto done = engine.takeCompletions();
    const ServeReport report = engine.report();
    ASSERT_GT(report.total.retries, 0u);
    ASSERT_EQ(done.size(), report.total.completed);

    // Every completion exactly once; a batch is one (tenant, dispatch)
    // group of at most maxBatch requests in admission order, all on the
    // same attempt.
    std::set<std::uint64_t> ids;
    std::map<std::pair<unsigned, double>, std::vector<const ServeRequest *>>
        batches;
    std::uint64_t extra_attempts = 0;
    for (const ServeRequest &r : done) {
        EXPECT_TRUE(ids.insert(r.id).second) << "id " << r.id;
        batches[{r.tenant, r.dispatchNs}].push_back(&r);
        extra_attempts += r.attempts - 1;
    }
    for (const auto &[key, members] : batches) {
        EXPECT_LE(members.size(), 4u);
        for (std::size_t i = 1; i < members.size(); ++i) {
            EXPECT_LT(members[i - 1]->id, members[i]->id);
            EXPECT_EQ(members[i]->attempts, members[0]->attempts);
        }
    }
    // Budgeted retries, plus the host re-dispatch of each request whose
    // budget ran out.
    EXPECT_EQ(extra_attempts,
              report.total.retries + report.total.fallbackCompleted);
    EXPECT_EQ(report.total.completed + report.total.rejected,
              report.total.submitted);
}

// ------------------------------------------------------------------
// Request ledger and pooled totals
// ------------------------------------------------------------------

/** The summary fields of `h`, computed straight from the histogram. */
LatencySummary
summaryOf(const Histogram &h)
{
    LatencySummary s;
    s.meanNs = h.mean();
    s.p50Ns = h.p50();
    s.p95Ns = h.p95();
    s.p99Ns = h.p99();
    s.maxNs = static_cast<double>(h.max());
    return s;
}

void
expectSameSummary(const LatencySummary &got, const LatencySummary &want,
                  const char *what)
{
    EXPECT_EQ(got.meanNs, want.meanNs) << what;
    EXPECT_EQ(got.p50Ns, want.p50Ns) << what;
    EXPECT_EQ(got.p95Ns, want.p95Ns) << what;
    EXPECT_EQ(got.p99Ns, want.p99Ns) << what;
    EXPECT_EQ(got.maxNs, want.maxNs) << what;
}

TEST(ServingEngine, TotalLatenciesArePooledAcrossTenants)
{
    // GNMT and DS2 have very different service times, so the total's
    // percentiles are those of the pooled completions, not a max over
    // the two tenants.
    ServeConfig config;
    config.system = smallSystem();
    config.tenants = {TenantSpec{"gnmt", gnmtApp(), 1.0},
                      TenantSpec{"ds2", ds2App(), 1.0}};
    config.sched.policy = SchedPolicy::BatchTimeout;
    config.queue.depth = 256;
    config.histBucketNs = 2'000'000; // resolves second-scale latencies
    config.histBuckets = 16384;
    config.timingCache = std::make_shared<ServiceTimeCache>();
    ShardServiceModel probe(config.system, 16, config.timingCache);
    const double svc_gnmt = probe.serviceNs(gnmtApp(), 1);
    const double svc_ds2 = probe.serviceNs(ds2App(), 1);
    config.sched.batchTimeoutNs = std::min(svc_gnmt, svc_ds2);

    ServingEngine engine(config);
    const double horizon = 40.0 * std::max(svc_gnmt, svc_ds2);
    const auto arrivals = poissonArrivals(
        {{0, 0.3e9 / svc_gnmt}, {1, 0.3e9 / svc_ds2}}, horizon, 11);
    for (const Arrival &a : arrivals)
        engine.submit(a.tenant, a.ns);
    engine.drain();

    Histogram queue(config.histBucketNs, config.histBuckets);
    Histogram service = queue, e2e = queue;
    const auto ns = [](double v) {
        return static_cast<std::uint64_t>(std::llround(std::max(v, 0.0)));
    };
    for (const ServeRequest &r : engine.takeCompletions()) {
        queue.sample(ns(r.queueNs()));
        service.sample(ns(r.serviceNs()));
        e2e.sample(ns(r.latencyNs()));
    }
    const ServeReport report = engine.report();
    ASSERT_GT(report.tenants[0].completed, 0u);
    ASSERT_GT(report.tenants[1].completed, 0u);
    ASSERT_EQ(e2e.count(), report.total.completed);
    expectSameSummary(report.total.queue, summaryOf(queue), "queue");
    expectSameSummary(report.total.service, summaryOf(service), "service");
    expectSameSummary(report.total.e2e, summaryOf(e2e), "e2e");
    // The pooled median lies strictly between the tenants' medians.
    EXPECT_LT(report.total.e2e.p50Ns,
              std::max(report.tenants[0].e2e.p50Ns,
                       report.tenants[1].e2e.p50Ns));
}

TEST(RequestLedger, CountsClosesAndPoolsTenants)
{
    RequestLedger ledger({"a", "b"}, {"latNs"}, 10, 100);
    ledger.submit(0);
    ledger.submit(0);
    ledger.submit(1);
    ledger.sample(0, 0, 100, 0);
    ledger.sample(1, 0, 300, 0);
    RequestEnd done;
    done.tenant = 0;
    done.deadlineNs = 50.0;
    done.endNs = 80.0; // completed late: a bad observation
    ledger.close(done);
    RequestEnd shed;
    shed.tenant = 1;
    shed.terminal = Terminal::Shed;
    shed.endNs = 90.0;
    ledger.close(shed);

    EXPECT_EQ(ledger.counts(0).completed, 1u);
    EXPECT_EQ(ledger.counts(0).ended(), 1u);
    EXPECT_EQ(ledger.counts(1).shed, 1u);
    const auto obs = ledger.takeSloObservations();
    ASSERT_EQ(obs.size(), 2u);
    EXPECT_EQ(obs[0].tsNs, 80.0);
    EXPECT_FALSE(obs[0].good);
    EXPECT_FALSE(obs[1].good);
    EXPECT_TRUE(ledger.takeSloObservations().empty());

    EXPECT_EQ(ledger.pooledSummary(0).meanNs, 200.0);
    EXPECT_EQ(ledger.pooledSummary(0).maxNs, 300.0);
    EXPECT_EQ(ledger.summary(1, 0).p50Ns, 300.0);
}

TEST(RequestLedgerDeathTest, TerminalWithoutSubmissionAssertsAtTheCall)
{
    RequestLedger ledger({"a", "b"}, {"latNs"}, 10, 100);
    ledger.submit(0);
    RequestEnd end;
    end.tenant = 1; // tenant b never submitted
    end.terminal = Terminal::Rejected;
    EXPECT_DEATH(ledger.close(end), "'b' ended a request it has not");

    end.tenant = 0;
    ledger.close(end);
    EXPECT_DEATH(ledger.close(end), "'a' ended a request it has not");
}

TEST(RequestLedgerDeathTest, DrainWithOutstandingSubmissionAsserts)
{
    RequestLedger ledger({"a"}, {"latNs"}, 10, 100);
    ledger.submit(0);
    EXPECT_DEATH(ledger.assertDrained(), "accounting leak for 'a'");
}

} // namespace
} // namespace pimsim::serve
