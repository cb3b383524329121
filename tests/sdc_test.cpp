/**
 * @file
 * Silent-data-corruption defense tests: ABFT-checked GEMV (checksum
 * detection, golden confirmation, fp16 tolerance band), the SdcMonitor
 * health state machine, the chaos campaign's deterministic SDC event
 * streams, and the serving engine's quarantine / degraded-capacity /
 * probation-readmission path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "pim/pim_channel.h"
#include "reliability/sdc_monitor.h"
#include "serve/chaos.h"
#include "serve/serving_engine.h"
#include "serve/shard.h"
#include "stack/blas.h"
#include "stack/reference.h"

namespace pimsim {
namespace {

SystemConfig
abftSystem()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1; // 16 pseudo channels x 8 units = 128 GEMV tiles
    c.geometry.rowsPerBank = 512;
    return c;
}

/** Small-magnitude operands: keeps the fp16 tolerance band far below
 *  the planted fault magnitudes, so detection is unambiguous. */
void
fillSmall(Fp16Vector &v, Rng &rng)
{
    for (auto &e : v)
        e = Fp16(rng.nextFloat(-0.125f, 0.125f));
}

// ---------- ABFT-checked GEMV ----------

TEST(AbftGemv, CleanRunVerifiesEveryTileWithoutAlarms)
{
    setQuiet(true);
    PimSystem sys(abftSystem());
    PimBlas blas(sys);
    blas.setAbft(true);

    const unsigned m = 256, n = 256;
    Rng rng(0x5dc1);
    Fp16Vector w(std::size_t{m} * n), x(n), y;
    fillSmall(w, rng);
    fillSmall(x, rng);

    const BlasTiming t = blas.gemv(w, m, n, x, y);
    EXPECT_EQ(t.abftChecks, 128u); // every (channel, unit) tile
    EXPECT_EQ(t.abftMismatches, 0u);
    EXPECT_EQ(t.abftUnverifiable, 0u);
    EXPECT_EQ(t.sdcConfirmed, 0u);
    EXPECT_EQ(t.sdcFalseAlarms, 0u);
    EXPECT_FALSE(t.hostFallback);
    EXPECT_GT(t.abftNs, 0.0);

    const Fp16Vector golden = refGemv(w, m, n, x);
    ASSERT_EQ(y.size(), golden.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y[i].bits(), golden[i].bits()) << "row " << i;
}

TEST(AbftGemv, CatchesPlantedAccumulatorFlipAndReturnsGolden)
{
    setQuiet(true);
    PimSystem sys(abftSystem());
    PimBlas blas(sys);
    blas.setAbft(true);

    // A one-strike monitor: a single confirmed corruption quarantines
    // the unit, so the attribution is visible after one kernel.
    SdcMonitorConfig mc;
    mc.window = 4;
    mc.minSamples = 1;
    mc.suspectScore = 0.25;
    mc.quarantineScore = 0.5;
    SdcMonitor monitor(sys.numChannels(), sys.config().pim.unitsPerPch, mc);
    blas.setSdcMonitor(&monitor);

    const unsigned m = 256, n = 256;
    Rng rng(0x5dc2);
    Fp16Vector w(std::size_t{m} * n), x(n), y;
    fillSmall(w, rng);
    fillSmall(x, rng);
    const Fp16Vector golden = refGemv(w, m, n, x);

    // Flip the exponent MSB of GRF_B[0] lane 0 on channel 0 / unit 0:
    // the accumulator starts at 2.0 instead of 0, so the first output
    // row of tile (0, 0) deviates by ~2.0 -- far above the band.
    sys.controller(0).pim()->unit(0).regs().flipGrfBit(1, 0, 14);

    const BlasTiming t = blas.gemv(w, m, n, x, y);

    // Ground truth: the datapath consumed the planted bits.
    EXPECT_GE(sys.controller(0).pim()->sdcExposed(), 1u);

    // The checksum tripped, golden confirmed, and the caller got the
    // corrected result -- never a silently wrong one.
    EXPECT_EQ(t.retries, 0u); // no reported error: this is the silent path
    EXPECT_GE(t.abftMismatches, 1u);
    EXPECT_GE(t.sdcConfirmed, 1u);
    EXPECT_TRUE(t.hostFallback);
    ASSERT_EQ(y.size(), golden.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y[i].bits(), golden[i].bits()) << "row " << i;

    // The corruption was localized to (channel 0, unit 0).
    EXPECT_EQ(monitor.state(0, 0), UnitHealth::Quarantined);
    EXPECT_TRUE(monitor.channelWithdrawn(0));
    EXPECT_EQ(monitor.confirmed(), 1u);
    for (unsigned ch = 1; ch < sys.numChannels(); ++ch)
        EXPECT_FALSE(monitor.channelWithdrawn(ch)) << "channel " << ch;
}

TEST(AbftGemv, WithoutAbftThePlantedFlipPassesSilently)
{
    setQuiet(true);
    PimSystem sys(abftSystem());
    PimBlas blas(sys); // ABFT off (default)

    const unsigned m = 256, n = 256;
    Rng rng(0x5dc2); // same data as the detection test
    Fp16Vector w(std::size_t{m} * n), x(n), y;
    fillSmall(w, rng);
    fillSmall(x, rng);
    const Fp16Vector golden = refGemv(w, m, n, x);

    sys.controller(0).pim()->unit(0).regs().flipGrfBit(1, 0, 14);
    const BlasTiming t = blas.gemv(w, m, n, x, y);

    // Nothing reported, nothing checked: the wrong answer escapes.
    EXPECT_EQ(t.abftChecks, 0u);
    EXPECT_EQ(t.retries, 0u);
    EXPECT_FALSE(t.hostFallback);
    bool differs = false;
    for (std::size_t i = 0; i < y.size() && !differs; ++i)
        differs = y[i].bits() != golden[i].bits();
    EXPECT_TRUE(differs) << "the planted flip must corrupt the output";
}

TEST(AbftGemv, Fp16EdgeValuesNeverFalseAlarm)
{
    setQuiet(true);
    PimSystem sys(abftSystem());
    PimBlas blas(sys);
    blas.setAbft(true);

    // Every fp16 boundary case: zeros, the subnormal range edges, the
    // normal range edges (65504 products saturate -> the unverifiable
    // golden-compare path), exact powers of two and round-to-nearest
    // tie pins around 1.0.
    const std::vector<std::uint16_t> edges = {
        0x0000, 0x8000, // +/- zero
        0x0001, 0x8001, // smallest subnormal
        0x03ff, 0x83ff, // largest subnormal
        0x0400, 0x8400, // smallest normal
        0x7bff, 0xfbff, // largest normal (65504)
        0x3c00, 0xbc00, // +/- 1.0
        0x3bff, 0x3c01, // half-ulp neighbours of 1.0 (tie pins)
        0x3800, 0x4000, // 0.5, 2.0
    };

    const unsigned m = 256, n = 128;
    Fp16Vector w(std::size_t{m} * n), x(n), y;
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = Fp16::fromBits(edges[i % edges.size()]);
    for (std::size_t j = 0; j < x.size(); ++j)
        x[j] = Fp16::fromBits(edges[(j * 7 + 3) % edges.size()]);

    const BlasTiming t = blas.gemv(w, m, n, x, y);

    // Saturated tiles are allowed to be unverifiable (they go to the
    // golden bit-compare), but a clean run must never count a false
    // alarm or replace the result.
    EXPECT_EQ(t.sdcFalseAlarms, 0u);
    EXPECT_EQ(t.abftMismatches, 0u);
    EXPECT_EQ(t.sdcConfirmed, 0u);
    EXPECT_FALSE(t.hostFallback);

    const Fp16Vector golden = refGemv(w, m, n, x);
    ASSERT_EQ(y.size(), golden.size());
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_EQ(y[i].bits(), golden[i].bits()) << "row " << i;
}

TEST(AbftGemv, SameSeedReplayIsBitIdentical)
{
    setQuiet(true);
    auto run = [](Fp16Vector &y) {
        PimSystem sys(abftSystem());
        PimBlas blas(sys);
        blas.setAbft(true);
        const unsigned m = 256, n = 256;
        Rng rng(0x5dc3);
        Fp16Vector w(std::size_t{m} * n), x(n);
        fillSmall(w, rng);
        fillSmall(x, rng);
        sys.controller(3).pim()->unit(5).regs().flipGrfBit(1, 1, 14);
        return blas.gemv(w, m, n, x, y);
    };

    Fp16Vector y1, y2;
    const BlasTiming t1 = run(y1);
    const BlasTiming t2 = run(y2);
    EXPECT_GT(t1.abftMismatches, 0u); // the planted flip must be seen
    EXPECT_EQ(t1.ns, t2.ns);
    EXPECT_EQ(t1.abftChecks, t2.abftChecks);
    EXPECT_EQ(t1.abftMismatches, t2.abftMismatches);
    EXPECT_EQ(t1.sdcConfirmed, t2.sdcConfirmed);
    ASSERT_EQ(y1.size(), y2.size());
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_EQ(y1[i].bits(), y2[i].bits()) << "row " << i;
}

// ---------- SdcMonitorConfig validation ----------

TEST(SdcMonitorConfigDeathTest, RejectsBadThresholds)
{
    SdcMonitorConfig ok;
    ok.validate(); // the defaults are sane

    SdcMonitorConfig c = ok;
    c.window = 0;
    EXPECT_DEATH(c.validate(), "window");

    c = ok;
    c.minSamples = 0;
    EXPECT_DEATH(c.validate(), "minSamples");

    c = ok;
    c.minSamples = c.window + 1;
    EXPECT_DEATH(c.validate(), "minSamples");

    c = ok;
    c.suspectScore = c.quarantineScore; // must be strictly below
    EXPECT_DEATH(c.validate(), "suspect score");

    c = ok;
    c.suspectScore = 0.0;
    EXPECT_DEATH(c.validate(), "suspect score");

    c = ok;
    c.quarantineScore = 1.5;
    EXPECT_DEATH(c.validate(), "quarantine score");

    c = ok;
    c.probationDelayNs = -1.0;
    EXPECT_DEATH(c.validate(), "cool-down");

    c = ok;
    c.probationCanaries = 0;
    EXPECT_DEATH(c.validate(), "canary");
}

// ---------- SdcMonitor state machine ----------

SdcMonitorConfig
fastMonitor()
{
    SdcMonitorConfig c;
    c.window = 8;
    c.minSamples = 2;
    c.suspectScore = 0.25;
    c.quarantineScore = 0.5;
    c.probationDelayNs = 1000.0;
    c.probationCanaries = 2;
    return c;
}

TEST(SdcMonitor, QuarantineProbationHealthyRoundTrip)
{
    SdcMonitor mon(4, 8, fastMonitor());
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Healthy);
    EXPECT_EQ(mon.nextEventNs(), std::numeric_limits<double>::infinity());

    mon.recordConfirmed(1, 3, 100.0);
    mon.recordConfirmed(1, 3, 200.0);
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Quarantined);
    // Quarantine resets the outcome window: re-admission is decided by
    // the canary flow, not by stale scores.
    EXPECT_DOUBLE_EQ(mon.score(1, 3), 0.0);
    EXPECT_TRUE(mon.channelWithdrawn(1));
    EXPECT_FALSE(mon.channelWithdrawn(0));
    EXPECT_EQ(mon.withdrawnChannels(), std::vector<unsigned>{1});
    EXPECT_EQ(mon.quarantines(), 1u);
    EXPECT_DOUBLE_EQ(mon.nextEventNs(), 1200.0); // cool-down expiry

    // The cool-down holds, then expires into probation.
    mon.advanceTo(1100.0);
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Quarantined);
    mon.advanceTo(1250.0);
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Probation);
    EXPECT_TRUE(mon.channelOnProbation(1));
    EXPECT_TRUE(mon.channelWithdrawn(1)); // still fenced off serving

    // Two clean canaries re-admit the unit.
    mon.recordCanary(1, 3, true, 1300.0);
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Probation);
    mon.recordCanary(1, 3, true, 1400.0);
    EXPECT_EQ(mon.state(1, 3), UnitHealth::Healthy);
    EXPECT_FALSE(mon.channelWithdrawn(1));
    EXPECT_EQ(mon.readmits(), 1u);
}

TEST(SdcMonitor, FailedCanaryRestartsTheQuarantine)
{
    SdcMonitor mon(2, 2, fastMonitor());
    mon.recordConfirmed(0, 0, 0.0);
    mon.recordConfirmed(0, 0, 10.0);
    mon.advanceTo(2000.0);
    ASSERT_EQ(mon.state(0, 0), UnitHealth::Probation);

    mon.recordCanary(0, 0, true, 2100.0);
    mon.recordCanary(0, 0, false, 2200.0); // strike: back to quarantine
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Quarantined);
    EXPECT_GE(mon.quarantines(), 2u);
    EXPECT_EQ(mon.readmits(), 0u);

    // The canary-ok streak restarts from zero after the relapse.
    mon.advanceTo(4000.0);
    ASSERT_EQ(mon.state(0, 0), UnitHealth::Probation);
    mon.recordCanary(0, 0, true, 4100.0);
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Probation);
    mon.recordCanary(0, 0, true, 4200.0);
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Healthy);
    EXPECT_EQ(mon.readmits(), 1u);
}

TEST(SdcMonitor, SuspectRecoversWhenTheWindowCleans)
{
    SdcMonitor mon(1, 1, fastMonitor());
    // 1 error in 4 outcomes = 0.25: suspect, not quarantined. The clean
    // prefix keeps the score below the quarantine threshold while the
    // window fills (scores act on every outcome past minSamples).
    mon.recordClean(0, 0, 0.0);
    mon.recordClean(0, 0, 1.0);
    mon.recordClean(0, 0, 2.0);
    mon.recordConfirmed(0, 0, 3.0);
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Suspect);
    EXPECT_FALSE(mon.channelWithdrawn(0)); // suspect still serves

    // Clean outcomes push the error out of the window.
    for (unsigned i = 0; i < 8; ++i)
        mon.recordClean(0, 0, 10.0 + i);
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Healthy);
    EXPECT_DOUBLE_EQ(mon.score(0, 0), 0.0);
}

TEST(SdcMonitor, DetectionsAloneDoNotQuarantine)
{
    // False alarms and unconfirmed detections must not take capacity
    // away: only golden-confirmed corruption counts as an error.
    SdcMonitor mon(1, 1, fastMonitor());
    for (unsigned i = 0; i < 8; ++i) {
        mon.recordDetected(0, 0, static_cast<double>(i));
        mon.recordFalseAlarm(0, 0, static_cast<double>(i));
    }
    EXPECT_EQ(mon.state(0, 0), UnitHealth::Healthy);
    EXPECT_EQ(mon.detected(), 8u);
    EXPECT_EQ(mon.falseAlarms(), 8u);
    EXPECT_EQ(mon.quarantines(), 0u);
}

// ---------- shard row isolation ----------

TEST(ShardPlanDeathTest, OverlappingRowSlicesViolateIsolation)
{
    using serve::ShardSpec;
    std::vector<ShardSpec> ok = {
        ShardSpec{0, 8, 0, 100},
        ShardSpec{8, 8, 100, 100},
    };
    serve::assertDisjointRowRanges(ok); // disjoint: no death

    std::vector<ShardSpec> bad = {
        ShardSpec{0, 8, 0, 101}, // spills one row into the next slice
        ShardSpec{8, 8, 100, 100},
    };
    EXPECT_DEATH(serve::assertDisjointRowRanges(bad), "row isolation");
}

TEST(ShardPlan, QuarantineShrinksCapacityAndRestores)
{
    serve::ShardPlan plan = serve::ShardPlan::shared(16, 100, 1);
    EXPECT_EQ(plan.activeChannelsOf(0), 16u);
    EXPECT_DOUBLE_EQ(plan.capacityFraction(0), 1.0);

    plan.quarantineChannel(5);
    plan.quarantineChannel(5); // idempotent
    EXPECT_TRUE(plan.channelQuarantined(5));
    EXPECT_EQ(plan.activeChannelsOf(0), 15u);
    EXPECT_DOUBLE_EQ(plan.capacityFraction(0), 15.0 / 16.0);

    plan.restoreChannel(5);
    EXPECT_FALSE(plan.channelQuarantined(5));
    EXPECT_DOUBLE_EQ(plan.capacityFraction(0), 1.0);
}

// ---------- chaos campaign SDC streams ----------

TEST(ChaosSdc, StreamsAreDeterministicAndOrdered)
{
    serve::ChaosConfig cfg;
    cfg.sdcPerSec = 50'000.0; // dense enough to fill the window
    cfg.seed = 0xfeed;

    serve::ChaosCampaign a(cfg, 1), b(cfg, 1);
    a.configureSdc(4, 8);
    b.configureSdc(4, 8);

    for (unsigned ch = 0; ch < 4; ++ch) {
        const auto ea = a.sdcEvents(ch, 0.0, 1e6);
        const auto eb = b.sdcEvents(ch, 0.0, 1e6);
        ASSERT_EQ(ea.size(), eb.size()) << "channel " << ch;
        for (std::size_t i = 0; i < ea.size(); ++i) {
            EXPECT_EQ(ea[i].ns, eb[i].ns);
            EXPECT_EQ(ea[i].unit, eb[i].unit);
            EXPECT_LT(ea[i].unit, 8u);
            EXPECT_GE(ea[i].ns, 0.0);
            EXPECT_LT(ea[i].ns, 1e6);
            if (i > 0) {
                EXPECT_GE(ea[i].ns, ea[i - 1].ns);
            }
        }
    }

    // Windowed queries partition the stream: [0, t) + [t, T) == [0, T).
    const auto whole = a.sdcEvents(2, 0.0, 1e6);
    const auto lo = a.sdcEvents(2, 0.0, 4e5);
    const auto hi = a.sdcEvents(2, 4e5, 1e6);
    EXPECT_EQ(whole.size(), lo.size() + hi.size());
}

TEST(ChaosSdc, HotChannelDrawsTheMultipliedRate)
{
    serve::ChaosConfig cfg;
    cfg.sdcPerSec = 20'000.0;
    cfg.sdcHotChannel = 1;
    cfg.sdcHotFactor = 16.0;
    cfg.seed = 0xbeef;

    serve::ChaosCampaign chaos(cfg, 1);
    chaos.configureSdc(2, 8);
    const auto cold = chaos.sdcEvents(0, 0.0, 1e7);
    const auto hot = chaos.sdcEvents(1, 0.0, 1e7);
    // 200 vs 3200 expected events: the gap is far beyond Poisson noise.
    EXPECT_GT(hot.size(), 4 * cold.size());
}

// ---------- serving-layer quarantine and degraded capacity ----------

/** Scripted SDC source: one event on a fixed (channel, unit) every
 *  periodNs until cutoffNs, then silence. */
struct ScriptedSdc : public serve::SdcModel
{
    unsigned channel = 0;
    unsigned unit = 0;
    double periodNs = 50'000.0;
    double cutoffNs = 2'000'000.0;

    std::vector<serve::SdcEvent> sdcEvents(unsigned ch, double start_ns,
                                           double end_ns) override
    {
        std::vector<serve::SdcEvent> events;
        if (ch != channel)
            return events;
        double first = std::ceil(start_ns / periodNs) * periodNs;
        for (double t = first; t < end_ns && t < cutoffNs; t += periodNs)
            events.push_back(serve::SdcEvent{t, channel, unit});
        return events;
    }
};

AppSpec
sdcApp()
{
    LayerSpec fc;
    fc.kind = LayerSpec::Kind::Fc;
    fc.hidden = 256;
    fc.input = 256;
    fc.steps = 1;
    fc.pimEligible = true;

    AppSpec app;
    app.name = "sdc-fc";
    app.layers = {fc};
    return app;
}

serve::ServeConfig
sdcServeConfig(bool abft)
{
    serve::ServeConfig config;
    config.system = abftSystem();
    config.tenants = {serve::TenantSpec{"t0", sdcApp(), 1.0, 0.0}};
    config.queue.depth = 256;
    config.sched.maxBatch = 4;
    config.sdc.enabled = true;
    config.sdc.abft = abft;
    config.sdc.quarantine = true;
    config.sdc.monitor = fastMonitor();
    config.sdc.monitor.probationDelayNs = 200'000.0;
    config.sdc.canaryPeriodNs = 100'000.0;
    config.sdc.migrationNsPerRow = 0.0;
    return config;
}

serve::ServeReport
runScripted(serve::ServeConfig config, ScriptedSdc &sdc,
            double *final_capacity = nullptr,
            unsigned *final_active = nullptr)
{
    serve::ServingEngine engine(std::move(config));
    engine.setSdcModel(&sdc);
    for (double t = 0.0; t < 10e6; t += 50'000.0)
        engine.submit(0, std::max(t, engine.nowNs()));
    engine.drain();
    if (final_capacity)
        *final_capacity = engine.capacityFraction(0);
    if (final_active)
        *final_active = engine.activeChannels(0);
    serve::ServeReport report = engine.report();
    report.reconcile();
    return report;
}

TEST(ServingSdc, AbftDetectsQuarantinesAndReadmits)
{
    setQuiet(true);
    ScriptedSdc sdc; // strikes channel 0 / unit 0 for the first 2 ms
    double capacity = 0.0;
    unsigned active = 0;
    const serve::ServeReport report =
        runScripted(sdcServeConfig(/*abft=*/true), sdc, &capacity, &active);

    // Every struck batch was detected and re-run on the host golden
    // path: zero silently wrong completions, visible retries.
    EXPECT_GT(report.sdc.detected, 0u);
    EXPECT_GT(report.sdc.confirmed, 0u);
    EXPECT_EQ(report.total.silentlyWrong, 0u);
    EXPECT_GT(report.total.retries, 0u);
    EXPECT_EQ(report.total.completed, report.total.admitted);

    // The strikes localized to channel 0 and quarantined it; after the
    // stream went quiet the canaries re-admitted it.
    EXPECT_GE(report.sdc.quarantines, 1u);
    EXPECT_GE(report.sdc.readmits, 1u);
    EXPECT_TRUE(report.sdc.withdrawnChannels.empty());
    EXPECT_EQ(active, 16u);
    EXPECT_DOUBLE_EQ(capacity, 1.0);
}

TEST(ServingSdc, EndlessStrikesLeaveTheChannelWithdrawn)
{
    setQuiet(true);
    ScriptedSdc sdc;
    sdc.channel = 2;
    sdc.cutoffNs = std::numeric_limits<double>::infinity();
    double capacity = 0.0;
    unsigned active = 0;
    const serve::ServeReport report =
        runScripted(sdcServeConfig(/*abft=*/true), sdc, &capacity, &active);

    // The stream never goes quiet: canaries keep failing and the
    // channel stays out of the serving set at drain time.
    EXPECT_GE(report.sdc.quarantines, 1u);
    EXPECT_EQ(report.sdc.readmits, 0u);
    ASSERT_EQ(report.sdc.withdrawnChannels.size(), 1u);
    EXPECT_EQ(report.sdc.withdrawnChannels[0], 2u);
    EXPECT_EQ(active, 15u);
    EXPECT_DOUBLE_EQ(capacity, 15.0 / 16.0);
    // Degraded, not dead: requests still complete on the survivors.
    EXPECT_EQ(report.total.completed, report.total.admitted);
    EXPECT_EQ(report.total.silentlyWrong, 0u);
}

TEST(ServingSdc, WithoutAbftStrikesCompleteSilentlyWrong)
{
    setQuiet(true);
    ScriptedSdc sdc;
    const serve::ServeReport report =
        runScripted(sdcServeConfig(/*abft=*/false), sdc);

    // No detection feed -> no localization, no quarantine, and struck
    // batches complete with wrong results. This is the hazard the
    // defense exists to close.
    EXPECT_GT(report.total.silentlyWrong, 0u);
    EXPECT_EQ(report.sdc.detected, 0u);
    EXPECT_EQ(report.sdc.confirmed, 0u);
    EXPECT_EQ(report.sdc.quarantines, 0u);
    EXPECT_EQ(report.total.retries, 0u);
}

TEST(ServingSdc, MigrationHoldPausesButNeverStallsDrain)
{
    setQuiet(true);
    ScriptedSdc sdc;
    serve::ServeConfig config = sdcServeConfig(/*abft=*/true);
    config.sdc.migrationNsPerRow = 1000.0; // non-trivial re-stripe pause
    const serve::ServeReport report = runScripted(std::move(config), sdc);

    // drain() returned (no event-loop spin against the dispatch gate)
    // and the quarantine round trip still happened behind the hold.
    EXPECT_GE(report.sdc.quarantines, 1u);
    EXPECT_GE(report.sdc.readmits, 1u);
    EXPECT_EQ(report.total.completed, report.total.admitted);
}

TEST(ServingSdc, SameSeedReplayIsBitIdentical)
{
    setQuiet(true);
    auto digest = [] {
        ScriptedSdc sdc;
        serve::ServeConfig config = sdcServeConfig(/*abft=*/true);
        serve::ServingEngine engine(std::move(config));
        engine.setSdcModel(&sdc);
        for (double t = 0.0; t < 10e6; t += 50'000.0)
            engine.submit(0, std::max(t, engine.nowNs()));
        engine.drain();
        serve::ServeReport report = engine.report();
        report.reconcile();
        double sum = 0.0;
        for (const serve::ServeRequest &r : engine.takeCompletions())
            sum += r.completeNs;
        return std::make_tuple(report.total.completed, report.total.retries,
                               report.sdc.detected, report.sdc.confirmed,
                               report.sdc.quarantines, report.sdc.readmits,
                               report.total.e2e.p99Ns, sum);
    };
    const auto first = digest();
    EXPECT_GE(std::get<5>(first), 1u); // a quarantine round trip ran
    EXPECT_EQ(first, digest());
}

} // namespace
} // namespace pimsim
