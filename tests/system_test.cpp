/**
 * @file
 * System assembly tests: configuration derivation (Tables IV/V), the
 * event loop's time-skipping, multi-channel concurrency, and stat
 * aggregation.
 */

#include <gtest/gtest.h>

#include "sim/system.h"

namespace pimsim {
namespace {

TEST(SystemConfig, PaperBandwidths)
{
    const SystemConfig c = SystemConfig::pimHbmSystem();
    EXPECT_EQ(c.numChannels(), 64u);
    EXPECT_NEAR(c.offChipBandwidthGBs(), 1228.8, 1.0);
    EXPECT_NEAR(c.onChipBandwidthGBs(), 4915.2, 5.0);
    EXPECT_NEAR(c.onChipBandwidthGBs() / c.offChipBandwidthGBs(), 4.0,
                0.01);
}

TEST(SystemConfig, HbmSystemHasNoPim)
{
    PimSystem sys(SystemConfig::hbmSystem());
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
        EXPECT_EQ(sys.controller(ch).pim(), nullptr);
}

TEST(SystemConfig, PimSystemHasUnits)
{
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        ASSERT_NE(sys.controller(ch).pim(), nullptr);
        EXPECT_EQ(sys.controller(ch).pim()->numUnits(), 8u);
    }
}

TEST(SystemConfig, X4SystemQuadruplesChannels)
{
    EXPECT_EQ(SystemConfig::hbmX4System().numChannels(), 256u);
}

TEST(PimSystemLoop, IdleSystemDoesNotStep)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    EXPECT_FALSE(sys.step());
    EXPECT_TRUE(sys.allIdle());
    EXPECT_EQ(sys.now(), 0u);
}

TEST(PimSystemLoop, AdvanceMovesTimeExactly)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    sys.advance(1234);
    EXPECT_EQ(sys.now(), 1234u);
    EXPECT_NEAR(sys.nowNs(), 1234 * cfg.timing.tCKns, 1e-9);
}

TEST(PimSystemLoop, StepSkipsDeadTime)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    MemRequest r;
    r.type = RequestType::Read;
    r.coord.row = 3;
    ASSERT_TRUE(sys.tryEnqueue(0, r));
    // Run to completion; the number of step() calls must be far below
    // the elapsed cycles (the loop jumps over tRCD/tCL gaps).
    unsigned steps = 0;
    while (sys.step())
        ++steps;
    EXPECT_GT(sys.now(), 20u); // ACT + tRCD + RD + tCL elapsed
    EXPECT_LT(steps, 15u);
}

TEST(PimSystemLoop, ChannelsProgressIndependently)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    MemRequest r;
    r.type = RequestType::Read;
    r.coord.row = 1;
    ASSERT_TRUE(sys.tryEnqueue(0, r));
    r.coord.row = 2;
    r.id = 1;
    ASSERT_TRUE(sys.tryEnqueue(5, r));
    sys.runUntilIdle();
    EXPECT_EQ(sys.drain(0).size(), 1u);
    EXPECT_EQ(sys.drain(5).size(), 1u);
}

TEST(PimSystemLoop, EnqueueAfterIdleRestartsClock)
{
    // Regression: once a channel drains, its next-tick hint is cleared
    // (kNoCycle). A later enqueue must re-arm it, or step() would treat
    // the channel as forever idle and never serve the new request.
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    MemRequest r;
    r.type = RequestType::Read;
    r.coord.row = 1;
    ASSERT_TRUE(sys.tryEnqueue(0, r));
    sys.runUntilIdle();
    ASSERT_TRUE(sys.allIdle());
    const Cycle before = sys.now();

    r.coord.row = 2;
    r.id = 1;
    ASSERT_TRUE(sys.tryEnqueue(0, r));
    EXPECT_TRUE(sys.step()); // clock restarted, work observed
    sys.runUntilIdle();
    EXPECT_GT(sys.now(), before);
    EXPECT_EQ(sys.drain(0).size(), 2u);
}

TEST(PimSystemLoopDeathTest, DirectControllerEnqueueTripsInvariant)
{
    // The event loop's invariant: a non-idle channel always has a live
    // next-tick hint. Bypassing PimSystem::tryEnqueue violates it, and
    // step() must fail loudly instead of silently never serving the
    // request.
    EXPECT_DEATH(
        {
            SystemConfig cfg = SystemConfig::hbmSystem();
            cfg.numStacks = 1;
            PimSystem sys(cfg);
            MemRequest r;
            r.type = RequestType::Read;
            r.coord.row = 1;
            // Drain once so channel 0's hint is actually cleared (a
            // fresh system still carries the initial hint of cycle 0).
            (void)sys.tryEnqueue(0, r);
            sys.runUntilIdle();
            r.id = 1;
            sys.controller(0).enqueue(r); // wrong: bypasses the hint
            sys.step();
        },
        "cleared next-tick hint");
}

TEST(PimSystemLoopDeathTest, OutOfRangeChannelIsRejected)
{
    // drain() and controller() check the channel index like tryEnqueue
    // does, instead of indexing past the controller array.
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    const unsigned bad = sys.numChannels();
    EXPECT_DEATH((void)sys.drain(bad), "bad channel");
    EXPECT_DEATH((void)sys.controller(bad), "bad channel");
    MemRequest r;
    EXPECT_DEATH((void)sys.tryEnqueue(bad, r), "bad channel");
}

TEST(PimSystemLoop, StatAggregationSums)
{
    SystemConfig cfg = SystemConfig::hbmSystem();
    cfg.numStacks = 1;
    PimSystem sys(cfg);
    for (unsigned ch = 0; ch < 4; ++ch) {
        MemRequest r;
        r.type = RequestType::Read;
        r.coord.row = 1;
        r.id = ch;
        ASSERT_TRUE(sys.tryEnqueue(ch, r));
    }
    sys.runUntilIdle();
    EXPECT_EQ(sys.totalChannelStat("rd"), 4u);
    EXPECT_EQ(sys.totalPimStat("pim.trigger"), 0u); // no PIM attached
}

} // namespace
} // namespace pimsim
