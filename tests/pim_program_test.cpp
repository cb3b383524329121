/**
 * @file
 * Tests for the PIM program builder/runner and the device driver:
 * fence semantics, replicated execution, row allocation, preload.
 */

#include <gtest/gtest.h>

#include "stack/driver.h"
#include "stack/pim_program.h"

namespace pimsim {
namespace {

SystemConfig
tinyConfig()
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1;
    c.geometry.rowsPerBank = 256;
    return c;
}

TEST(ProgramBuilder, BuildsOrderedSteps)
{
    ChannelProgram prog;
    ProgramBuilder b(prog);
    b.activate(5);
    b.read(5, 3);
    b.write(5, 4, Burst{});
    b.fence();
    b.precharge();
    b.prechargeAll();

    ASSERT_EQ(prog.size(), 5u);
    EXPECT_EQ(prog[0].request.type, RequestType::Activate);
    EXPECT_EQ(prog[1].request.type, RequestType::Read);
    EXPECT_EQ(prog[1].request.coord.col, 3u);
    EXPECT_EQ(prog[2].request.type, RequestType::Write);
    EXPECT_TRUE(prog[2].fenceAfter);
    EXPECT_EQ(prog[3].request.type, RequestType::Precharge);
    EXPECT_EQ(prog[4].request.type, RequestType::PrechargeAll);
    // Ids are sequential and all steps are ordered.
    for (std::size_t i = 0; i < prog.size(); ++i) {
        EXPECT_EQ(prog[i].request.id, i);
        EXPECT_TRUE(prog[i].request.ordered);
    }
}

TEST(ProgramRunner, ExecutesAndTimes)
{
    PimSystem sys(tinyConfig());
    ChannelProgram prog;
    ProgramBuilder b(prog);
    Burst data{};
    data.fill(0x42);
    b.write(7, 2, data);
    b.fence();
    b.read(7, 2);
    b.prechargeAll();

    const PimRunResult r =
        runPimProgramReplicated(sys, prog, sys.numChannels(), true);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_EQ(r.commands,
              static_cast<std::uint64_t>(prog.size()) * sys.numChannels());
    EXPECT_EQ(r.fences, sys.numChannels());
    ASSERT_EQ(r.reads.size(), sys.numChannels());
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        ASSERT_EQ(r.reads[ch].size(), 1u);
        EXPECT_EQ(r.reads[ch][0].data, data);
    }
}

TEST(ProgramRunner, ReplayedRunReportsEveryChannel)
{
    // A timing-only system replays the program on channel 0; the result
    // must still describe every channel, as the functional run does.
    auto run = [](bool functional, std::uint64_t *replayed) {
        SystemConfig c = tinyConfig();
        c.pim.functional = functional;
        PimSystem sys(c);
        ChannelProgram prog;
        ProgramBuilder b(prog);
        Burst data{};
        data.fill(0x5a);
        b.write(7, 2, data);
        b.fence();
        b.read(7, 2);
        b.read(8, 2);
        b.prechargeAll();
        const PimRunResult r =
            runPimProgramReplicated(sys, prog, sys.numChannels(), true);
        *replayed = sys.replayedRuns();
        return r;
    };
    std::uint64_t functional_replays = 0, timing_replays = 0;
    const PimRunResult f = run(true, &functional_replays);
    const PimRunResult t = run(false, &timing_replays);
    EXPECT_EQ(functional_replays, 0u);
    EXPECT_EQ(timing_replays, 1u);
    EXPECT_EQ(t.cycles, f.cycles);
    EXPECT_EQ(t.commands, f.commands);
    EXPECT_EQ(t.fences, f.fences);
    ASSERT_EQ(t.reads.size(), f.reads.size());
    for (std::size_t ch = 0; ch < f.reads.size(); ++ch) {
        ASSERT_EQ(t.reads[ch].size(), 2u);
        ASSERT_EQ(f.reads[ch].size(), 2u);
        for (std::size_t i = 0; i < 2; ++i) {
            EXPECT_EQ(t.reads[ch][i].id, f.reads[ch][i].id);
            EXPECT_EQ(t.reads[ch][i].data, f.reads[ch][i].data);
            EXPECT_EQ(t.reads[ch][i].completion, f.reads[ch][i].completion);
        }
    }
}

TEST(ProgramRunner, FenceSerialisesAgainstCompletion)
{
    // Time with a fence must exceed time without one.
    auto run_with = [&](bool fence) {
        PimSystem sys(tinyConfig());
        ChannelProgram prog;
        ProgramBuilder b(prog);
        for (unsigned i = 0; i < 64; ++i) {
            b.read(3, i % 32);
            if (fence)
                b.fence();
        }
        return runPimProgramReplicated(sys, prog, 1).cycles;
    };
    EXPECT_GT(run_with(true), run_with(false) + 64);
}

TEST(ProgramRunner, ChannelsRunConcurrently)
{
    // 16 channels running the same program take (nearly) the time of 1.
    auto run_on = [&](unsigned channels) {
        PimSystem sys(tinyConfig());
        ChannelProgram prog;
        ProgramBuilder b(prog);
        for (unsigned i = 0; i < 128; ++i)
            b.read(3, i % 32);
        b.prechargeAll();
        return runPimProgramReplicated(sys, prog, channels).cycles;
    };
    const Cycle one = run_on(1);
    const Cycle sixteen = run_on(16);
    EXPECT_LT(sixteen, one * 2);
}

TEST(ProgramRunner, EmptyProgramIsInstant)
{
    PimSystem sys(tinyConfig());
    ChannelProgram prog;
    const PimRunResult r = runPimProgramReplicated(sys, prog, 4);
    EXPECT_EQ(r.cycles, 0u);
    EXPECT_EQ(r.commands, 0u);
}

// ---------- driver ----------

TEST(PimDriver, AllocatesDisjointRowBlocks)
{
    PimSystem sys(tinyConfig());
    PimDriver driver(sys);
    PimRowBlock a, c;
    ASSERT_EQ(driver.allocRows(10, a), PimStatus::Ok);
    ASSERT_EQ(driver.allocRows(5, c), PimStatus::Ok);
    EXPECT_EQ(a.numRows, 10u);
    EXPECT_GE(c.firstRow, a.firstRow + a.numRows);
}

TEST(PimDriver, StaysBelowPimConfRows)
{
    PimSystem sys(tinyConfig());
    PimDriver driver(sys);
    const auto conf = PimConfMap::forRows(256);
    const unsigned total = driver.freeRows();
    PimRowBlock block;
    ASSERT_EQ(driver.allocRows(total, block), PimStatus::Ok);
    EXPECT_LE(block.firstRow + block.numRows, conf.firstReservedRow());
    EXPECT_EQ(driver.freeRows(), 0u);
}

TEST(PimDriver, ResetReclaims)
{
    PimSystem sys(tinyConfig());
    PimDriver driver(sys);
    const unsigned before = driver.freeRows();
    PimRowBlock block;
    ASSERT_EQ(driver.allocRows(20, block), PimStatus::Ok);
    driver.reset();
    EXPECT_EQ(driver.freeRows(), before);
}

TEST(PimDriver, PreloadPeekRoundTrip)
{
    PimSystem sys(tinyConfig());
    PimDriver driver(sys);
    Burst data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    driver.preload(3, 7, 42, 11, data);
    EXPECT_EQ(driver.peek(3, 7, 42, 11), data);
    // Other locations stay zero.
    EXPECT_EQ(driver.peek(3, 7, 42, 12), Burst{});
    EXPECT_EQ(driver.peek(4, 7, 42, 11), Burst{});
}

} // namespace
} // namespace pimsim
