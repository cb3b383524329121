/**
 * @file
 * PIM execution unit and channel tests: mode FSM (Fig. 3), register-
 * mapped config access, instruction triggering, zero-cycle JUMP, AAM
 * reorder tolerance (Fig. 5), and the SIMD datapath.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "dram/pseudo_channel.h"
#include "pim/pim_channel.h"

namespace pimsim {
namespace {

HbmGeometry
smallGeom()
{
    HbmGeometry g;
    g.rowsPerBank = 256;
    return g;
}

struct PimFixture : public ::testing::Test
{
    PimFixture()
        : pch(smallGeom(), timing), pim(PimConfig{}, pch),
          conf(pim.confMap())
    {
    }

    Cycle
    issue(const Command &cmd)
    {
        now = pch.earliestIssue(cmd, now);
        last = pch.issue(cmd, now);
        return now;
    }

    void
    enterAb()
    {
        issue(Command::act(0, 0, conf.abmrRow));
        issue(Command::pre(0, 0));
        ASSERT_EQ(pim.mode(), PimMode::Ab);
    }

    void
    loadProgram(const std::vector<PimInst> &insts)
    {
        for (unsigned u = 0; u < pim.numUnits(); ++u) {
            for (unsigned i = 0; i < insts.size(); ++i)
                pim.unit(u).regs().setCrf(i, insts[i].encode());
        }
    }

    void
    armPim()
    {
        issue(Command::act(0, 0, conf.configRow));
        Burst on{};
        on[0] = 1;
        issue(Command::wr(0, 0, pim.opModeCol(), on));
        issue(Command::preAll());
        ASSERT_EQ(pim.mode(), PimMode::AbPim);
    }

    void
    disarmPim()
    {
        issue(Command::preAll());
        issue(Command::act(0, 0, conf.configRow));
        issue(Command::wr(0, 0, pim.opModeCol(), Burst{}));
        issue(Command::preAll());
        ASSERT_EQ(pim.mode(), PimMode::Ab);
    }

    LaneVector
    lanesOf(std::initializer_list<float> values)
    {
        LaneVector v;
        std::size_t i = 0;
        for (float f : values)
            v[i++] = Fp16(f);
        while (i < kSimdLanes)
            v[i++] = Fp16();
        return v;
    }

    HbmTiming timing;
    PseudoChannel pch;
    PimChannel pim;
    PimConfMap conf;
    Cycle now = 0;
    IssueResult last;
};

TEST_F(PimFixture, StartsInSbMode)
{
    EXPECT_EQ(pim.mode(), PimMode::Sb);
    EXPECT_FALSE(pch.allBankMode());
}

TEST_F(PimFixture, AbmrSequenceEntersAbMode)
{
    enterAb();
    EXPECT_TRUE(pch.allBankMode());
    EXPECT_EQ(pim.stats().counter("mode.enterAb"), 1u);
}

TEST_F(PimFixture, SbmrSequenceReturnsToSbMode)
{
    enterAb();
    issue(Command::act(0, 0, conf.sbmrRow));
    issue(Command::preAll());
    EXPECT_EQ(pim.mode(), PimMode::Sb);
    EXPECT_FALSE(pch.allBankMode());
}

TEST_F(PimFixture, OrdinaryActDoesNotChangeMode)
{
    issue(Command::act(0, 0, 10));
    issue(Command::pre(0, 0));
    EXPECT_EQ(pim.mode(), PimMode::Sb);
}

TEST_F(PimFixture, OpModeTogglesAbPim)
{
    enterAb();
    armPim();
    EXPECT_EQ(pim.mode(), PimMode::AbPim);
    disarmPim();
    EXPECT_EQ(pim.mode(), PimMode::Ab);
}

TEST_F(PimFixture, CrfWritesBroadcastToAllUnits)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    // One burst carries CRF[0..7].
    std::vector<PimInst> insts;
    for (unsigned i = 0; i < 8; ++i)
        insts.push_back(PimInst::nop(i + 1));
    Burst burst{};
    for (unsigned i = 0; i < 8; ++i) {
        const std::uint32_t w = insts[i].encode();
        for (unsigned b = 0; b < 4; ++b)
            burst[4 * i + b] =
                static_cast<std::uint8_t>((w >> (8 * b)) & 0xff);
    }
    issue(Command::wr(0, 0, /*col=*/0, burst));
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        for (unsigned i = 0; i < 8; ++i)
            EXPECT_EQ(pim.unit(u).regs().crf(i), insts[i].encode());
}

TEST_F(PimFixture, GrfConfigReadBack)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector v = lanesOf({1.5f, -2.0f, 3.25f});
    issue(Command::wr(0, 0, pim.grfACol(3), lanesToBurst(v)));
    // Read back through the addressed bank (unit 1 = banks 2,3).
    issue(Command::rd(0, 2, pim.grfACol(3)));
    EXPECT_TRUE(last.intercepted);
    EXPECT_EQ(burstToLanes(last.data)[0].bits(), Fp16(1.5f).bits());
    EXPECT_EQ(burstToLanes(last.data)[1].bits(), Fp16(-2.0f).bits());
}

TEST_F(PimFixture, SrfConfigLoad)
{
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 val(0.75f);
    srf[0] = static_cast<std::uint8_t>(val.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(val.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfMCol(), srf));
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        EXPECT_EQ(pim.unit(u).regs().srf(0, 0).bits(), val.bits());
}

TEST_F(PimFixture, TriggeredMacComputesOnBankData)
{
    // Preload the even bank of every unit with known data at row 7.
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        LaneVector w;
        for (unsigned lane = 0; lane < kSimdLanes; ++lane)
            w[lane] = Fp16(0.25f * static_cast<float>(lane + u));
        pch.dataStore().write(2 * u, 7, 0, lanesToBurst(w));
    }

    loadProgram({
        PimInst::mac(OperandSpace::GrfB, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::GrfA, 0),
        PimInst::exit(),
    });

    enterAb();
    // x broadcast into GRF_A[0] of every unit.
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector x = broadcast(Fp16(2.0f));
    issue(Command::wr(0, 0, pim.grfACol(0), lanesToBurst(x)));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 7));
    issue(Command::rd(0, 0, 0)); // trigger: MAC
    EXPECT_TRUE(last.intercepted);

    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        const LaneVector &acc = pim.unit(u).regs().grf(1, 0);
        for (unsigned lane = 0; lane < kSimdLanes; ++lane) {
            const Fp16 expect = fp16Mac(
                Fp16(0.25f * static_cast<float>(lane + u)), Fp16(2.0f),
                Fp16());
            EXPECT_EQ(acc[lane].bits(), expect.bits());
        }
        EXPECT_TRUE(pim.unit(u).halted());
    }
}

TEST_F(PimFixture, JumpRepeatsBodyExactly)
{
    loadProgram({
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::jump(1, 5),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 3));
    for (unsigned i = 0; i < 5; ++i)
        issue(Command::rd(0, 0, i));

    // GRF_A[0] += 1 executed exactly 5 times.
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(pim.unit(u).regs().grf(0, 0)[0].bits(),
                  Fp16(5.0f).bits());
        EXPECT_TRUE(pim.unit(u).halted());
        EXPECT_EQ(pim.unit(u).executedCount(), 5u);
    }
}

TEST_F(PimFixture, NestedJumpLoops)
{
    // Inner x3 / outer x4: the body executes 12 times.
    loadProgram({
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::jump(1, 3),
        PimInst::jump(2, 4),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());

    issue(Command::act(0, 0, 3));
    for (unsigned i = 0; i < 12; ++i)
        issue(Command::rd(0, 0, i % 8));
    EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16(12.0f).bits());
    EXPECT_TRUE(pim.unit(0).halted());
}

TEST_F(PimFixture, MultiCycleNopConsumesTriggers)
{
    loadProgram({
        PimInst::nop(3),
        PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                     OperandSpace::SrfA, 0),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srf{};
    const Fp16 one(1.0f);
    srf[0] = static_cast<std::uint8_t>(one.bits() & 0xff);
    srf[1] = static_cast<std::uint8_t>(one.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfACol(), srf));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 3));

    for (unsigned i = 0; i < 3; ++i) {
        issue(Command::rd(0, 0, 0));
        EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16().bits());
    }
    issue(Command::rd(0, 0, 0)); // 4th trigger executes the ADD
    EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16(1.0f).bits());
}

TEST_F(PimFixture, WriteTriggerDeliversBusData)
{
    loadProgram({
        PimInst::fill(OperandSpace::GrfA, 2, OperandSpace::EvenBank, 0),
        PimInst::exit(),
    });
    enterAb();
    armPim();
    issue(Command::act(0, 0, 3));
    const LaneVector x = lanesOf({9.0f, -4.5f});
    issue(Command::wr(0, 0, 5, lanesToBurst(x)));
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(pim.unit(u).regs().grf(0, 2)[0].bits(), Fp16(9.0f).bits());
        EXPECT_EQ(pim.unit(u).regs().grf(0, 2)[1].bits(),
                  Fp16(-4.5f).bits());
    }
    // The bank itself was not written (AB-PIM consumes the command).
    EXPECT_EQ(pch.dataStore().read(0, 3, 5), Burst{});
}

TEST_F(PimFixture, MovReluFlushesNegativeLanes)
{
    loadProgram({
        PimInst::mov(OperandSpace::GrfB, 1, OperandSpace::GrfA, 0,
                     /*relu=*/true),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    issue(Command::wr(0, 0, pim.grfACol(0),
                      lanesToBurst(lanesOf({1.0f, -1.0f, 0.5f, -0.5f}))));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 3));
    issue(Command::rd(0, 0, 0));

    const LaneVector &r = pim.unit(0).regs().grf(1, 1);
    EXPECT_EQ(r[0].bits(), Fp16(1.0f).bits());
    EXPECT_EQ(r[1].bits(), Fp16(0.0f).bits());
    EXPECT_EQ(r[2].bits(), Fp16(0.5f).bits());
    EXPECT_EQ(r[3].bits(), Fp16(0.0f).bits());
}

TEST_F(PimFixture, BankDestinationWritesThroughWriteDriver)
{
    loadProgram({
        PimInst::mov(OperandSpace::OddBank, 0, OperandSpace::GrfA, 1),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    const LaneVector v = lanesOf({7.0f});
    issue(Command::wr(0, 0, pim.grfACol(1), lanesToBurst(v)));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 9));
    issue(Command::wr(0, 0, 6, Burst{})); // WR trigger, dst = odd bank
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(burstToLanes(
                      pch.dataStore().read(2 * u + 1, 9, 6))[0].bits(),
                  Fp16(7.0f).bits());
    }
}

TEST_F(PimFixture, MadUsesSrfPair)
{
    // GRF_A[aam] = EVEN_BANK * SRF_M[i] + SRF_A[i].
    for (unsigned u = 0; u < pim.numUnits(); ++u)
        pch.dataStore().write(2 * u, 4, 3,
                              lanesToBurst(broadcast(Fp16(3.0f))));
    loadProgram({
        PimInst::mad(OperandSpace::GrfA, 0, OperandSpace::EvenBank, 0,
                     OperandSpace::SrfM, 0, /*aam=*/true),
        PimInst::exit(),
    });
    enterAb();
    issue(Command::act(0, 0, conf.configRow));
    Burst srfm{};
    Burst srfa{};
    const Fp16 g(2.0f);
    const Fp16 b(0.5f);
    // Scalar index 3 (the AAM index of column 3).
    srfm[6] = static_cast<std::uint8_t>(g.bits() & 0xff);
    srfm[7] = static_cast<std::uint8_t>(g.bits() >> 8);
    srfa[6] = static_cast<std::uint8_t>(b.bits() & 0xff);
    srfa[7] = static_cast<std::uint8_t>(b.bits() >> 8);
    issue(Command::wr(0, 0, pim.srfMCol(), srfm));
    issue(Command::wr(0, 0, pim.srfACol(), srfa));
    Burst on{};
    on[0] = 1;
    issue(Command::wr(0, 0, pim.opModeCol(), on));
    issue(Command::preAll());
    issue(Command::act(0, 0, 4));
    issue(Command::rd(0, 0, 3)); // AAM index 3

    const Fp16 expect = fp16Mad(Fp16(3.0f), g, b);
    EXPECT_EQ(pim.unit(0).regs().grf(0, 3)[0].bits(), expect.bits());
}

TEST_F(PimFixture, AamToleratesReorderWithinWindow)
{
    // Fig. 5: with AAM, any permutation of the 8 column commands of one
    // GRF window produces the same architectural state.
    Rng rng(211);
    for (int trial = 0; trial < 8; ++trial) {
        PseudoChannel fresh(smallGeom(), timing);
        PimChannel fresh_pim(PimConfig{}, fresh);
        Cycle t = 0;
        auto issue_on = [&](const Command &cmd) {
            t = fresh.earliestIssue(cmd, t);
            fresh.issue(cmd, t);
        };

        for (unsigned u = 0; u < fresh_pim.numUnits(); ++u)
            for (unsigned c = 0; c < 8; ++c)
                fresh.dataStore().write(
                    2 * u, 2, c,
                    lanesToBurst(broadcast(Fp16(0.5f * (c + 1)))));

        for (unsigned u = 0; u < fresh_pim.numUnits(); ++u) {
            fresh_pim.unit(u).regs().setCrf(
                0, PimInst::fill(OperandSpace::GrfA, 0,
                                 OperandSpace::EvenBank, 0, true)
                       .encode());
            fresh_pim.unit(u).regs().setCrf(1,
                                            PimInst::jump(1, 8).encode());
            fresh_pim.unit(u).regs().setCrf(2, PimInst::exit().encode());
        }

        issue_on(Command::act(0, 0, fresh_pim.confMap().abmrRow));
        issue_on(Command::pre(0, 0));
        issue_on(Command::act(0, 0, fresh_pim.confMap().configRow));
        Burst on{};
        on[0] = 1;
        issue_on(Command::wr(0, 0, fresh_pim.opModeCol(), on));
        issue_on(Command::preAll());
        issue_on(Command::act(0, 0, 2));

        std::vector<unsigned> cols = {0, 1, 2, 3, 4, 5, 6, 7};
        for (std::size_t i = cols.size(); i > 1; --i)
            std::swap(cols[i - 1], cols[rng.nextBelow(i)]);
        for (unsigned c : cols)
            issue_on(Command::rd(0, 0, c));

        // Regardless of order, GRF_A[i] holds the column-i data.
        for (unsigned i = 0; i < 8; ++i) {
            EXPECT_EQ(fresh_pim.unit(0).regs().grf(0, i)[0].bits(),
                      Fp16(0.5f * (i + 1)).bits())
                << "trial " << trial << " reg " << i;
        }
    }
}

TEST_F(PimFixture, TriggersAfterExitAreCountedNotExecuted)
{
    loadProgram({PimInst::exit()});
    enterAb();
    armPim();
    issue(Command::act(0, 0, 3));
    issue(Command::rd(0, 0, 0));
    EXPECT_GE(pim.stats().counter("pim.triggerAfterExit"), 1u);
    EXPECT_EQ(pim.unit(0).executedCount(), 0u);
}

// The sequencer decodes the slot after each executed instruction ahead
// of the next trigger. A CRF change between two triggers must win over
// that decode: the next trigger executes the new word, and a planted
// flip counts as one exposure, never zero or two.
struct CrfChangeFixture : public PimFixture
{
    /** SRF_A[0] = 3, program {ADD, ADD, EXIT} on GRF_A[0], AB-PIM on
     *  and a data row open. */
    void
    arm()
    {
        loadProgram({
            PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                         OperandSpace::SrfA, 0),
            PimInst::add(OperandSpace::GrfA, 0, OperandSpace::GrfA, 0,
                         OperandSpace::SrfA, 0),
            PimInst::exit(),
        });
        enterAb();
        issue(Command::act(0, 0, conf.configRow));
        Burst srf{};
        const Fp16 three(3.0f);
        srf[0] = static_cast<std::uint8_t>(three.bits() & 0xff);
        srf[1] = static_cast<std::uint8_t>(three.bits() >> 8);
        issue(Command::wr(0, 0, pim.srfACol(), srf));
        Burst on{};
        on[0] = 1;
        issue(Command::wr(0, 0, pim.opModeCol(), on));
        issue(Command::preAll());
        issue(Command::act(0, 0, 3));
    }

    /** Bit 28 is the low opcode bit: ADD (8) <-> MUL (9). */
    static constexpr unsigned kAddToMulBit = 28;
};

TEST_F(CrfChangeFixture, BitFlipBetweenTriggersRunsNewWordCountsOnce)
{
    arm();
    issue(Command::rd(0, 0, 0)); // ADD: GRF_A[0] = 3
    pim.unit(0).regs().flipCrfBit(1, kAddToMulBit);
    issue(Command::rd(0, 0, 1)); // the flipped word: MUL, 3 * 3
    issue(Command::rd(0, 0, 2)); // after EXIT: no second exposure

    EXPECT_EQ(pim.unit(0).regs().grf(0, 0)[0].bits(), Fp16(9.0f).bits());
    EXPECT_EQ(pim.unit(0).sdcExposed(), 1u);
    EXPECT_EQ(pim.unit(0).executedCount(), 2u);
    EXPECT_TRUE(pim.unit(0).halted());
    // Unflipped units ran the original ADD: 3 + 3.
    EXPECT_EQ(pim.unit(1).regs().grf(0, 0)[0].bits(), Fp16(6.0f).bits());
    EXPECT_EQ(pim.unit(1).sdcExposed(), 0u);
    EXPECT_EQ(pim.stats().counter("pim.sdcExposed"), 1u);
    EXPECT_EQ(pim.stats().counter("pim.op.MUL"), 1u);
    EXPECT_EQ(pim.stats().counter("pim.op.ADD"), 15u);
}

TEST_F(CrfChangeFixture, SetCrfRewriteBetweenTriggersRunsNewWord)
{
    // The flip lands before the first trigger, whose decode-ahead of
    // slot 1 consumes it (one exposure); the rewrite then replaces the
    // poisoned word before it executes.
    arm();
    pim.unit(0).regs().flipCrfBit(1, kAddToMulBit);
    issue(Command::rd(0, 0, 0)); // ADD: GRF_A[0] = 3
    EXPECT_EQ(pim.unit(0).sdcExposed(), 1u);
    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        pim.unit(u).regs().setCrf(
            1, PimInst::mov(OperandSpace::GrfA, 1, OperandSpace::GrfA, 0)
                   .encode());
    }
    issue(Command::rd(0, 0, 1)); // the rewritten word: MOV GRF_A[1]
    issue(Command::rd(0, 0, 2));

    for (unsigned u = 0; u < pim.numUnits(); ++u) {
        EXPECT_EQ(pim.unit(u).regs().grf(0, 0)[0].bits(), Fp16(3.0f).bits())
            << "unit " << u;
        EXPECT_EQ(pim.unit(u).regs().grf(0, 1)[0].bits(), Fp16(3.0f).bits())
            << "unit " << u;
        EXPECT_EQ(pim.unit(u).executedCount(), 2u);
        EXPECT_TRUE(pim.unit(u).halted());
    }
    EXPECT_EQ(pim.unit(0).sdcExposed(), 1u);
    EXPECT_EQ(pim.stats().counter("pim.sdcExposed"), 1u);
    EXPECT_EQ(pim.stats().counter("pim.op.MOV"), 8u);
    EXPECT_EQ(pim.stats().counter("pim.op.MUL"), 0u);
}

} // namespace
} // namespace pimsim
