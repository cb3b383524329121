/**
 * @file
 * Memory controller tests: data integrity through the full command path,
 * FR-FCFS row-hit prioritisation, ordered-window semantics, refresh,
 * config validation, and the LLC model.
 */

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/controller.h"
#include "mem/llc.h"
#include "sim/system.h"

namespace pimsim {
namespace {

SystemConfig
tinyConfig(MemoryKind kind)
{
    SystemConfig c;
    c.kind = kind;
    c.numStacks = 1;
    c.geometry.rowsPerBank = 256;
    return c;
}

MemRequest
readReq(unsigned bg, unsigned ba, unsigned row, unsigned col,
        std::uint64_t id)
{
    MemRequest r;
    r.type = RequestType::Read;
    r.coord.bankGroup = bg;
    r.coord.bank = ba;
    r.coord.row = row;
    r.coord.col = col;
    r.id = id;
    return r;
}

MemRequest
writeReq(unsigned bg, unsigned ba, unsigned row, unsigned col,
         std::uint64_t id, const Burst &data)
{
    MemRequest r = readReq(bg, ba, row, col, id);
    r.type = RequestType::Write;
    r.data = data;
    return r;
}

TEST(Controller, WriteThenReadReturnsData)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    Burst data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i + 1);

    ASSERT_TRUE(sys.tryEnqueue(0, writeReq(1, 2, 10, 4, 1, data)));
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(1, 2, 10, 4, 2)));
    sys.runUntilIdle();

    const auto responses = sys.drain(0);
    ASSERT_EQ(responses.size(), 2u);
    const auto &rd = responses.back();
    EXPECT_EQ(rd.id, 2u);
    EXPECT_EQ(rd.data, data);
}

TEST(Controller, ManyRandomAccessesKeepIntegrity)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    Rng rng(313);
    std::map<std::tuple<unsigned, unsigned, unsigned, unsigned>, Burst>
        model;

    std::uint64_t id = 0;
    for (int round = 0; round < 40; ++round) {
        // A burst of writes...
        for (int i = 0; i < 30; ++i) {
            const unsigned bg = static_cast<unsigned>(rng.nextBelow(4));
            const unsigned ba = static_cast<unsigned>(rng.nextBelow(4));
            const unsigned row = static_cast<unsigned>(rng.nextBelow(32));
            const unsigned col = static_cast<unsigned>(rng.nextBelow(32));
            Burst data;
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.nextBelow(256));
            model[{bg, ba, row, col}] = data;
            while (!sys.tryEnqueue(0, writeReq(bg, ba, row, col, id, data)))
                sys.step();
            ++id;
        }
        sys.runUntilIdle();
        sys.drain(0);

        // ... then verify a sample of reads.
        std::vector<std::tuple<unsigned, unsigned, unsigned, unsigned>> keys;
        for (const auto &kv : model)
            keys.push_back(kv.first);
        std::vector<Burst> expected;
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 10 && !keys.empty(); ++i) {
            const auto &key = keys[rng.nextBelow(keys.size())];
            while (!sys.tryEnqueue(0, readReq(std::get<0>(key),
                                              std::get<1>(key),
                                              std::get<2>(key),
                                              std::get<3>(key), id)))
                sys.step();
            ids.push_back(id++);
            expected.push_back(model[key]);
        }
        sys.runUntilIdle();
        const auto responses = sys.drain(0);
        ASSERT_EQ(responses.size(), ids.size());
        for (const auto &resp : responses) {
            for (std::size_t i = 0; i < ids.size(); ++i) {
                if (resp.id == ids[i])
                    EXPECT_EQ(resp.data, expected[i]) << "id " << resp.id;
            }
        }
    }
}

TEST(Controller, RowHitsArePreferred)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    auto &ctrl = sys.controller(0);

    // Open row 1 with a first read, then queue a row-miss and a row-hit.
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 0, 1, 0, 1)));
    sys.runUntilIdle();
    sys.drain(0);

    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 0, 2, 0, 2))); // miss
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 0, 1, 5, 3))); // hit
    sys.runUntilIdle();
    const auto responses = sys.drain(0);
    ASSERT_EQ(responses.size(), 2u);
    // FR-FCFS: the younger row-hit completes first.
    EXPECT_EQ(responses[0].id, 3u);
    EXPECT_EQ(responses[1].id, 2u);
    EXPECT_GE(ctrl.stats().counter("cmd.PRE"), 1u);
}

TEST(Controller, OrderedRequestsStayInOrderAcrossRows)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    // Ordered (PIM) requests: a row-hit younger request must NOT pass an
    // older row-miss beyond the ordered window.
    MemRequest first = readReq(0, 0, 1, 0, 1);
    MemRequest miss = readReq(0, 0, 2, 0, 2);
    MemRequest hit = readReq(0, 0, 1, 5, 3);
    miss.ordered = true;
    hit.ordered = true;

    ASSERT_TRUE(sys.tryEnqueue(0, first));
    sys.runUntilIdle();
    sys.drain(0);

    // Ordered window is 8, but these two target different rows; FR-FCFS
    // would flip them, the ordered path must not flip across 9+.
    sys.controller(0).setOrderedWindow(1);
    ASSERT_TRUE(sys.tryEnqueue(0, miss));
    ASSERT_TRUE(sys.tryEnqueue(0, hit));
    sys.runUntilIdle();
    const auto responses = sys.drain(0);
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].id, 2u);
    EXPECT_EQ(responses[1].id, 3u);
}

TEST(Controller, WriteStreakDrainsBeforeSwitchingToReads)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));

    // Open two rows in distinct banks and finish on a write, so the
    // controller's bus direction is "write" when the mix arrives.
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 1, 2, 0, 1)));
    sys.runUntilIdle();
    sys.drain(0);
    Burst data{};
    data[0] = 0xab;
    ASSERT_TRUE(sys.tryEnqueue(0, writeReq(0, 0, 1, 0, 2, data)));
    sys.runUntilIdle();
    sys.drain(0);

    // Two interleaved independent streams of row hits: reads to
    // (bank 1, row 2), writes to (bank 0, row 1), arriving R/W/R/W/R/W.
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 1, 2, 1, 10)));
    ASSERT_TRUE(sys.tryEnqueue(0, writeReq(0, 0, 1, 1, 11, data)));
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 1, 2, 2, 12)));
    ASSERT_TRUE(sys.tryEnqueue(0, writeReq(0, 0, 1, 2, 13, data)));
    ASSERT_TRUE(sys.tryEnqueue(0, readReq(0, 1, 2, 3, 14)));
    ASSERT_TRUE(sys.tryEnqueue(0, writeReq(0, 0, 1, 3, 15, data)));
    sys.runUntilIdle();
    const auto responses = sys.drain(0);
    ASSERT_EQ(responses.size(), 6u);

    // FR-FCFS with streak preference: the write streak continues (one
    // bus turnaround total), each stream in FIFO order within itself.
    EXPECT_EQ(responses[0].id, 11u);
    EXPECT_EQ(responses[1].id, 13u);
    EXPECT_EQ(responses[2].id, 15u);
    EXPECT_EQ(responses[3].id, 10u);
    EXPECT_EQ(responses[4].id, 12u);
    EXPECT_EQ(responses[5].id, 14u);
}

TEST(Controller, ActivatePrechargeRequestsDriveRows)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    MemRequest act;
    act.type = RequestType::Activate;
    act.coord.row = 42;
    ASSERT_TRUE(sys.tryEnqueue(0, act));
    sys.runUntilIdle();
    sys.drain(0);
    EXPECT_EQ(sys.controller(0).channel().bank(0).openRow, 42u);
    EXPECT_EQ(sys.controller(0).channel().bank(0).state, BankState::Active);

    MemRequest pre;
    pre.type = RequestType::Precharge;
    ASSERT_TRUE(sys.tryEnqueue(0, pre));
    sys.runUntilIdle();
    sys.drain(0);
    EXPECT_EQ(sys.controller(0).channel().bank(0).state, BankState::Idle);
}

TEST(Controller, RefreshHappensPeriodically)
{
    SystemConfig cfg = tinyConfig(MemoryKind::Hbm);
    PimSystem sys(cfg);
    // Keep traffic flowing long enough to cross several tREFI windows.
    std::uint64_t id = 0;
    for (int i = 0; i < 3000; ++i) {
        while (!sys.tryEnqueue(0, readReq(0, 0, 1, i % 32, id)))
            sys.step();
        ++id;
    }
    sys.runUntilIdle();
    sys.drain(0);
    EXPECT_GE(sys.controller(0).stats().counter("refresh"), 1u);
}

TEST(Controller, QueueBackpressure)
{
    PimSystem sys(tinyConfig(MemoryKind::Hbm));
    unsigned accepted = 0;
    for (unsigned i = 0; i < 1000; ++i) {
        if (sys.tryEnqueue(0, readReq(0, 0, 1, i % 32, i)))
            ++accepted;
        else
            break;
    }
    EXPECT_EQ(accepted, sys.controller(0).config().queueDepth);
}

// ---------- LLC ----------

TEST(ControllerDeathTest, RejectsZeroQueueDepthAndWindows)
{
    const HbmGeometry geom;
    const HbmTiming timing;
    auto make = [&](const ControllerConfig &config) {
        MemoryController ctrl(geom, timing, config, false, PimConfig{});
    };
    ControllerConfig config;
    config.queueDepth = 0;
    EXPECT_DEATH(make(config), "must be >= 1");
    config = ControllerConfig{};
    config.reorderWindow = 0;
    EXPECT_DEATH(make(config), "must be >= 1");
    config = ControllerConfig{};
    config.orderedWindow = 0;
    EXPECT_DEATH(make(config), "must be >= 1");
    config = ControllerConfig{};
    config.queueDepth = 70000;
    EXPECT_DEATH(make(config), "queueDepth above");

    MemoryController ctrl(geom, timing, ControllerConfig{}, false,
                          PimConfig{});
    EXPECT_DEATH(ctrl.setOrderedWindow(0), "orderedWindow must be >= 1");
    ctrl.setOrderedWindow(1);
    EXPECT_EQ(ctrl.config().orderedWindow, 1u);
}

TEST(Llc, HitsAfterFirstTouch)
{
    Llc llc(LlcConfig{});
    EXPECT_FALSE(llc.access(0x1000, false).hit);
    EXPECT_TRUE(llc.access(0x1000, false).hit);
    EXPECT_TRUE(llc.access(0x1020, false).hit); // same 64 B line
    EXPECT_FALSE(llc.access(0x1040, false).hit);
}

TEST(Llc, StreamingMissesEverything)
{
    LlcConfig cfg;
    cfg.capacityBytes = 1 << 20;
    Llc llc(cfg);
    // Stream 16 MiB once: every line is a miss.
    for (Addr a = 0; a < (16u << 20); a += cfg.lineBytes)
        EXPECT_FALSE(llc.access(a, false).hit);
    EXPECT_DOUBLE_EQ(llc.missRate(), 1.0);
}

TEST(Llc, LruEviction)
{
    LlcConfig cfg;
    cfg.capacityBytes = 4096; // 4 sets x 16 ways x 64 B
    cfg.ways = 16;
    Llc llc(cfg);
    const unsigned sets = 4;
    // Fill one set with 16 distinct lines, then touch a 17th: the first
    // (LRU) line is evicted.
    for (unsigned i = 0; i < 16; ++i)
        llc.access(i * sets * 64, false);
    for (unsigned i = 1; i < 16; ++i)
        EXPECT_TRUE(llc.access(i * sets * 64, false).hit);
    llc.access(16 * sets * 64, false);
    EXPECT_FALSE(llc.access(0, false).hit); // evicted
}

TEST(Llc, DirtyEvictionsWriteBack)
{
    LlcConfig cfg;
    cfg.capacityBytes = 4096;
    cfg.ways = 16;
    Llc llc(cfg);
    const unsigned sets = 4;
    llc.access(0, true); // dirty
    for (unsigned i = 1; i <= 16; ++i)
        llc.access(i * sets * 64, false);
    bool saw_writeback = false;
    // Touch one more conflicting line; the dirty victim must write back.
    Llc llc2(cfg);
    llc2.access(0, true);
    for (unsigned i = 1; i <= 16; ++i) {
        const auto r = llc2.access(i * sets * 64, false);
        if (r.writeback && *r.writeback == 0)
            saw_writeback = true;
    }
    EXPECT_TRUE(saw_writeback);
    (void)saw_writeback;
}

TEST(Llc, FlushInvalidates)
{
    Llc llc(LlcConfig{});
    llc.access(0x40, false);
    EXPECT_TRUE(llc.access(0x40, false).hit);
    llc.flush();
    EXPECT_FALSE(llc.access(0x40, false).hit);
}

} // namespace
} // namespace pimsim
