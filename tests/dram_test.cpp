/**
 * @file
 * DRAM substrate tests: address mapping, data store, bank timing and
 * the pseudo-channel state machine (SB and AB modes).
 */

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/address.h"
#include "dram/pseudo_channel.h"

namespace pimsim {
namespace {

HbmGeometry
smallGeom()
{
    HbmGeometry g;
    g.rowsPerBank = 256;
    return g;
}

// ---------- Address mapping ----------

class AddressMappingTest : public ::testing::TestWithParam<MappingScheme>
{
};

TEST_P(AddressMappingTest, RoundTripRandomAddresses)
{
    const AddressMapping map(smallGeom(), 64, GetParam());
    Rng rng(101);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr =
            (rng.nextBelow(map.capacity() / kBurstBytes)) * kBurstBytes;
        const DramCoord coord = map.decode(addr);
        EXPECT_EQ(map.encode(coord), addr);
    }
}

TEST_P(AddressMappingTest, RoundTripRandomCoords)
{
    const HbmGeometry g = smallGeom();
    const AddressMapping map(g, 16, GetParam());
    Rng rng(103);
    for (int i = 0; i < 20000; ++i) {
        DramCoord coord;
        coord.channel = static_cast<unsigned>(rng.nextBelow(16));
        coord.bankGroup =
            static_cast<unsigned>(rng.nextBelow(g.bankGroupsPerPch));
        coord.bank =
            static_cast<unsigned>(rng.nextBelow(g.banksPerBankGroup));
        coord.row = static_cast<unsigned>(rng.nextBelow(g.rowsPerBank));
        coord.col = static_cast<unsigned>(rng.nextBelow(g.colsPerRow));
        EXPECT_EQ(map.decode(map.encode(coord)), coord);
    }
}

TEST_P(AddressMappingTest, DistinctAddressesDistinctCoords)
{
    const AddressMapping map(smallGeom(), 4, GetParam());
    const DramCoord a = map.decode(0);
    const DramCoord b = map.decode(kBurstBytes);
    EXPECT_NE(map.encode(a), map.encode(b));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AddressMappingTest,
                         ::testing::Values(MappingScheme::ChBgColBaRo,
                                           MappingScheme::ChColBgBaRo,
                                           MappingScheme::RoColBgBaCh));

TEST(AddressMapping, ChannelInterleaveIsFine)
{
    // With the default scheme, consecutive bursts hit different channels.
    const AddressMapping map(smallGeom(), 64);
    EXPECT_EQ(map.decode(0).channel, 0u);
    EXPECT_EQ(map.decode(kBurstBytes).channel, 1u);
    EXPECT_EQ(map.decode(63 * kBurstBytes).channel, 63u);
    EXPECT_EQ(map.decode(64 * kBurstBytes).channel, 0u);
}

// ---------- Data store ----------

TEST(DataStore, ReadsZeroWhenUntouched)
{
    DataStore store(smallGeom());
    const Burst b = store.read(3, 10, 5);
    for (auto byte : b)
        EXPECT_EQ(byte, 0);
    EXPECT_EQ(store.allocatedBytes(), 0u);
}

TEST(DataStore, WriteReadRoundTrip)
{
    DataStore store(smallGeom());
    Rng rng(107);
    for (int i = 0; i < 5000; ++i) {
        const unsigned bank = static_cast<unsigned>(rng.nextBelow(16));
        const unsigned row = static_cast<unsigned>(rng.nextBelow(256));
        const unsigned col = static_cast<unsigned>(rng.nextBelow(32));
        Burst data;
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.nextBelow(256));
        store.write(bank, row, col, data);
        EXPECT_EQ(store.read(bank, row, col), data);
    }
}

TEST(DataStore, ColumnsAreIndependent)
{
    DataStore store(smallGeom());
    Burst a{};
    a.fill(0xaa);
    Burst b{};
    b.fill(0xbb);
    store.write(0, 0, 0, a);
    store.write(0, 0, 1, b);
    EXPECT_EQ(store.read(0, 0, 0), a);
    EXPECT_EQ(store.read(0, 0, 1), b);
    // Untouched column in an allocated row reads zero.
    EXPECT_EQ(store.read(0, 0, 2), Burst{});
}

/**
 * Reference model of a DataStore: a plain std::map of rows, each with
 * its raw data bytes and (with ECC) check bytes, plus the stuck cells.
 */
class DataStoreModel
{
  public:
    explicit DataStoreModel(const HbmGeometry &g) : geom_(g) {}

    Burst read(unsigned bank, unsigned row, unsigned col, EccStatus &ecc)
    {
        ecc = EccStatus::Ok;
        const auto it = rows_.find({bank, row});
        if (it == rows_.end())
            return Burst{};
        Burst burst = rawBurst(it->second, col);
        if (geom_.onDieEcc) {
            ecc = eccDecodeBurst(burst, checkBytes(it->second, col));
            corrected_ += ecc == EccStatus::Corrected;
            uncorrectable_ += ecc == EccStatus::Uncorrectable;
        }
        return burst;
    }

    Burst readRaw(unsigned bank, unsigned row, unsigned col) const
    {
        const auto it = rows_.find({bank, row});
        return it == rows_.end() ? Burst{} : rawBurst(it->second, col);
    }

    void write(unsigned bank, unsigned row, unsigned col, const Burst &data)
    {
        Row &r = allocate(bank, row);
        std::copy(data.begin(), data.end(), r.data.begin() + col * 32);
        if (geom_.onDieEcc) {
            const EccBytes check = eccEncodeBurst(data);
            std::copy(check.begin(), check.end(), r.check.begin() + col * 4);
        }
        applyStuck(bank, row, col);
    }

    void injectBitFlip(unsigned bank, unsigned row, unsigned col,
                       unsigned bit)
    {
        allocate(bank, row).data[col * 32 + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
    }

    void setStuckBit(unsigned bank, unsigned row, unsigned col,
                     unsigned bit, bool value)
    {
        stuck_[{bank, row}][{col, bit}] = value;
        allocate(bank, row);
        applyStuck(bank, row, col);
    }

    void clearStuckBits() { stuck_.clear(); }

    ScrubOutcome scrubBurst(unsigned bank, unsigned row, unsigned col)
    {
        ScrubOutcome out;
        const auto it = rows_.find({bank, row});
        if (!geom_.onDieEcc || it == rows_.end())
            return out;
        Row &r = it->second;
        for (unsigned w = 0; w < 4; ++w) {
            std::uint64_t word = 0;
            for (unsigned b = 0; b < 8; ++b)
                word |= std::uint64_t{r.data[col * 32 + 8 * w + b]}
                        << (8 * b);
            const EccStatus status =
                eccDecodeWord(word, r.check[col * 4 + w]);
            if (status == EccStatus::Uncorrectable)
                ++out.uncorrectable;
            if (status != EccStatus::Corrected)
                continue;
            ++out.corrected;
            for (unsigned b = 0; b < 8; ++b)
                r.data[col * 32 + 8 * w + b] =
                    static_cast<std::uint8_t>(word >> (8 * b));
            r.check[col * 4 + w] = eccEncodeWord(word);
        }
        if (out.corrected)
            applyStuck(bank, row, col);
        return out;
    }

    std::vector<std::pair<unsigned, unsigned>> allocatedRows() const
    {
        std::vector<std::pair<unsigned, unsigned>> out;
        for (const auto &entry : rows_)
            out.push_back(entry.first);
        return out;
    }

    std::size_t allocatedBytes() const
    {
        return rows_.size() * geom_.bytesPerRow();
    }

    std::uint64_t corrected() const { return corrected_; }
    std::uint64_t uncorrectable() const { return uncorrectable_; }

  private:
    struct Row
    {
        std::vector<std::uint8_t> data;
        std::vector<std::uint8_t> check;
    };

    Row &allocate(unsigned bank, unsigned row)
    {
        Row &r = rows_[{bank, row}];
        if (r.data.empty()) {
            r.data.assign(geom_.bytesPerRow(), 0);
            const EccBytes zero = eccEncodeBurst(Burst{});
            for (unsigned c = 0; c < geom_.colsPerRow; ++c)
                r.check.insert(r.check.end(), zero.begin(), zero.end());
        }
        return r;
    }

    static Burst rawBurst(const Row &r, unsigned col)
    {
        Burst burst;
        std::copy_n(r.data.begin() + col * 32, 32, burst.begin());
        return burst;
    }

    static EccBytes checkBytes(const Row &r, unsigned col)
    {
        EccBytes check;
        std::copy_n(r.check.begin() + col * 4, 4, check.begin());
        return check;
    }

    void applyStuck(unsigned bank, unsigned row, unsigned col)
    {
        const auto it = stuck_.find({bank, row});
        if (it == stuck_.end())
            return;
        Row &r = rows_.at({bank, row});
        for (const auto &[cell, value] : it->second) {
            if (cell.first != col)
                continue;
            std::uint8_t &byte = r.data[col * 32 + cell.second / 8];
            const unsigned mask = 1u << (cell.second % 8);
            byte = static_cast<std::uint8_t>(value ? byte | mask
                                                   : byte & ~mask);
        }
    }

    HbmGeometry geom_;
    std::map<std::pair<unsigned, unsigned>, Row> rows_;
    /** (bank, row) -> (col, bit) -> stuck value. */
    std::map<std::pair<unsigned, unsigned>,
             std::map<std::pair<unsigned, unsigned>, bool>>
        stuck_;
    std::uint64_t corrected_ = 0;
    std::uint64_t uncorrectable_ = 0;
};

class DataStoreModelTest : public ::testing::TestWithParam<bool>
{
};

TEST_P(DataStoreModelTest, RandomOpsMatchReferenceModel)
{
    // Three banks whose accesses hop between rows that evict each other
    // from the per-bank row slot, with reads of rows before their first
    // write, against a plain std::map model.
    setQuiet(true); // uncorrectable reads warn
    HbmGeometry g = smallGeom();
    g.onDieEcc = GetParam();
    DataStore store(g);
    DataStoreModel model(g);
    const unsigned banks[] = {0, 7, 15};
    const unsigned rows[] = {0, 1, 2, 255};
    Rng rng(GetParam() ? 0xecc : 0x5107);
    for (int step = 0; step < 20000; ++step) {
        const unsigned bank = banks[rng.nextBelow(3)];
        const unsigned row = rows[rng.nextBelow(4)];
        const auto col = static_cast<unsigned>(rng.nextBelow(4));
        const auto bit = static_cast<unsigned>(rng.nextBelow(256));
        const auto op = rng.nextBelow(100);
        SCOPED_TRACE(::testing::Message()
                     << "step " << step << " op " << op << " bank " << bank
                     << " row " << row << " col " << col);
        if (op < 30) {
            Burst data;
            for (auto &byte : data)
                byte = static_cast<std::uint8_t>(rng.nextBelow(256));
            store.write(bank, row, col, data);
            model.write(bank, row, col, data);
        } else if (op < 60) {
            EccStatus got = EccStatus::Ok, want = EccStatus::Ok;
            ASSERT_EQ(store.read(bank, row, col, &got),
                      model.read(bank, row, col, want));
            ASSERT_EQ(got, want);
        } else if (op < 70) {
            ASSERT_EQ(store.readRaw(bank, row, col),
                      model.readRaw(bank, row, col));
        } else if (op < 82) {
            store.injectBitFlip(bank, row, col, bit);
            model.injectBitFlip(bank, row, col, bit);
        } else if (op < 86) {
            const bool value = rng.nextBelow(2) != 0;
            store.setStuckBit(bank, row, col, bit, value);
            model.setStuckBit(bank, row, col, bit, value);
        } else if (op < 87) {
            store.clearStuckBits();
            model.clearStuckBits();
        } else {
            const ScrubOutcome got = store.scrubBurst(bank, row, col);
            const ScrubOutcome want = model.scrubBurst(bank, row, col);
            ASSERT_EQ(got.corrected, want.corrected);
            ASSERT_EQ(got.uncorrectable, want.uncorrectable);
        }
        ASSERT_EQ(store.allocatedRows(), model.allocatedRows());
        ASSERT_EQ(store.allocatedRowCount(), model.allocatedRows().size());
        ASSERT_EQ(store.allocatedBytes(), model.allocatedBytes());
    }
    EXPECT_EQ(store.eccCorrected(), model.corrected());
    EXPECT_EQ(store.eccUncorrectable(), model.uncorrectable());
    if (GetParam()) {
        // Non-vacuity: the sequence exercised both ECC outcomes.
        EXPECT_GT(model.corrected(), 0u);
        EXPECT_GT(model.uncorrectable(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(EccOnOff, DataStoreModelTest, ::testing::Bool());

// ---------- Pseudo channel timing ----------

struct PchFixture : public ::testing::Test
{
    PchFixture() : pch(smallGeom(), timing) {}

    /** Issue when legal, returning the issue cycle. */
    Cycle
    issueNext(const Command &cmd)
    {
        now = pch.earliestIssue(cmd, now);
        pch.issue(cmd, now);
        return now;
    }

    HbmTiming timing;
    PseudoChannel pch;
    Cycle now = 0;
};

TEST_F(PchFixture, ActToReadHonoursTrcd)
{
    const Cycle act = issueNext(Command::act(0, 0, 5));
    const Cycle rd = issueNext(Command::rd(0, 0, 0));
    EXPECT_GE(rd - act, timing.tRCDRD);
}

TEST_F(PchFixture, ActToPreHonoursTras)
{
    const Cycle act = issueNext(Command::act(1, 2, 9));
    const Cycle pre = issueNext(Command::pre(1, 2));
    EXPECT_GE(pre - act, timing.tRAS);
}

TEST_F(PchFixture, PreToActHonoursTrp)
{
    issueNext(Command::act(0, 0, 1));
    const Cycle pre = issueNext(Command::pre(0, 0));
    const Cycle act = issueNext(Command::act(0, 0, 2));
    EXPECT_GE(act - pre, timing.tRP);
}

TEST_F(PchFixture, BackToBackReadsSameBankGroupUseTccdL)
{
    issueNext(Command::act(0, 0, 1));
    issueNext(Command::act(0, 1, 1));
    const Cycle rd1 = issueNext(Command::rd(0, 0, 0));
    const Cycle rd2 = issueNext(Command::rd(0, 1, 0));
    EXPECT_GE(rd2 - rd1, timing.tCCDL);
}

TEST_F(PchFixture, BackToBackReadsAcrossBankGroupsUseTccdS)
{
    issueNext(Command::act(0, 0, 1));
    issueNext(Command::act(1, 0, 1));
    now += 100; // both banks long past tRCD
    const Cycle rd1 = issueNext(Command::rd(0, 0, 0));
    const Cycle rd2 = issueNext(Command::rd(1, 0, 0));
    EXPECT_EQ(rd2 - rd1, timing.tCCDS);
}

TEST_F(PchFixture, WriteToReadTurnaround)
{
    issueNext(Command::act(0, 0, 1));
    Burst data{};
    const Cycle wr = issueNext(Command::wr(0, 0, 0, data));
    const Cycle rd = issueNext(Command::rd(0, 0, 1));
    EXPECT_GE(rd - wr, timing.tCWL + timing.tBL + timing.tWTRL);
}

TEST_F(PchFixture, FourActivateWindow)
{
    // Five activates to different bank groups: the fifth must respect
    // tFAW relative to the first.
    std::vector<Cycle> acts;
    for (unsigned i = 0; i < 5; ++i)
        acts.push_back(issueNext(Command::act(i % 4, i / 4, 1)));
    EXPECT_GE(acts[4] - acts[0], timing.tFAW);
}

TEST_F(PchFixture, FunctionalReadBack)
{
    issueNext(Command::act(2, 1, 7));
    Burst data;
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 3 + 1);
    issueNext(Command::wr(2, 1, 4, data));
    now += 100;
    const IssueResult r = pch.issue(
        Command::rd(2, 1, 4), pch.earliestIssue(Command::rd(2, 1, 4), now));
    EXPECT_EQ(r.data, data);
    EXPECT_NE(r.dataCycle, kNoCycle);
}

TEST_F(PchFixture, ReadLatencyIsDeterministic)
{
    // PIM's key enabling property (Section III-A): every column command
    // completes with the same fixed latency, whenever it issues.
    issueNext(Command::act(0, 0, 3));
    std::vector<Cycle> latencies;
    for (unsigned i = 0; i < 8; ++i) {
        const Command cmd = Command::rd(0, 0, i);
        now = pch.earliestIssue(cmd, now + i * 13); // jittered issue times
        const IssueResult r = pch.issue(cmd, now);
        latencies.push_back(r.dataCycle - now);
    }
    for (Cycle lat : latencies)
        EXPECT_EQ(lat, timing.tCL + timing.tBL);
}

TEST_F(PchFixture, AllBankModeAppliesToEveryBank)
{
    pch.setAllBankMode(true);
    issueNext(Command::act(0, 0, 5));
    for (unsigned b = 0; b < 16; ++b) {
        EXPECT_EQ(pch.bank(b).state, BankState::Active);
        EXPECT_EQ(pch.bank(b).openRow, 5u);
    }
    Burst data{};
    data.fill(0x5a);
    issueNext(Command::wr(0, 0, 3, data));
    // AB-mode write broadcasts to every bank.
    for (unsigned b = 0; b < 16; ++b)
        EXPECT_EQ(pch.dataStore().read(b, 5, 3), data);
    issueNext(Command::preAll());
    EXPECT_TRUE(pch.allBanksIdle());
}

TEST_F(PchFixture, AbModeColumnsPacedAtTccdL)
{
    pch.setAllBankMode(true);
    issueNext(Command::act(0, 0, 1));
    const Cycle rd1 = issueNext(Command::rd(0, 0, 0));
    const Cycle rd2 = issueNext(Command::rd(0, 0, 1));
    EXPECT_EQ(rd2 - rd1, timing.tCCDL);
}

TEST_F(PchFixture, RefreshBlocksActivates)
{
    issueNext(Command::act(0, 0, 1));
    issueNext(Command::preAll());
    const Cycle ref = issueNext(Command::refresh());
    const Cycle act = issueNext(Command::act(0, 0, 1));
    EXPECT_GE(act - ref, timing.tRFC);
}

} // namespace
} // namespace pimsim
