/**
 * @file
 * On-die ECC tests (Section VIII): SEC-DED code properties, exhaustive
 * single-bit correction, double-bit detection, fault injection through
 * the data store, and end-to-end PIM execution over a faulty bank.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/ecc.h"
#include "stack/blas.h"
#include "stack/reference.h"

namespace pimsim {
namespace {

TEST(Ecc, StatusNamesAreStable)
{
    EXPECT_STREQ(eccStatusName(EccStatus::Ok), "Ok");
    EXPECT_STREQ(eccStatusName(EccStatus::Corrected), "Corrected");
    EXPECT_STREQ(eccStatusName(EccStatus::Uncorrectable), "Uncorrectable");
}

TEST(Ecc, StatusNamesAreExhaustiveAndDistinct)
{
    // Every enumerator maps to a real name (never the "?" fallback the
    // switch leaves for out-of-range values) and no two names collide.
    const EccStatus all[] = {EccStatus::Ok, EccStatus::Corrected,
                             EccStatus::Uncorrectable};
    for (std::size_t i = 0; i < std::size(all); ++i) {
        const char *name = eccStatusName(all[i]);
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?");
        EXPECT_GT(std::strlen(name), 0u);
        for (std::size_t j = i + 1; j < std::size(all); ++j)
            EXPECT_STRNE(name, eccStatusName(all[j]));
    }
}

TEST(Ecc, CleanWordsPass)
{
    Rng rng(1);
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t data = rng.next();
        const std::uint8_t check = eccEncodeWord(data);
        std::uint64_t copy = data;
        EXPECT_EQ(eccDecodeWord(copy, check), EccStatus::Ok);
        EXPECT_EQ(copy, data);
    }
}

TEST(Ecc, EverySingleDataBitFlipIsCorrected)
{
    Rng rng(2);
    for (int trial = 0; trial < 50; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = eccEncodeWord(data);
        for (unsigned bit = 0; bit < 64; ++bit) {
            std::uint64_t corrupted = data ^ (std::uint64_t{1} << bit);
            EXPECT_EQ(eccDecodeWord(corrupted, check),
                      EccStatus::Corrected)
                << "bit " << bit;
            EXPECT_EQ(corrupted, data) << "bit " << bit;
        }
    }
}

TEST(Ecc, CheckBitFlipsAreCorrectedWithoutTouchingData)
{
    Rng rng(3);
    for (int trial = 0; trial < 200; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = eccEncodeWord(data);
        for (unsigned bit = 0; bit < 8; ++bit) {
            std::uint64_t copy = data;
            const auto corrupted_check =
                static_cast<std::uint8_t>(check ^ (1u << bit));
            EXPECT_EQ(eccDecodeWord(copy, corrupted_check),
                      EccStatus::Corrected);
            EXPECT_EQ(copy, data);
        }
    }
}

TEST(Ecc, DoubleBitFlipsAreDetected)
{
    Rng rng(4);
    for (int trial = 0; trial < 5000; ++trial) {
        const std::uint64_t data = rng.next();
        const std::uint8_t check = eccEncodeWord(data);
        const unsigned b1 = static_cast<unsigned>(rng.nextBelow(64));
        unsigned b2 = static_cast<unsigned>(rng.nextBelow(64));
        while (b2 == b1)
            b2 = static_cast<unsigned>(rng.nextBelow(64));
        std::uint64_t corrupted = data ^ (std::uint64_t{1} << b1) ^
                                  (std::uint64_t{1} << b2);
        EXPECT_EQ(eccDecodeWord(corrupted, check),
                  EccStatus::Uncorrectable);
    }
}

TEST(Ecc, BurstEncodeDecodeRoundTrip)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        Burst data;
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.nextBelow(256));
        const EccBytes check = eccEncodeBurst(data);
        Burst copy = data;
        EXPECT_EQ(eccDecodeBurst(copy, check), EccStatus::Ok);
        EXPECT_EQ(copy, data);

        // Flip one random bit: corrected.
        const unsigned bit =
            static_cast<unsigned>(rng.nextBelow(kBurstBytes * 8));
        copy[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        EXPECT_EQ(eccDecodeBurst(copy, check), EccStatus::Corrected);
        EXPECT_EQ(copy, data);
    }
}

// ---------- data store integration ----------

HbmGeometry
eccGeom()
{
    HbmGeometry g;
    g.rowsPerBank = 64;
    g.onDieEcc = true;
    return g;
}

TEST(EccDataStore, CorrectsInjectedFaultOnRead)
{
    DataStore store(eccGeom());
    Burst data;
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    store.write(2, 5, 9, data);
    store.injectBitFlip(2, 5, 9, 100);
    EXPECT_EQ(store.read(2, 5, 9), data); // corrected transparently
    EXPECT_EQ(store.eccCorrected(), 1u);
    EXPECT_EQ(store.eccUncorrectable(), 0u);
}

TEST(EccDataStore, DetectsDoubleFault)
{
    setQuiet(true);
    DataStore store(eccGeom());
    Burst data{};
    data.fill(0x3c);
    store.write(0, 1, 0, data);
    store.injectBitFlip(0, 1, 0, 10);
    store.injectBitFlip(0, 1, 0, 11);
    store.read(0, 1, 0);
    EXPECT_EQ(store.eccUncorrectable(), 1u);
}

TEST(EccDataStore, UntouchedRowsReadZeroWithoutErrors)
{
    DataStore store(eccGeom());
    EXPECT_EQ(store.read(0, 0, 0), Burst{});
    EXPECT_EQ(store.eccCorrected(), 0u);
    EXPECT_EQ(store.eccUncorrectable(), 0u);
}

TEST(EccDataStore, FlipInNeverWrittenRowIsCorrected)
{
    // A fault planted before a row's first write must meet valid check
    // bytes: the row allocates its data and its all-zero-burst check
    // bytes together, whichever operation touches it first.
    DataStore store(eccGeom());
    store.injectBitFlip(1, 7, 0, 13);
    ASSERT_NE(store.readRaw(1, 7, 0), Burst{}); // the fault is stored
    EccStatus ecc = EccStatus::Ok;
    EXPECT_EQ(store.read(1, 7, 0, &ecc), Burst{});
    EXPECT_EQ(ecc, EccStatus::Corrected);
    EXPECT_EQ(store.eccCorrected(), 1u);

    const ScrubOutcome outcome = store.scrubBurst(1, 7, 0);
    EXPECT_EQ(outcome.corrected, 1u);
    EXPECT_EQ(store.readRaw(1, 7, 0), Burst{}); // repaired in place
}

TEST(EccDataStore, ZeroColumnsOfWrittenRowsCheckClean)
{
    // Writing one column allocates the whole row; the other columns'
    // check bytes must validate the all-zero pattern.
    DataStore store(eccGeom());
    Burst data{};
    data.fill(0xff);
    store.write(1, 2, 3, data);
    EXPECT_EQ(store.read(1, 2, 4), Burst{});
    EXPECT_EQ(store.eccCorrected(), 0u);
    EXPECT_EQ(store.eccUncorrectable(), 0u);
}

TEST(EccDataStore, DoubleBitDetectedInEveryBurstWord)
{
    // A burst holds four independently-coded 64-bit words; a double
    // fault in any one of them must be detected.
    setQuiet(true);
    for (unsigned word = 0; word < 4; ++word) {
        DataStore store(eccGeom());
        Burst data{};
        data.fill(0x96);
        store.write(0, 2, 1, data);
        store.injectBitFlip(0, 2, 1, word * 64 + 5);
        store.injectBitFlip(0, 2, 1, word * 64 + 41);
        EccStatus ecc = EccStatus::Ok;
        store.read(0, 2, 1, &ecc);
        EXPECT_EQ(ecc, EccStatus::Uncorrectable) << "word " << word;
        EXPECT_EQ(store.eccUncorrectable(), 1u) << "word " << word;
    }
}

TEST(EccDataStore, ScrubRepairsSingleFaultInTheArray)
{
    DataStore store(eccGeom());
    Burst data{};
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i + 1);
    store.write(3, 4, 5, data);
    store.injectBitFlip(3, 4, 5, 77);
    ASSERT_NE(store.readRaw(3, 4, 5), data); // stored copy is corrupt

    const ScrubOutcome outcome = store.scrubBurst(3, 4, 5);
    EXPECT_EQ(outcome.corrected, 1u);
    EXPECT_EQ(outcome.uncorrectable, 0u);
    EXPECT_EQ(store.readRaw(3, 4, 5), data); // repaired in place

    // The repaired burst reads clean — scrubbing prevented the single
    // fault from aging into a double one.
    EccStatus ecc = EccStatus::Corrected;
    EXPECT_EQ(store.read(3, 4, 5, &ecc), data);
    EXPECT_EQ(ecc, EccStatus::Ok);
}

TEST(EccDataStore, ScrubReportsButCannotRepairDoubleFault)
{
    setQuiet(true);
    DataStore store(eccGeom());
    Burst data{};
    data.fill(0x0f);
    store.write(1, 1, 1, data);
    store.injectBitFlip(1, 1, 1, 8);
    store.injectBitFlip(1, 1, 1, 9);
    const Burst corrupt = store.readRaw(1, 1, 1);

    const ScrubOutcome outcome = store.scrubBurst(1, 1, 1);
    EXPECT_EQ(outcome.corrected, 0u);
    EXPECT_EQ(outcome.uncorrectable, 1u);
    EXPECT_EQ(store.readRaw(1, 1, 1), corrupt); // left untouched
}

TEST(EccDataStore, StuckBitSurvivesRewriteAndStaysCorrectable)
{
    DataStore store(eccGeom());
    Burst data{};
    store.write(0, 3, 2, data); // all zeros
    store.setStuckBit(0, 3, 2, 12, true);
    EXPECT_EQ(store.stuckBitCount(), 1u);

    // The read corrects the defect (check bytes describe intent)...
    EXPECT_EQ(store.read(0, 3, 2), data);
    EXPECT_EQ(store.eccCorrected(), 1u);

    // ...and rewriting the burst does not clear the cell.
    store.write(0, 3, 2, data);
    EXPECT_NE(store.readRaw(0, 3, 2), data);
    EXPECT_EQ(store.read(0, 3, 2), data);

    // Scrubbing cannot permanently repair it either: the cell re-sticks.
    store.scrubBurst(0, 3, 2);
    EXPECT_NE(store.readRaw(0, 3, 2), data);

    store.clearStuckBits();
    EXPECT_EQ(store.stuckBitCount(), 0u);
    store.write(0, 3, 2, data);
    EXPECT_EQ(store.readRaw(0, 3, 2), data);
}

TEST(EccPim, PimKernelComputesCorrectlyOverFaultyBank)
{
    // Section VIII: PIM leverages the on-die ECC engine even in PIM
    // mode — a single-bit fault under a PIM operand is invisible.
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.numStacks = 1;
    cfg.geometry.rowsPerBank = 512;
    cfg.geometry.onDieEcc = true;
    PimSystem sys(cfg);
    PimBlas blas(sys);

    Rng rng(42);
    Fp16Vector a(4096), b(4096), out;
    for (auto &v : a)
        v = rng.nextFp16();
    for (auto &v : b)
        v = rng.nextFp16();

    // A clean PIM run over an ECC-protected device is bit-exact.
    const BlasTiming t = blas.add(a, b, out);
    (void)t;
    EXPECT_EQ(out.size(), a.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].bits(), fp16Add(a[i], b[i]).bits());

    // Now corrupt a result burst in place and confirm the driver's
    // readback (the next consumer's load) still sees corrected data.
    PimDriver &driver = blas.driver();
    const Burst before = driver.peek(0, 0, 0, 16);
    sys.controller(0).channel().dataStore().injectBitFlip(0, 0, 16, 42);
    EXPECT_EQ(driver.peek(0, 0, 0, 16), before);
    EXPECT_GE(sys.controller(0).channel().dataStore().eccCorrected(), 1u);
}

} // namespace
} // namespace pimsim
