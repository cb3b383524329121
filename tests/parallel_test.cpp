/**
 * @file
 * Epoch execution against a stepwise reference. runUntilIdle() replays
 * each channel's whole backlog in one epoch, channel by channel; the
 * reference drives the same workload with `while (sys.step()) {}`, one
 * global event target at a time. Both must leave the same stats
 * registry dump, trace, final cycle and error log — including the
 * (cycle, channel) order of the logged ECC events — with scrubbing and
 * a dense fault campaign in flight (DESIGN.md §14).
 */

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/trace.h"
#include "host/host_model.h"
#include "reliability/fault_injector.h"
#include "sim/system.h"
#include "stack/blas.h"

namespace pimsim {
namespace {

/** How the workload drains the system wherever it waits for idle. */
enum class Drive
{
    Epochs,   ///< sys.runUntilIdle()
    Stepwise, ///< while (sys.step()) {}
};

/** Everything a run produces, stringified for exact comparison. */
struct Digest
{
    Cycle finalCycle = 0;
    std::uint64_t corrected = 0;
    std::uint64_t uncorrectable = 0;
    /** Every logged ECC event as (cycle, channel), in record order (the
     *  error log's bounded recent() ring is the tail of this). */
    std::vector<std::pair<Cycle, unsigned>> errorOrder;
    std::string statsJson;
    std::string trace;

    bool operator==(const Digest &o) const = default;
};

void
drainAll(PimSystem &sys, Drive drive)
{
    if (drive == Drive::Epochs) {
        sys.runUntilIdle();
    } else {
        while (sys.step()) {
        }
    }
}

/**
 * A deterministic mixed workload: random reads and writes across every
 * channel, driven through random interleavings of step(), bounded
 * advance() and drain-to-idle phases, with scrubbing enabled and a
 * fault campaign corrupting the arrays before the traffic starts. The
 * driving sequence depends only on `seed`, never on `drive`.
 */
Digest
runWorkload(Drive drive, std::uint64_t seed)
{
    setQuiet(true); // the campaign logs thousands of ECC warnings
    SystemConfig cfg = SystemConfig::pimHbmSystem();
    cfg.numStacks = 1; // 16 channels keep the test fast
    cfg.geometry.onDieEcc = true;
    cfg.controller.scrubEnabled = true;
    cfg.controller.scrubInterval = 700;
    cfg.controller.scrubBurstsPerStep = 8;

    PimSystem sys(cfg);
    TraceSession trace;
    sys.setTraceSession(&trace);
    Digest d;
    sys.errorLog().setHandler([&d](const MemErrorEvent &e) {
        d.errorOrder.emplace_back(e.cycle, e.channel);
    });

    // Touch rows through the real BLAS path so demand reads and the
    // fault campaign have allocated rows to land on.
    PimBlas blas(sys);
    blas.setTrace(&trace);
    Fp16Vector warm(1024, Fp16(1.0f)), out;
    blas.relu(warm, out);

    // Dense enough that drain phases read faulty bursts on many
    // channels at overlapping cycles, so the log's order is exercised.
    FaultRates rates;
    rates.dramTransient = 400.0;
    rates.dramStuck = 0.5;
    FaultInjector injector(sys, rates, seed ^ 0x7a11);
    injector.runCampaign(/*interval=*/500, /*steps=*/40);

    Rng rng(seed);
    std::uint64_t next_id = 1;
    for (unsigned wave = 0; wave < 24; ++wave) {
        const unsigned burst = 8 + static_cast<unsigned>(rng.nextBelow(24));
        for (unsigned i = 0; i < burst; ++i) {
            MemRequest r;
            r.type = rng.nextBelow(3) ? RequestType::Read
                                      : RequestType::Write;
            r.coord.bankGroup = static_cast<unsigned>(rng.nextBelow(
                cfg.geometry.bankGroupsPerPch));
            r.coord.row = static_cast<unsigned>(rng.nextBelow(64));
            r.coord.col = static_cast<unsigned>(
                rng.nextBelow(cfg.geometry.colsPerRow));
            r.id = next_id++;
            const unsigned ch = static_cast<unsigned>(
                rng.nextBelow(sys.numChannels()));
            (void)sys.tryEnqueue(ch, r);
        }
        switch (rng.nextBelow(3)) {
          case 0:
            for (unsigned s = 0; s < 4 && sys.step(); ++s) {
            }
            break;
          case 1:
            sys.advance(50 + rng.nextBelow(900));
            break;
          default:
            drainAll(sys, drive);
            break;
        }
    }
    drainAll(sys, drive);
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
        (void)sys.drain(ch);

    d.finalCycle = sys.now();
    d.corrected = sys.errorLog().corrected();
    d.uncorrectable = sys.errorLog().uncorrectable();
    std::ostringstream stats;
    sys.dumpStatsJson(stats);
    d.statsJson = stats.str();
    std::ostringstream tr;
    trace.write(tr);
    d.trace = tr.str();
    return d;
}

void
expectSameRun(const Digest &epochs, const Digest &stepwise)
{
    EXPECT_EQ(epochs.finalCycle, stepwise.finalCycle);
    EXPECT_EQ(epochs.corrected, stepwise.corrected);
    EXPECT_EQ(epochs.uncorrectable, stepwise.uncorrectable);
    EXPECT_EQ(epochs.errorOrder, stepwise.errorOrder);
    EXPECT_EQ(epochs.statsJson, stepwise.statsJson);
    EXPECT_EQ(epochs.trace, stepwise.trace);
}

TEST(EpochExecution, MatchesStepwiseReference)
{
    for (const std::uint64_t seed : {0xcafeULL, 1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(seed);
        const Digest epochs = runWorkload(Drive::Epochs, seed);
        EXPECT_GT(epochs.finalCycle, 0u);
        // The campaign must actually bite, or the order check would be
        // vacuous.
        EXPECT_GT(epochs.errorOrder.size(), 100u);
        expectSameRun(epochs, runWorkload(Drive::Stepwise, seed));
    }
}

TEST(EpochExecution, DistinctSeedsDiffer)
{
    // The workload is not degenerate: different seeds give different
    // runs, so the equality above is not comparing constants.
    EXPECT_NE(runWorkload(Drive::Epochs, 1).statsJson,
              runWorkload(Drive::Epochs, 2).statsJson);
}

} // namespace
} // namespace pimsim
