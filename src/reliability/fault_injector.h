/**
 * @file
 * Deterministic fault-injection campaigns over a PimSystem.
 *
 * Models the device-level fault classes a reliability study of the
 * paper's PIM-HBM cares about:
 *
 *  - transient single-bit flips in the DRAM arrays (particle strikes /
 *    retention failures) — repaired by on-die SEC-DED or the scrubber;
 *  - stuck-at cells (manufacturing / wear-out defects) — re-corrupt the
 *    array after every write, so scrubbing cannot permanently clear them;
 *  - burst errors — several flips clustered in a short span, the pattern
 *    that defeats a per-word SEC-DED code (uncorrectable);
 *  - bit flips in the PIM execution units' register files (GRF/SRF/CRF),
 *    which have no ECC — CRF corruption yields illegal instructions the
 *    decode stage must detect rather than crash on.
 *
 * All randomness flows from the repo's deterministic Rng: a campaign with
 * the same seed, rates and target system injects exactly the same faults.
 */

#ifndef PIMSIM_RELIABILITY_FAULT_INJECTOR_H
#define PIMSIM_RELIABILITY_FAULT_INJECTOR_H

#include <cstdint>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace pimsim {

class PimSystem;

/**
 * Expected fault counts per injection step, by region. Values above 1
 * inject multiple faults per step; fractional parts are resolved by a
 * Bernoulli draw, so long campaigns converge to the configured rate.
 */
struct FaultRates
{
    double dramTransient = 0.0; ///< single-bit flips in DRAM arrays
    double dramStuck = 0.0;     ///< new stuck-at cells in DRAM arrays
    double dramBurst = 0.0;     ///< clustered multi-bit array faults
    double pimGrf = 0.0;        ///< GRF lane bit flips
    double pimSrf = 0.0;        ///< SRF scalar bit flips
    double pimCrf = 0.0;        ///< CRF instruction-word bit flips

    bool any() const
    {
        return dramTransient > 0 || dramStuck > 0 || dramBurst > 0 ||
               pimGrf > 0 || pimSrf > 0 || pimCrf > 0;
    }
};

/** Running totals of injected faults, by class. */
struct FaultCounts
{
    std::uint64_t dramTransient = 0;
    std::uint64_t dramStuck = 0;
    std::uint64_t dramBurst = 0;
    std::uint64_t pimGrf = 0;
    std::uint64_t pimSrf = 0;
    std::uint64_t pimCrf = 0;

    std::uint64_t total() const
    {
        return dramTransient + dramStuck + dramBurst + pimGrf + pimSrf +
               pimCrf;
    }
};

/**
 * Injects faults into a live PimSystem and schedules injections over
 * simulated time (the campaign controller). The system must be
 * functional: faults live in operand bytes a timing-only system never
 * holds (PimSystem::requireFunctional).
 */
class FaultInjector
{
  public:
    FaultInjector(PimSystem &system, const FaultRates &rates,
                  std::uint64_t seed);

    /**
     * Perform one injection step: draw a fault count for every region
     * from its rate and plant the faults. DRAM faults only target rows
     * that are currently allocated (touched) — faults in never-written
     * rows are invisible to any workload and would only dilute the
     * campaign.
     */
    void step();

    /**
     * Run a campaign: `steps` times, advance simulated time by
     * `interval` cycles and perform one injection step.
     */
    void runCampaign(Cycle interval, unsigned steps);

    /**
     * Plant exactly one uncorrectable (SEC-DED-defeating) DRAM burst
     * fault, independent of the configured rates. External campaign
     * drivers — the serving layer's ChaosCampaign — use this to mirror
     * their fault events into the live device.
     * @return false when no channel has an allocated row to corrupt.
     */
    bool injectUncorrectableBurst();

    const FaultRates &rates() const { return rates_; }
    const FaultCounts &counts() const { return counts_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    /** Number of faults to inject this step for a given rate. */
    unsigned drawCount(double rate);

    /**
     * Pick a random allocated DRAM burst across all channels.
     * @return false if no channel has any allocated row yet.
     */
    bool pickDramBurst(unsigned &channel, unsigned &bank, unsigned &row,
                       unsigned &col);

    void injectDramTransient();
    void injectDramStuck();
    void injectDramBurst();
    void injectPimGrf();
    void injectPimSrf();
    void injectPimCrf();

    /** Pick a random PIM unit. @return false if the device has no PIM. */
    bool pickPimUnit(unsigned &channel, unsigned &unit);

    PimSystem &system_;
    FaultRates rates_;
    Rng rng_;
    FaultCounts counts_;
    StatGroup stats_;
};

} // namespace pimsim

#endif // PIMSIM_RELIABILITY_FAULT_INJECTOR_H
