/**
 * @file
 * PIM device driver (Section V-A).
 *
 * The driver reserves the PIM-operable memory space at boot, marks it
 * uncacheable, and hands out physically contiguous blocks so the
 * runtime never worries about virtual-physical translation. In the
 * simulator the reservation is a row-range allocator: PIM operands live
 * at the *same row index in every bank of every channel*, which is what
 * the AB-mode lock-step access pattern requires (one ACT opens the row
 * everywhere).
 *
 * Allocation is a first-fit free list over row extents, so blocks can
 * be released and re-used mid-workload. Exhaustion is a recoverable
 * status, not a fatal error: the runtime falls back to host execution
 * when the PIM region cannot hold a kernel's operands.
 */

#ifndef PIMSIM_STACK_DRIVER_H
#define PIMSIM_STACK_DRIVER_H

#include <vector>

#include "common/types.h"
#include "dram/datastore.h"
#include "sim/system.h"

namespace pimsim {

/** A block of PIM-reserved rows (same indices across channels/banks). */
struct PimRowBlock
{
    unsigned firstRow = 0;
    unsigned numRows = 0;
};

/** Driver call outcomes. */
enum class PimStatus
{
    Ok,           ///< request satisfied
    OutOfRows,    ///< no free extent large enough
    InvalidBlock, ///< block was not allocated by this driver (or freed twice)
};

const char *pimStatusName(PimStatus status);

/** The kernel-side driver for PIM-HBM. */
class PimDriver
{
  public:
    explicit PimDriver(PimSystem &system);

    /**
     * Partitioned driver: allocations are confined to the row range
     * [first_row, first_row + row_count), clamped to the PIM-operable
     * region. Disjoint partitions over one system give tenants hard
     * allocation isolation (the serving layer's channel/row sharding):
     * exhausting one partition can never spill into another.
     */
    PimDriver(PimSystem &system, unsigned first_row, unsigned row_count);

    /**
     * Allocate `count` contiguous rows of PIM space (first fit).
     * On success `out` holds the block; on failure `out` is zeroed and
     * the caller decides how to degrade (host fallback, smaller tiles).
     */
    PimStatus allocRows(unsigned count, PimRowBlock &out);

    /** Return a block to the free list (coalescing with neighbours). */
    PimStatus freeBlock(const PimRowBlock &block);

    /** Release every allocation (end of workload). */
    void reset();

    /** Rows still available (across all free extents). */
    unsigned freeRows() const;

    /** Largest single allocation currently possible. */
    unsigned largestFreeExtent() const;

    /** Total rows this driver's partition spans. */
    unsigned capacityRows() const { return spanRows_; }

    /** First row of this driver's partition. */
    unsigned baseRow() const { return baseRow_; }

    /**
     * Functional preload: place a burst directly into DRAM. Models data
     * that is already resident in the PIM region (e.g. weights mapped at
     * initialisation); not part of timed kernel execution.
     */
    void preload(unsigned channel, unsigned flat_bank, unsigned row,
                 unsigned col, const Burst &data);

    /**
     * Functional readback (verification / untimed result consumption).
     * Rejected on a timing-only system (PimSystem::requireFunctional).
     */
    Burst peek(unsigned channel, unsigned flat_bank, unsigned row,
               unsigned col) const;

    /** Functional readback that also reports the on-die ECC outcome. */
    Burst peekChecked(unsigned channel, unsigned flat_bank, unsigned row,
                      unsigned col, EccStatus *ecc) const;

    PimSystem &system() { return system_; }

  private:
    /** A contiguous run of free rows. */
    struct Extent
    {
        unsigned first = 0;
        unsigned count = 0;
    };

    PimSystem &system_;
    unsigned baseRow_;  ///< first row of this driver's partition
    unsigned spanRows_; ///< rows in the partition (PIM_CONF lives above)
    /** Free extents, sorted by first row, never adjacent (coalesced). */
    std::vector<Extent> free_;
    /** Live allocations, for freeBlock() validation. */
    std::vector<PimRowBlock> allocated_;
};

} // namespace pimsim

#endif // PIMSIM_STACK_DRIVER_H
