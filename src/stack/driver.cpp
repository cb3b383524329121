#include "stack/driver.h"

#include <algorithm>

#include "common/logging.h"
#include "pim/pim_config.h"

namespace pimsim {

const char *
pimStatusName(PimStatus status)
{
    switch (status) {
      case PimStatus::Ok:
        return "Ok";
      case PimStatus::OutOfRows:
        return "OutOfRows";
      case PimStatus::InvalidBlock:
        return "InvalidBlock";
    }
    return "?";
}

PimDriver::PimDriver(PimSystem &system)
    : PimDriver(system, 0,
                PimConfMap::forRows(system.config().geometry.rowsPerBank)
                    .firstReservedRow())
{
}

PimDriver::PimDriver(PimSystem &system, unsigned first_row,
                     unsigned row_count)
    : system_(system)
{
    const unsigned limit =
        PimConfMap::forRows(system.config().geometry.rowsPerBank)
            .firstReservedRow();
    baseRow_ = std::min(first_row, limit);
    spanRows_ = std::min(row_count, limit - baseRow_);
    if (spanRows_)
        free_.push_back(Extent{baseRow_, spanRows_});
}

PimStatus
PimDriver::allocRows(unsigned count, PimRowBlock &out)
{
    out = PimRowBlock{};
    if (count == 0)
        return PimStatus::Ok;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->count < count)
            continue;
        out.firstRow = it->first;
        out.numRows = count;
        it->first += count;
        it->count -= count;
        if (it->count == 0)
            free_.erase(it);
        allocated_.push_back(out);
        return PimStatus::Ok;
    }
    return PimStatus::OutOfRows;
}

PimStatus
PimDriver::freeBlock(const PimRowBlock &block)
{
    if (block.numRows == 0)
        return PimStatus::Ok;
    const auto live = std::find_if(
        allocated_.begin(), allocated_.end(), [&](const PimRowBlock &b) {
            return b.firstRow == block.firstRow &&
                   b.numRows == block.numRows;
        });
    if (live == allocated_.end())
        return PimStatus::InvalidBlock;
    allocated_.erase(live);

    // Insert sorted by first row, then coalesce with both neighbours.
    const auto pos = std::lower_bound(
        free_.begin(), free_.end(), block.firstRow,
        [](const Extent &e, unsigned first) { return e.first < first; });
    auto it = free_.insert(pos, Extent{block.firstRow, block.numRows});
    if (it != free_.begin()) {
        auto prev = it - 1;
        if (prev->first + prev->count == it->first) {
            prev->count += it->count;
            it = free_.erase(it) - 1;
        }
    }
    if (it + 1 != free_.end()) {
        auto next = it + 1;
        if (it->first + it->count == next->first) {
            it->count += next->count;
            free_.erase(next);
        }
    }
    return PimStatus::Ok;
}

void
PimDriver::reset()
{
    free_.clear();
    if (spanRows_)
        free_.push_back(Extent{baseRow_, spanRows_});
    allocated_.clear();
}

unsigned
PimDriver::freeRows() const
{
    unsigned total = 0;
    for (const Extent &e : free_)
        total += e.count;
    return total;
}

unsigned
PimDriver::largestFreeExtent() const
{
    unsigned best = 0;
    for (const Extent &e : free_)
        best = std::max(best, e.count);
    return best;
}

void
PimDriver::preload(unsigned channel, unsigned flat_bank, unsigned row,
                   unsigned col, const Burst &data)
{
    system_.controller(channel).channel().dataStore().write(flat_bank, row,
                                                            col, data);
}

Burst
PimDriver::peek(unsigned channel, unsigned flat_bank, unsigned row,
                unsigned col) const
{
    system_.requireFunctional("PimDriver::peek");
    return system_.controller(channel).channel().dataStore().read(flat_bank,
                                                                  row, col);
}

Burst
PimDriver::peekChecked(unsigned channel, unsigned flat_bank, unsigned row,
                       unsigned col, EccStatus *ecc) const
{
    system_.requireFunctional("PimDriver::peekChecked");
    return system_.controller(channel).channel().dataStore().read(
        flat_bank, row, col, ecc);
}

} // namespace pimsim
