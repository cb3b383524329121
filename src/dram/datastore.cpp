#include "dram/datastore.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "dram/ecc.h"

namespace pimsim {

DataStore::DataStore(const HbmGeometry &geom)
    : geom_(geom),
      rowBytes_(geom.bytesPerRow() +
                (geom.onDieEcc ? std::size_t{geom.colsPerRow} * 4 : 0))
{
    PIMSIM_ASSERT(geom.banksPerPch() <= kMaxBanks,
                  "DataStore supports at most ", kMaxBanks,
                  " banks per pseudo channel");
}

void
DataStore::copyStateFrom(const DataStore &other)
{
    for (const auto &[k, storage] : other.rows_)
        rows_[k] = storage;
    PIMSIM_ASSERT(rows_.size() == other.rows_.size(),
                  "DataStore copy target holds rows its source lacks");
    // The slots cache pointers into rows_; start the cache cold.
    slots_.fill(RowSlot{});
    stuck_ = other.stuck_;
    stuckCount_ = other.stuckCount_;
    eccCorrected_ = other.eccCorrected_;
    eccUncorrectable_ = other.eccUncorrectable_;
}

std::uint8_t *
DataStore::findRow(unsigned bank, unsigned row) const
{
    RowSlot &slot = slots_[bank];
    if (slot.row == row)
        return slot.bytes;
    const auto it = rows_.find(key(bank, row));
    if (it == rows_.end())
        return nullptr;
    // The mapped vector itself is not const; only this accessor is.
    slot = RowSlot{row, const_cast<std::uint8_t *>(it->second.data())};
    return slot.bytes;
}

std::uint8_t *
DataStore::allocateRow(unsigned bank, unsigned row)
{
    if (std::uint8_t *bytes = findRow(bank, row))
        return bytes;
    auto &storage = rows_[key(bank, row)];
    storage.assign(rowBytes_, 0);
    if (geom_.onDieEcc) {
        // Check bytes for an all-zero burst are non-zero only in the
        // parity sense; initialise every column's check correctly.
        const EccBytes zero_check = eccEncodeBurst(Burst{});
        std::uint8_t *check = storage.data() + geom_.bytesPerRow();
        for (unsigned c = 0; c < geom_.colsPerRow; ++c)
            std::memcpy(check + c * 4, zero_check.data(), 4);
    }
    slots_[bank] = RowSlot{row, storage.data()};
    return storage.data();
}

Burst
DataStore::read(unsigned bank, unsigned row, unsigned col,
                EccStatus *ecc) const
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow,
                  "read out of range: bank ", bank, " row ", row, " col ",
                  col);
    if (ecc)
        *ecc = EccStatus::Ok;
    Burst burst{};
    const std::uint8_t *bytes = findRow(bank, row);
    if (!bytes)
        return burst;
    std::memcpy(burst.data(), bytes + col * kBurstBytes, kBurstBytes);

    if (geom_.onDieEcc) {
        EccBytes check;
        std::memcpy(check.data(), bytes + geom_.bytesPerRow() + col * 4, 4);
        const EccStatus status = eccDecodeBurst(burst, check);
        if (ecc)
            *ecc = status;
        switch (status) {
          case EccStatus::Ok:
            break;
          case EccStatus::Corrected:
            ++eccCorrected_;
            break;
          case EccStatus::Uncorrectable:
            ++eccUncorrectable_;
            PIMSIM_WARN("uncorrectable ECC error at bank ", bank, " row ",
                        row, " col ", col);
            break;
        }
        if (status != EccStatus::Ok && eccHook_)
            eccHook_(bank, row, col, status);
    }
    return burst;
}

Burst
DataStore::readRaw(unsigned bank, unsigned row, unsigned col) const
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow,
                  "readRaw out of range: bank ", bank, " row ", row, " col ",
                  col);
    Burst burst{};
    if (const std::uint8_t *bytes = findRow(bank, row))
        std::memcpy(burst.data(), bytes + col * kBurstBytes, kBurstBytes);
    return burst;
}

void
DataStore::write(unsigned bank, unsigned row, unsigned col,
                 const Burst &data)
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow,
                  "write out of range: bank ", bank, " row ", row, " col ",
                  col);
    std::uint8_t *bytes = allocateRow(bank, row);
    std::memcpy(bytes + col * kBurstBytes, data.data(), kBurstBytes);
    if (geom_.onDieEcc) {
        const EccBytes check = eccEncodeBurst(data);
        std::memcpy(bytes + geom_.bytesPerRow() + col * 4, check.data(), 4);
    }
    applyStuckBits(bank, row, col, bytes);
}

std::size_t
DataStore::allocatedBytes() const
{
    return rows_.size() * geom_.bytesPerRow();
}

std::vector<std::pair<unsigned, unsigned>>
DataStore::allocatedRows() const
{
    std::vector<std::pair<unsigned, unsigned>> out;
    out.reserve(rows_.size());
    for (const auto &[k, storage] : rows_) {
        (void)storage;
        out.emplace_back(static_cast<unsigned>(k >> 32),
                         static_cast<unsigned>(k & 0xffffffffu));
    }
    std::sort(out.begin(), out.end());
    return out;
}

void
DataStore::injectBitFlip(unsigned bank, unsigned row, unsigned col,
                         unsigned bit)
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow && bit < kBurstBytes * 8,
                  "bit flip out of range");
    allocateRow(bank, row)[col * kBurstBytes + bit / 8] ^=
        static_cast<std::uint8_t>(1u << (bit % 8));
}

void
DataStore::setStuckBit(unsigned bank, unsigned row, unsigned col,
                       unsigned bit, bool value)
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow && bit < kBurstBytes * 8,
                  "stuck bit out of range");
    auto &faults = stuck_[key(bank, row)];
    const auto it = std::find_if(faults.begin(), faults.end(),
                                 [&](const StuckBit &s) {
                                     return s.col == col && s.bit == bit;
                                 });
    if (it != faults.end()) {
        it->value = value;
    } else {
        faults.push_back(StuckBit{col, bit, value});
        ++stuckCount_;
    }
    // Force the cell immediately (the row allocates if needed so the
    // defect is visible even before the first write).
    applyStuckBits(bank, row, col, allocateRow(bank, row));
}

void
DataStore::clearStuckBits()
{
    stuck_.clear();
    stuckCount_ = 0;
}

void
DataStore::applyStuckBits(unsigned bank, unsigned row, unsigned col,
                          std::uint8_t *bytes)
{
    if (stuck_.empty())
        return;
    const auto it = stuck_.find(key(bank, row));
    if (it == stuck_.end())
        return;
    for (const StuckBit &s : it->second) {
        if (s.col != col)
            continue;
        std::uint8_t &byte = bytes[s.col * kBurstBytes + s.bit / 8];
        const std::uint8_t mask =
            static_cast<std::uint8_t>(1u << (s.bit % 8));
        if (s.value)
            byte |= mask;
        else
            byte &= static_cast<std::uint8_t>(~mask);
    }
}

ScrubOutcome
DataStore::scrubBurst(unsigned bank, unsigned row, unsigned col)
{
    PIMSIM_ASSERT(bank < geom_.banksPerPch() && row < geom_.rowsPerBank &&
                      col < geom_.colsPerRow,
                  "scrub out of range: bank ", bank, " row ", row, " col ",
                  col);
    ScrubOutcome outcome;
    if (!geom_.onDieEcc)
        return outcome;
    std::uint8_t *row_bytes = findRow(bank, row);
    if (!row_bytes)
        return outcome;

    std::uint8_t *bytes = row_bytes + col * kBurstBytes;
    std::uint8_t *check = row_bytes + geom_.bytesPerRow() + col * 4;
    for (unsigned w = 0; w < 4; ++w) {
        std::uint64_t word = 0;
        for (unsigned b = 0; b < 8; ++b)
            word |= std::uint64_t{bytes[8 * w + b]} << (8 * b);
        std::uint64_t repaired = word;
        switch (eccDecodeWord(repaired, check[w])) {
          case EccStatus::Ok:
            break;
          case EccStatus::Corrected:
            ++outcome.corrected;
            for (unsigned b = 0; b < 8; ++b)
                bytes[8 * w + b] = static_cast<std::uint8_t>(
                    (repaired >> (8 * b)) & 0xff);
            // Re-encode so a corrected check-bit fault is repaired too.
            check[w] = eccEncodeWord(repaired);
            break;
          case EccStatus::Uncorrectable:
            ++outcome.uncorrectable;
            break;
        }
    }
    if (outcome.corrected)
        applyStuckBits(bank, row, col, row_bytes);
    return outcome;
}

} // namespace pimsim
