#include "llm/kv_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim::llm {

KvCacheManager::KvCacheManager(const DecoderSpec &spec,
                               const KvCacheConfig &config,
                               std::uint64_t row_bytes,
                               std::vector<PimDriver *> tenants,
                               std::vector<std::uint64_t> block_caps)
    : spec_(spec), config_(config), tenants_(std::move(tenants)),
      blockCaps_(std::move(block_caps)), stats_("llm.kv")
{
    spec_.validate();
    PIMSIM_ASSERT(config_.blockTokens >= 1, "zero KV block size");
    PIMSIM_ASSERT(row_bytes >= 1, "zero device row bytes");
    PIMSIM_ASSERT(!tenants_.empty(), "KV cache needs at least one tenant");
    PIMSIM_ASSERT(blockCaps_.size() == tenants_.size(),
                  "block_caps size (", blockCaps_.size(),
                  ") != tenant count (", tenants_.size(), ")");
    for (const PimDriver *driver : tenants_)
        PIMSIM_ASSERT(driver != nullptr, "null tenant KV partition");

    const std::uint64_t block_bytes =
        std::uint64_t{config_.blockTokens} * spec_.kvBytesPerToken();
    rowsPerBlock_ = static_cast<unsigned>(
        std::max<std::uint64_t>(1, (block_bytes + row_bytes - 1) / row_bytes));

    residentPerTenant_.assign(tenants_.size(), 0);
    allocatedPerTenant_.assign(tenants_.size(), 0);
    freedPerTenant_.assign(tenants_.size(), 0);
}

std::uint64_t
KvCacheManager::blocksFor(std::uint64_t tokens) const
{
    return (tokens + config_.blockTokens - 1) / config_.blockTokens;
}

std::uint64_t
KvCacheManager::capBlocks(unsigned tenant) const
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "tenant out of range");
    const std::uint64_t partition_blocks =
        tenants_[tenant]->capacityRows() / rowsPerBlock_;
    const std::uint64_t cap = blockCaps_[tenant];
    return cap == 0 ? partition_blocks : std::min(cap, partition_blocks);
}

KvSeqId
KvCacheManager::createSeq(unsigned tenant)
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "tenant out of range");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Sequence &s = slots_[slot];
    PIMSIM_ASSERT(s.generation != ~std::uint32_t{0},
                  "KV slot generation wrapped");
    ++s.generation;
    s.live = true;
    s.tenant = tenant;
    s.tokens = 0;
    return KvSeqId{slot, s.generation};
}

void
KvCacheManager::checkLive(KvSeqId seq, const char *what) const
{
    PIMSIM_ASSERT(seq.slot < slots_.size() && slots_[seq.slot].live &&
                      slots_[seq.slot].generation == seq.generation,
                  what, " of unknown KV sequence ", seq.slot, "/",
                  seq.generation);
}

bool
KvCacheManager::reserve(KvSeqId seq, std::uint64_t tokens)
{
    checkLive(seq, "reserve");
    Sequence &s = slots_[seq.slot];
    const std::uint64_t want = blocksFor(tokens);
    const std::uint64_t have = s.blocks.size();
    if (want <= have) {
        s.tokens = std::max(s.tokens, tokens);
        return true;
    }
    const std::uint64_t grow = want - have;
    // Per-tenant cap first: a request over cap must never be able to
    // evict its way to admission (that would be livelock, not policy).
    if (residentPerTenant_[s.tenant] + grow > capBlocks(s.tenant)) {
        ++allocFailures_;
        return false;
    }
    PimDriver &driver = *tenants_[s.tenant];
    std::vector<PimRowBlock> fresh;
    fresh.reserve(grow);
    for (std::uint64_t i = 0; i < grow; ++i) {
        PimRowBlock block;
        if (driver.allocRows(rowsPerBlock_, block) != PimStatus::Ok) {
            // All-or-nothing: roll back this reserve's partial blocks.
            for (const PimRowBlock &b : fresh) {
                const PimStatus st = driver.freeBlock(b);
                PIMSIM_ASSERT(st == PimStatus::Ok,
                              "rollback free failed: ", pimStatusName(st));
            }
            ++allocFailures_;
            return false;
        }
        fresh.push_back(block);
    }
    for (const PimRowBlock &b : fresh)
        s.blocks.push_back(b);
    s.tokens = std::max(s.tokens, tokens);
    blocksAllocated_ += grow;
    allocatedPerTenant_[s.tenant] += grow;
    residentBlocks_ += grow;
    residentPerTenant_[s.tenant] += grow;
    peakResident_ = std::max(peakResident_, residentBlocks_);
    return true;
}

void
KvCacheManager::release(KvSeqId seq)
{
    checkLive(seq, "release");
    Sequence &s = slots_[seq.slot];
    PimDriver &driver = *tenants_[s.tenant];
    const std::uint64_t count = s.blocks.size();
    for (const PimRowBlock &b : s.blocks) {
        const PimStatus st = driver.freeBlock(b);
        PIMSIM_ASSERT(st == PimStatus::Ok,
                      "KV block free failed: ", pimStatusName(st));
    }
    blocksFreed_ += count;
    freedPerTenant_[s.tenant] += count;
    PIMSIM_ASSERT(residentBlocks_ >= count &&
                      residentPerTenant_[s.tenant] >= count,
                  "resident underflow on KV release");
    residentBlocks_ -= count;
    residentPerTenant_[s.tenant] -= count;
    s.blocks.clear(); // keeps its capacity for the slot's next sequence
    s.live = false;
    freeSlots_.push_back(seq.slot);
}

std::uint64_t
KvCacheManager::seqBlocks(KvSeqId seq) const
{
    checkLive(seq, "seqBlocks");
    return slots_[seq.slot].blocks.size();
}

std::uint64_t
KvCacheManager::residentBlocks(unsigned tenant) const
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "tenant out of range");
    return residentPerTenant_[tenant];
}

void
KvCacheManager::reconcile() const
{
    PIMSIM_ASSERT(blocksAllocated_ == blocksFreed_ + residentBlocks_,
                  "KV accounting drift: allocated ", blocksAllocated_,
                  " != freed ", blocksFreed_, " + resident ",
                  residentBlocks_);
    std::uint64_t chained = 0;
    for (const Sequence &s : slots_)
        chained += s.blocks.size();
    PIMSIM_ASSERT(chained == residentBlocks_,
                  "KV chain total ", chained, " != resident counter ",
                  residentBlocks_);
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        PIMSIM_ASSERT(allocatedPerTenant_[t] ==
                          freedPerTenant_[t] + residentPerTenant_[t],
                      "KV accounting drift for tenant ", t, ": allocated ",
                      allocatedPerTenant_[t], " != freed ", freedPerTenant_[t],
                      " + resident ", residentPerTenant_[t]);
    }
}

StatGroup &
KvCacheManager::statsGroup()
{
    stats_.reset();
    stats_.add("blocksAllocated", blocksAllocated_);
    stats_.add("blocksFreed", blocksFreed_);
    stats_.add("allocFailures", allocFailures_);
    stats_.add("residentBlocks", residentBlocks_);
    stats_.add("peakResidentBlocks", peakResident_);
    stats_.add("liveSeqs", liveSeqs());
    stats_.set("rowsPerBlock", static_cast<double>(rowsPerBlock_));
    std::uint64_t free_rows = 0;
    unsigned largest_extent = 0;
    std::uint64_t capacity_rows = 0;
    for (const PimDriver *driver : tenants_) {
        free_rows += driver->freeRows();
        largest_extent = std::max(largest_extent, driver->largestFreeExtent());
        capacity_rows += driver->capacityRows();
    }
    stats_.set("freeRows", static_cast<double>(free_rows));
    stats_.set("largestFreeExtent", static_cast<double>(largest_extent));
    stats_.set("capacityRows", static_cast<double>(capacity_rows));
    // Internal fragmentation: resident token capacity unused by the
    // sequences that own it (last-block slack).
    std::uint64_t capacity_tokens = 0;
    std::uint64_t used_tokens = 0;
    for (const Sequence &s : slots_) {
        capacity_tokens += s.blocks.size() * config_.blockTokens;
        used_tokens += std::min<std::uint64_t>(
            s.tokens, s.blocks.size() * config_.blockTokens);
    }
    stats_.set("internalFragTokens",
               static_cast<double>(capacity_tokens - used_tokens));
    return stats_;
}

} // namespace pimsim::llm
