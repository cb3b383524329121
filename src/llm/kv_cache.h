/**
 * @file
 * Paged KV-cache allocator over PIM row accounting.
 *
 * Decode state (the K and V vectors of every resident token) is the
 * resource that makes LLM serving hard: it grows every iteration and
 * outlives the request's position in any batch. Following the paged
 * approach, sequences own chains of fixed-size *token blocks*
 * (`blockTokens` tokens each), and each block maps onto a run of
 * device-wide PIM rows obtained from a `PimDriver` partition — the same
 * row extents the AB-mode lock-step pattern requires, so attention
 * GEMVs read the cache with one ACT per row across all banks.
 *
 * Capacity is per tenant: each tenant allocates from its own PimDriver
 * partition (hard isolation, mirroring the serving layer's row
 * sharding) and is additionally clamped by a block cap. Allocation
 * failure is a recoverable signal the batcher turns into preemption,
 * not an error.
 *
 * Accounting is exact by construction and checked by reconcile():
 * blocksAllocated == blocksFreed + resident blocks, globally and per
 * tenant, at any quiescent point.
 */

#ifndef PIMSIM_LLM_KV_CACHE_H
#define PIMSIM_LLM_KV_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "llm/decoder.h"
#include "stack/driver.h"

namespace pimsim::llm {

/** KV paging parameters. */
struct KvCacheConfig
{
    /** Tokens per block; vLLM-style small blocks bound internal
     *  fragmentation to blockTokens-1 tokens per sequence. */
    unsigned blockTokens = 32;
};

/**
 * Opaque handle to one sequence's block chain: a dense slot index plus
 * the slot's generation. Slots are reused after release; the
 * generation makes a released handle stale instead of an alias of the
 * slot's next sequence. Generation 0 is never issued (the null id).
 */
struct KvSeqId
{
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
    bool operator==(const KvSeqId &) const = default;
};

/** Paged KV-cache allocator (one per LLM engine). */
class KvCacheManager
{
  public:
    /**
     * @param spec         decoder whose kvBytesPerToken() sizes blocks
     * @param config       paging parameters
     * @param row_bytes    bytes one device-wide PIM row holds (bytes
     *                     per DRAM row x banks x channels)
     * @param tenants      one PimDriver partition per tenant
     *                     (non-owning; must outlive the manager)
     * @param block_caps   per-tenant block caps (0 = partition-limited
     *                     only); size must match `tenants`
     */
    KvCacheManager(const DecoderSpec &spec, const KvCacheConfig &config,
                   std::uint64_t row_bytes,
                   std::vector<PimDriver *> tenants,
                   std::vector<std::uint64_t> block_caps);

    /** Rows each block occupies in its tenant's partition. */
    unsigned rowsPerBlock() const { return rowsPerBlock_; }
    unsigned blockTokens() const { return config_.blockTokens; }

    /** Blocks needed to hold `tokens` tokens. */
    std::uint64_t blocksFor(std::uint64_t tokens) const;

    /** Hard block cap for `tenant` (cap and partition combined). */
    std::uint64_t capBlocks(unsigned tenant) const;

    /** Create an empty sequence owned by `tenant`. */
    KvSeqId createSeq(unsigned tenant);

    /**
     * Grow `seq` until it holds at least `tokens` tokens, allocating
     * blocks as needed. All-or-nothing: on failure nothing changes and
     * the caller preempts or rejects. Shrinking never happens here —
     * KV state is append-only until release.
     */
    bool reserve(KvSeqId seq, std::uint64_t tokens);

    /** Free every block of `seq` and forget it. */
    void release(KvSeqId seq);

    /** Blocks currently held by `seq`. */
    std::uint64_t seqBlocks(KvSeqId seq) const;

    /** Blocks resident across all live sequences. */
    std::uint64_t residentBlocks() const { return residentBlocks_; }
    /** Blocks resident for one tenant. */
    std::uint64_t residentBlocks(unsigned tenant) const;

    std::uint64_t blocksAllocated() const { return blocksAllocated_; }
    std::uint64_t blocksFreed() const { return blocksFreed_; }
    std::uint64_t allocFailures() const { return allocFailures_; }
    std::uint64_t peakResidentBlocks() const { return peakResident_; }

    /** Live sequences (for leak checks at drain). */
    std::size_t liveSeqs() const { return slots_.size() - freeSlots_.size(); }

    /**
     * PIMSIM_ASSERTs allocated == freed + resident, globally and per
     * tenant, and that per-sequence chains sum to the resident count.
     */
    void reconcile() const;

    /** Refresh fragmentation scalars and return the stats group
     *  ("llm.kv": counters + free-row / largest-extent / internal-frag
     *  scalars) for StatsRegistry registration. */
    StatGroup &statsGroup();

  private:
    struct Sequence
    {
        unsigned tenant = 0;
        std::uint64_t tokens = 0;
        std::vector<PimRowBlock> blocks;
        std::uint32_t generation = 0; ///< of the live or last sequence
        bool live = false;
    };

    /** PIMSIM_ASSERTs `seq` names a live sequence, not a stale id. */
    void checkLive(KvSeqId seq, const char *what) const;

    DecoderSpec spec_;
    KvCacheConfig config_;
    unsigned rowsPerBlock_ = 1;
    std::vector<PimDriver *> tenants_;
    std::vector<std::uint64_t> blockCaps_;

    /** Indexed by KvSeqId::slot; released slots are reused LIFO. */
    std::vector<Sequence> slots_;
    std::vector<std::uint32_t> freeSlots_;

    std::uint64_t blocksAllocated_ = 0;
    std::uint64_t blocksFreed_ = 0;
    std::uint64_t allocFailures_ = 0;
    std::uint64_t residentBlocks_ = 0;
    std::uint64_t peakResident_ = 0;
    std::vector<std::uint64_t> residentPerTenant_;
    std::vector<std::uint64_t> allocatedPerTenant_;
    std::vector<std::uint64_t> freedPerTenant_;

    StatGroup stats_;
};

} // namespace pimsim::llm

#endif // PIMSIM_LLM_KV_CACHE_H
