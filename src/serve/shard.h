/**
 * @file
 * Channel sharding: pinning tenants to disjoint pseudo-channel groups.
 *
 * A shard is a contiguous group of pseudo channels plus a disjoint slice
 * of the PIM row space. Sharded tenants get hard isolation on both axes:
 * their kernels only occupy their own channels (modelled by a
 * shard-sized timing system, see ShardServiceModel) and their weights
 * only occupy their own rows (enforced by a partitioned PimDriver).
 *
 * Because the address mapping and the lock-step AB mode want power-of-
 * two channel counts, each tenant's shard is the largest power of two
 * at or below its proportional share; leftover channels stay unassigned
 * (exactly the fragmentation a real deployment would see).
 */

#ifndef PIMSIM_SERVE_SHARD_H
#define PIMSIM_SERVE_SHARD_H

#include <cstdint>
#include <vector>

namespace pimsim::serve {

/** One shard: a channel group and a PIM row slice. */
struct ShardSpec
{
    unsigned firstChannel = 0;
    unsigned numChannels = 0;
    unsigned firstRow = 0;
    unsigned numRows = 0;
};

/** Largest power of two <= n (n >= 1). */
unsigned floorPow2(unsigned n);

/**
 * PIMSIM_ASSERT that the shards' (firstRow, numRows) slices are pairwise
 * disjoint: cross-tenant row overlap would let one tenant's weight
 * residency alias another's. Engines call this after every (re)plan;
 * empty slices are allowed.
 */
void assertDisjointRowRanges(const std::vector<ShardSpec> &shards);

/** Tenant -> shard assignment over one system's channels and rows. */
class ShardPlan
{
  public:
    /** All tenants share one shard spanning the whole system. */
    static ShardPlan shared(unsigned total_channels, unsigned pim_rows,
                            unsigned num_tenants);

    /**
     * One shard per tenant: channel groups sized by weight (rounded down
     * to a power of two, at least 1), row slices split proportionally.
     */
    static ShardPlan sharded(unsigned total_channels, unsigned pim_rows,
                             const std::vector<double> &weights);

    unsigned numShards() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    unsigned shardOf(unsigned tenant) const { return shardOf_[tenant]; }
    const ShardSpec &shard(unsigned s) const { return shards_[s]; }

    /**
     * Tenants assigned to shard `s`, in tenant-id order. Built once with
     * the plan: quarantine and restore never move a tenant between
     * shards, so the event loop reads these lists without copying.
     */
    const std::vector<unsigned> &tenantsOf(unsigned s) const
    {
        return tenantsOf_[s];
    }

    /** True when every tenant has its own shard. */
    bool isSharded() const { return sharded_; }

    // ---- Degraded-capacity serving (SDC quarantine) ----
    // Quarantining withdraws a channel from every shard that contains
    // it; the shard's tenants keep their row slice (rows are striped
    // across the shard's channels, so surviving channels absorb the
    // withdrawn channel's stripe) but serve on fewer channels until the
    // channel is restored.

    /** Withdraw `channel` from serving (idempotent). */
    void quarantineChannel(unsigned channel);
    /** Return `channel` to serving (idempotent). */
    void restoreChannel(unsigned channel);
    bool channelQuarantined(unsigned channel) const;
    /** Channels of shard `s` currently serving. */
    unsigned activeChannelsOf(unsigned s) const;
    /** activeChannelsOf / numChannels in [0, 1]. */
    double capacityFraction(unsigned s) const;

    /** Assert tenant row isolation over the current shard set. */
    void assertRowIsolation() const { assertDisjointRowRanges(shards_); }

  private:
    std::vector<ShardSpec> shards_;
    std::vector<unsigned> shardOf_; ///< tenant -> shard index
    std::vector<std::vector<unsigned>> tenantsOf_; ///< shard -> tenants
    std::vector<std::uint8_t> quarantined_; ///< per absolute channel
    bool sharded_ = false;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_SHARD_H
