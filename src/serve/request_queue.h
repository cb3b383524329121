/**
 * @file
 * Bounded admission queue in front of the batching scheduler.
 *
 * Requests wait in per-tenant FIFOs under one global depth bound (plus
 * an optional per-tenant bound so a flooding tenant cannot monopolise
 * the queue). Admission control is a hard reject — the serving layer
 * reports rejections instead of queueing unboundedly, which is what
 * keeps the tail latency of admitted requests meaningful.
 *
 * Each tenant FIFO is a contiguous ring that doubles when full, capped
 * at the tightest bound that applies to it, and never shrinks: once a
 * tenant has seen its peak depth, pushes and pops allocate nothing.
 */

#ifndef PIMSIM_SERVE_REQUEST_QUEUE_H
#define PIMSIM_SERVE_REQUEST_QUEUE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace pimsim::serve {

/** Admission-control configuration. */
struct QueueConfig
{
    /** Total queued requests across all tenants. */
    unsigned depth = 64;
    /** Per-tenant cap (0 = bounded only by the global depth). */
    unsigned perTenantDepth = 0;
};

/** Bounded multi-tenant FIFO with rejection accounting. */
class RequestQueue
{
  public:
    RequestQueue(const QueueConfig &config, unsigned num_tenants);

    /**
     * Admit a request if the global and per-tenant bounds allow it.
     * @return true when admitted; false counts as a rejection.
     */
    bool tryPush(const ServeRequest &request);

    /** Pop the oldest request of one tenant (must be non-empty). */
    ServeRequest popFront(unsigned tenant);

    std::size_t size() const { return total_; }
    bool empty() const { return total_ == 0; }
    std::size_t sizeForTenant(unsigned tenant) const
    {
        return queues_[tenant].count;
    }

    /** Oldest queued request of a tenant (nullptr when empty). */
    const ServeRequest *front(unsigned tenant) const
    {
        const Fifo &q = queues_[tenant];
        return q.count == 0 ? nullptr : &q.slots[q.head];
    }

    /**
     * Tenant owning the globally oldest queued request among `eligible`
     * (admission id breaks ties); nullopt when all are empty.
     */
    std::optional<unsigned>
    oldestTenant(const std::vector<unsigned> &eligible) const;

    std::uint64_t admitted(unsigned tenant) const
    {
        return admitted_[tenant];
    }
    std::uint64_t rejected(unsigned tenant) const
    {
        return rejected_[tenant];
    }

  private:
    /** One tenant's ring: `count` requests from `slots[head]` on,
     *  wrapping at slots.size(). */
    struct Fifo
    {
        std::vector<ServeRequest> slots;
        std::size_t head = 0;
        std::size_t count = 0;
    };

    /** Double a full ring (at least one slot, at most `limit_`),
     *  unwrapping it to start at slot 0. */
    void grow(Fifo &q);

    QueueConfig config_;
    /** Most requests one tenant can ever hold. */
    std::size_t limit_;
    std::vector<Fifo> queues_;
    std::vector<std::uint64_t> admitted_;
    std::vector<std::uint64_t> rejected_;
    std::size_t total_ = 0;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_REQUEST_QUEUE_H
