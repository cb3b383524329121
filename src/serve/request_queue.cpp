#include "serve/request_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace pimsim::serve {

RequestQueue::RequestQueue(const QueueConfig &config, unsigned num_tenants)
    : config_(config),
      limit_(config.perTenantDepth != 0
                 ? std::min(config.depth, config.perTenantDepth)
                 : config.depth),
      queues_(num_tenants),
      admitted_(num_tenants, 0),
      rejected_(num_tenants, 0)
{
}

bool
RequestQueue::tryPush(const ServeRequest &request)
{
    PIMSIM_ASSERT(request.tenant < queues_.size(), "bad tenant id ",
                  request.tenant);
    const bool global_full = total_ >= config_.depth;
    Fifo &q = queues_[request.tenant];
    const bool tenant_full =
        config_.perTenantDepth != 0 && q.count >= config_.perTenantDepth;
    if (global_full || tenant_full) {
        ++rejected_[request.tenant];
        return false;
    }
    if (q.count == q.slots.size())
        grow(q);
    std::size_t tail = q.head + q.count;
    if (tail >= q.slots.size())
        tail -= q.slots.size();
    q.slots[tail] = request;
    ++q.count;
    ++admitted_[request.tenant];
    ++total_;
    return true;
}

ServeRequest
RequestQueue::popFront(unsigned tenant)
{
    Fifo &q = queues_[tenant];
    PIMSIM_ASSERT(q.count != 0, "pop from empty tenant queue ", tenant);
    const ServeRequest r = q.slots[q.head];
    if (++q.head == q.slots.size())
        q.head = 0;
    --q.count;
    --total_;
    return r;
}

void
RequestQueue::grow(Fifo &q)
{
    // Both bounds are checked before a push, so a full ring is below
    // limit_ here.
    const std::size_t capacity =
        std::min(std::max<std::size_t>(2 * q.slots.size(), 1), limit_);
    std::vector<ServeRequest> slots(capacity);
    for (std::size_t i = 0, at = q.head; i < q.count; ++i) {
        slots[i] = q.slots[at];
        if (++at == q.slots.size())
            at = 0;
    }
    q.slots = std::move(slots);
    q.head = 0;
}

std::optional<unsigned>
RequestQueue::oldestTenant(const std::vector<unsigned> &eligible) const
{
    std::optional<unsigned> best;
    for (unsigned t : eligible) {
        const ServeRequest *head = front(t);
        if (!head)
            continue;
        if (!best || head->id < front(*best)->id)
            best = t;
    }
    return best;
}

} // namespace pimsim::serve
