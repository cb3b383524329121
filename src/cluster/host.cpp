#include "cluster/host.h"

#include "common/logging.h"
#include "pim/pim_config.h"

namespace pimsim::cluster {

HostModel::HostModel(unsigned id, const SystemConfig &base,
                     unsigned num_stacks, const LinkConfig &link)
    : id_(id), link_(link)
{
    PIMSIM_ASSERT(num_stacks >= 1, "a host needs >= 1 stack");
    PIMSIM_ASSERT(base.withPim(), "cluster hosts serve PIM-HBM stacks");

    // Carve the host's channel space into per-stack shards: equal
    // weights give each stack exactly its pchPerStack channels.
    const unsigned pim_rows =
        PimConfMap::forRows(base.geometry.rowsPerBank).firstReservedRow();
    plan_ = serve::ShardPlan::sharded(
        num_stacks * base.geometry.pchPerStack, pim_rows,
        std::vector<double>(num_stacks, 1.0));

    stacks_.resize(num_stacks);
}

int
HostModel::freeStack() const
{
    for (unsigned s = 0; s < stacks_.size(); ++s) {
        if (!stacks_[s].busy)
            return static_cast<int>(s);
    }
    return -1;
}

void
HostModel::occupy(unsigned stack, double now_ns, double until_ns,
                  std::uint64_t dispatch)
{
    PIMSIM_ASSERT(stack < stacks_.size(), "bad stack id ", stack);
    PIMSIM_ASSERT(!stacks_[stack].busy, "stack ", stack, " already busy");
    PIMSIM_ASSERT(until_ns >= now_ns, "occupancy ends in the past");
    stacks_[stack].busy = true;
    stacks_[stack].sinceNs = now_ns;
    stacks_[stack].dispatch = dispatch;
    ++busy_;
    ++dispatches_;
    (void)until_ns; // completion is the engine's event, not the host's
}

void
HostModel::release(unsigned stack, double now_ns)
{
    PIMSIM_ASSERT(stack < stacks_.size(), "bad stack id ", stack);
    PIMSIM_ASSERT(stacks_[stack].busy, "stack ", stack, " is not busy");
    busyNs_ += now_ns - stacks_[stack].sinceNs;
    stacks_[stack].busy = false;
    --busy_;
}

} // namespace pimsim::cluster
