/**
 * @file
 * One cluster host: N PIM-HBM stacks behind one interconnect link.
 *
 * The paper's evaluation host 2.5D-integrates four HBM2-PIM stacks; a
 * cluster host models exactly that. Each stack is an independent server
 * (a PIM kernel owns its stack's channels' lock-step AB mode); the host
 * carves its channel space with a ShardPlan. The stacks are homogeneous,
 * so ClusterEngine prices one dispatch for all of them.
 * Dispatches reach a stack through the host's Link (see interconnect.h).
 *
 * The host itself has no failure logic; health is observed and decided
 * by the ClusterRouter from dispatch outcomes, and faults are produced
 * by a serve::HostFaultModel on the cluster engine's clock.
 */

#ifndef PIMSIM_CLUSTER_HOST_H
#define PIMSIM_CLUSTER_HOST_H

#include <cstdint>
#include <vector>

#include "cluster/interconnect.h"
#include "serve/shard.h"
#include "sim/system_config.h"

namespace pimsim::cluster {

/** N stacks + one link, dispatchable one kernel per stack. */
class HostModel
{
  public:
    /**
     * @param id          the host's cluster-wide index
     * @param base        per-stack system configuration (geometry and
     *                    timing; the channel count is derived from
     *                    `num_stacks` x pchPerStack)
     * @param num_stacks  PIM stacks on this host (the paper's host: 4)
     * @param link        router<->host link parameters
     */
    HostModel(unsigned id, const SystemConfig &base, unsigned num_stacks,
              const LinkConfig &link);

    unsigned id() const { return id_; }
    unsigned numStacks() const
    {
        return static_cast<unsigned>(stacks_.size());
    }

    /** The per-stack shard layout (disjoint channel groups). */
    const serve::ShardPlan &plan() const { return plan_; }

    Link &link() { return link_; }
    const Link &link() const { return link_; }

    /** Lowest-numbered idle stack (-1 when none). */
    int freeStack() const;
    unsigned busyStacks() const { return busy_; }

    /** Mark `stack` busy with `dispatch` until `until_ns`. */
    void occupy(unsigned stack, double now_ns, double until_ns,
                std::uint64_t dispatch);
    /** Free `stack` at `now_ns` (early for cancelled hedges). */
    void release(unsigned stack, double now_ns);

    bool busy(unsigned stack) const { return stacks_[stack].busy; }
    std::uint64_t dispatchOn(unsigned stack) const
    {
        return stacks_[stack].dispatch;
    }

    std::uint64_t dispatches() const { return dispatches_; }
    /** Accumulated stack-busy time (for utilization reporting). */
    double busyNs() const { return busyNs_; }
    double utilization(double horizon_ns) const
    {
        return horizon_ns > 0.0
                   ? busyNs_ / (horizon_ns *
                                static_cast<double>(stacks_.size()))
                   : 0.0;
    }

  private:
    struct Stack
    {
        bool busy = false;
        double sinceNs = 0.0;
        std::uint64_t dispatch = 0;
    };

    unsigned id_;
    serve::ShardPlan plan_;
    Link link_;
    std::vector<Stack> stacks_;
    unsigned busy_ = 0;
    std::uint64_t dispatches_ = 0;
    double busyNs_ = 0.0;
};

} // namespace pimsim::cluster

#endif // PIMSIM_CLUSTER_HOST_H
