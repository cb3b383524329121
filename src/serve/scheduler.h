/**
 * @file
 * Batching schedulers: how queued requests become device dispatches.
 *
 * Three policies, in increasing sophistication:
 *
 *  - FCFS: the globally oldest request dispatches alone (batch 1). The
 *    baseline — every request pays the full per-dispatch kernel-launch
 *    overhead, so throughput saturates early under load.
 *  - Batching with timeout: requests of one tenant coalesce until the
 *    batch is full or the oldest member has waited `batchTimeoutNs`.
 *    Amortises launch overhead (Section VII-B's encoder/decoder
 *    asymmetry writ large) at a bounded queueing-delay cost.
 *  - Per-tenant fair share: work-conserving weighted scheduling; the
 *    tenant with the least served time per weight dispatches next
 *    (batched greedily). Bounds cross-tenant interference without
 *    requiring channel sharding.
 */

#ifndef PIMSIM_SERVE_SCHEDULER_H
#define PIMSIM_SERVE_SCHEDULER_H

#include <limits>
#include <memory>
#include <vector>

#include "serve/request.h"
#include "serve/request_queue.h"

namespace pimsim::serve {

/** Sentinel "no event pending" timestamp. */
inline constexpr double kNoEventNs = std::numeric_limits<double>::infinity();

/** Scheduling policy selector. */
enum class SchedPolicy
{
    Fcfs,         ///< one request per dispatch, arrival order
    BatchTimeout, ///< batch until full or the head request times out
    FairShare,    ///< weighted least-served-first, batched greedily
};

const char *schedPolicyName(SchedPolicy policy);

/** Scheduler knobs. */
struct SchedulerConfig
{
    SchedPolicy policy = SchedPolicy::Fcfs;
    /** Largest batch one dispatch may carry (>= 1). */
    unsigned maxBatch = 4;
    /** BatchTimeout: longest the head request waits for companions. */
    double batchTimeoutNs = 1.0e6;
};

/** Policy interface: pick work for an idle shard. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /**
     * Form the next batch from `queue` at time `now`, considering only
     * the tenants in `eligible` (those pinned to the idle shard), into
     * the caller's `out`: its requests are replaced and its buffer's
     * capacity is reused, so a recycled batch allocates nothing in
     * steady state. Returns false, leaving `out` untouched, when no
     * batch should dispatch yet.
     */
    virtual bool pick(RequestQueue &queue,
                      const std::vector<unsigned> &eligible, double now,
                      Batch &out) = 0;

    /**
     * Earliest future time at which pick() could return a batch without
     * any new arrival (kNoEventNs if only an arrival or a completion can
     * unblock it). Drives the engine's timeout timers.
     */
    virtual double nextReadyNs(const RequestQueue &queue,
                               const std::vector<unsigned> &eligible,
                               double now) const;

    /** Accounting callback after the engine prices a dispatched batch. */
    virtual void onDispatched(const Batch &batch, double service_ns);

    /** Build the policy named by `config`. */
    static std::unique_ptr<Scheduler> make(const SchedulerConfig &config,
                                           const std::vector<double> &weights);
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_SCHEDULER_H
