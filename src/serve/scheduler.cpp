#include "serve/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim::serve {

const char *
schedPolicyName(SchedPolicy policy)
{
    switch (policy) {
      case SchedPolicy::Fcfs:
        return "fcfs";
      case SchedPolicy::BatchTimeout:
        return "batch";
      case SchedPolicy::FairShare:
        return "fair";
    }
    return "?";
}

double
Scheduler::nextReadyNs(const RequestQueue &, const std::vector<unsigned> &,
                       double) const
{
    // Work-conserving policies dispatch immediately or not at all.
    return kNoEventNs;
}

void
Scheduler::onDispatched(const Batch &, double)
{
}

namespace {

/** Pop up to `limit` requests of one tenant into `out`. */
void
takeBatch(RequestQueue &queue, unsigned tenant, unsigned limit, Batch &out)
{
    out.tenant = tenant;
    out.requests.clear();
    while (out.size() < limit && queue.sizeForTenant(tenant) > 0)
        out.requests.push_back(queue.popFront(tenant));
}

class FcfsScheduler : public Scheduler
{
  public:
    bool pick(RequestQueue &queue, const std::vector<unsigned> &eligible,
              double, Batch &out) override
    {
        const auto tenant = queue.oldestTenant(eligible);
        if (!tenant)
            return false;
        takeBatch(queue, *tenant, 1, out);
        return true;
    }
};

class BatchTimeoutScheduler : public Scheduler
{
  public:
    explicit BatchTimeoutScheduler(const SchedulerConfig &config)
        : config_(config)
    {
    }

    bool pick(RequestQueue &queue, const std::vector<unsigned> &eligible,
              double now, Batch &out) override
    {
        // A full batch dispatches immediately; prefer the oldest head so
        // FCFS order is kept among equally-ready tenants.
        std::optional<unsigned> full;
        std::optional<unsigned> expired;
        for (unsigned t : eligible) {
            const ServeRequest *head = queue.front(t);
            if (!head)
                continue;
            if (queue.sizeForTenant(t) >= config_.maxBatch &&
                (!full || head->id < queue.front(*full)->id)) {
                full = t;
            }
            // Written as arrival + timeout <= now so the comparison is
            // bit-identical to the nextReadyNs() timer (a rearranged
            // form can round differently and miss the timer instant).
            if (head->arrivalNs + config_.batchTimeoutNs <= now &&
                (!expired || head->id < queue.front(*expired)->id)) {
                expired = t;
            }
        }
        if (!full && !expired)
            return false;
        takeBatch(queue, full ? *full : *expired, config_.maxBatch, out);
        return true;
    }

    double nextReadyNs(const RequestQueue &queue,
                       const std::vector<unsigned> &eligible,
                       double) const override
    {
        double ready = kNoEventNs;
        for (unsigned t : eligible) {
            const ServeRequest *head = queue.front(t);
            if (head)
                ready = std::min(ready,
                                 head->arrivalNs + config_.batchTimeoutNs);
        }
        return ready;
    }

  private:
    SchedulerConfig config_;
};

class FairShareScheduler : public Scheduler
{
  public:
    FairShareScheduler(const SchedulerConfig &config,
                       const std::vector<double> &weights)
        : config_(config), weights_(weights), servedNs_(weights.size(), 0.0)
    {
        for (auto &w : weights_)
            w = w > 0.0 ? w : 1.0;
    }

    bool pick(RequestQueue &queue, const std::vector<unsigned> &eligible,
              double, Batch &out) override
    {
        // Least normalised service first (start-time fairness); ties go
        // to the lower tenant id for determinism.
        std::optional<unsigned> best;
        for (unsigned t : eligible) {
            if (queue.sizeForTenant(t) == 0)
                continue;
            ensureTenant(t);
            if (!best ||
                servedNs_[t] / weights_[t] <
                    servedNs_[*best] / weights_[*best]) {
                best = t;
            }
        }
        if (!best)
            return false;
        takeBatch(queue, *best, config_.maxBatch, out);
        return true;
    }

    void onDispatched(const Batch &batch, double service_ns) override
    {
        ensureTenant(batch.tenant);
        servedNs_[batch.tenant] += service_ns;
    }

  private:
    /**
     * Grow the accounting arrays to cover tenant id `t`. Callers may
     * construct the scheduler with fewer weights than tenants (or none);
     * unspecified tenants get the default weight 1.0 instead of an
     * out-of-bounds read.
     */
    void ensureTenant(unsigned t)
    {
        if (t < weights_.size())
            return;
        weights_.resize(t + 1, 1.0);
        servedNs_.resize(t + 1, 0.0);
    }

    SchedulerConfig config_;
    std::vector<double> weights_;
    std::vector<double> servedNs_;
};

} // namespace

std::unique_ptr<Scheduler>
Scheduler::make(const SchedulerConfig &config,
                const std::vector<double> &weights)
{
    PIMSIM_ASSERT(config.maxBatch >= 1, "maxBatch must be >= 1");
    switch (config.policy) {
      case SchedPolicy::Fcfs:
        return std::make_unique<FcfsScheduler>();
      case SchedPolicy::BatchTimeout:
        return std::make_unique<BatchTimeoutScheduler>(config);
      case SchedPolicy::FairShare:
        return std::make_unique<FairShareScheduler>(config, weights);
    }
    PIMSIM_PANIC("bad scheduling policy");
}

} // namespace pimsim::serve
