/**
 * @file
 * The multi-tenant serving engine: queue -> scheduler -> sharded device.
 *
 * The engine is a discrete-event simulation on a virtual nanosecond
 * clock. Requests are submitted with an arrival time, pass admission
 * control (bounded RequestQueue plus optional deadline-aware shedding),
 * wait for the batching scheduler, and occupy their tenant's shard for
 * the service time the ShardServiceModel measured on the real
 * command-level simulator. Each shard serves one batch at a time (a PIM
 * kernel owns its channels' lock-step AB mode); distinct shards serve
 * concurrently.
 *
 * Resilience: an attached FaultModel may declare a PIM batch failed
 * (an uncorrectable fault event struck its shard mid-service). Failed
 * batches retry with exponential backoff under a RetryPolicy budget and
 * fall back to the host golden path (HostFallbackModel) once the budget
 * is spent. A per-shard CircuitBreaker watches outcome windows and
 * routes a persistently faulting shard's tenants to host fallback until
 * a half-open probe succeeds. Tenants may carry deadlines: requests
 * that cannot meet them are shed at admission, requests that outlive
 * them in the queue are timed out, and late completions count as SLO
 * violations. After drain(), every submitted request is exactly one of
 * {completed, shed, timed out, rejected}.
 *
 * Everything is deterministic: the same configuration and the same
 * submission sequence replay to bit-identical statistics (retry jitter
 * flows from a seeded Rng, fault processes from seeded streams).
 */

#ifndef PIMSIM_SERVE_SERVING_ENGINE_H
#define PIMSIM_SERVE_SERVING_ENGINE_H

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/slo.h"
#include "common/stats.h"
#include "reliability/sdc_monitor.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/resilience.h"
#include "serve/scheduler.h"
#include "serve/service_model.h"
#include "serve/shard.h"
#include "sim/system.h"
#include "stack/driver.h"

namespace pimsim {
class TraceSession;
}

namespace pimsim::serve {

/** Silent-data-corruption defense policy of the serving layer. */
struct SdcPolicy
{
    /** Consult the attached SdcModel at all. */
    bool enabled = false;
    /**
     * ABFT verification on PIM batches: every SDC event striking a
     * batch is detected and the batch re-executes on the host golden
     * path (no silently wrong completion). With ABFT off, struck
     * batches complete normally with wrong results (silentlyWrong).
     */
    bool abft = true;
    /** Withdraw channels the monitor quarantines and replan capacity. */
    bool quarantine = true;
    /** Thresholds of the per-(channel, unit) health state machine. */
    SdcMonitorConfig monitor;
    /** Cadence of probation canary kernels per withdrawn channel. */
    double canaryPeriodNs = 1'000'000.0;
    /**
     * Re-replicating a withdrawn channel's weight stripe onto the
     * surviving channels pauses the shard's dispatch for
     * migrationNsPerRow per resident row (0: instant migration).
     */
    double migrationNsPerRow = 100.0;
};

/** Full serving-layer configuration. */
struct ServeConfig
{
    /** The served system (channel count, geometry, PIM config). */
    SystemConfig system = SystemConfig::pimHbmSystem();
    QueueConfig queue;
    SchedulerConfig sched;
    std::vector<TenantSpec> tenants;
    /** Pin each tenant to its own channel/row shard. */
    bool shardChannels = false;
    /** Latency histogram shape (values in ns). */
    std::uint64_t histBucketNs = 20'000;
    std::size_t histBuckets = 8192;
    /** Optional cross-engine service-time memo (benchmark sweeps). */
    std::shared_ptr<ServiceTimeCache> timingCache;

    /** Retry/backoff policy for batches a FaultModel failed. */
    RetryPolicy retry;
    /** Per-shard circuit breaker (disabled by default). */
    BreakerConfig breaker;
    /** Silent-corruption defense (disabled by default). */
    SdcPolicy sdc;
    /**
     * Shed requests at admission when the shard's backlog estimate says
     * their deadline cannot be met (only tenants with a deadline).
     */
    bool deadlineAdmission = true;
    /** Seed of the retry-backoff jitter stream. */
    std::uint64_t retrySeed = 0x7e57;
};

/** Latency distribution summary extracted from a Histogram. */
struct LatencySummary
{
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;
};

/** Per-tenant (or aggregate) serving outcome. */
struct TenantReport
{
    std::string name;
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    /** Shed at admission: the deadline was unreachable. */
    std::uint64_t shed = 0;
    /** Expired in the queue past their deadline. */
    std::uint64_t timedOut = 0;
    /** PIM re-dispatches of failed batches (per request). */
    std::uint64_t retries = 0;
    /** Completions served by the host golden path. */
    std::uint64_t fallbackCompleted = 0;
    /** Completions that landed after their deadline. */
    std::uint64_t sloViolations = 0;
    /** Completions returned with silently corrupted results (only
     *  possible with the SDC defense's ABFT arm off). */
    std::uint64_t silentlyWrong = 0;
    double servedNs = 0.0; ///< device time consumed (failed tries too)
    double throughputRps = 0.0;
    LatencySummary queue;   ///< arrival -> dispatch
    LatencySummary service; ///< dispatch -> completion
    LatencySummary e2e;     ///< arrival -> completion
};

/** One shard's resilience outcome. */
struct ShardResilienceReport
{
    unsigned shard = 0;
    BreakerState state = BreakerState::Closed;
    std::uint64_t opens = 0;
    std::uint64_t closes = 0;
    std::uint64_t probes = 0;
    /** Fault events that struck this shard's PIM batches. */
    std::uint64_t batchFaults = 0;
};

/** Whole-run SDC-defense outcome (zeros when the defense is off). */
struct SdcDefenseReport
{
    std::uint64_t detected = 0;
    std::uint64_t confirmed = 0;
    std::uint64_t falseAlarms = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t readmits = 0;
    /** Channels withdrawn from serving at report time. */
    std::vector<unsigned> withdrawnChannels;
};

/** Whole-run serving outcome. */
struct ServeReport
{
    double horizonNs = 0.0; ///< virtual time covered
    std::vector<TenantReport> tenants;
    TenantReport total; ///< all tenants aggregated
    std::vector<ShardResilienceReport> shards;
    SdcDefenseReport sdc;

    /**
     * PIMSIM_ASSERT that every submitted request reached exactly one
     * terminal state, per tenant and in aggregate: completed + shed +
     * timed-out + rejected == submitted. Valid once the engine is
     * drained; the engine asserts it there, benches re-assert on the
     * reports they publish.
     */
    void reconcile() const;
};

/** The request-serving system on top of one PIM-HBM configuration. */
class ServingEngine
{
  public:
    explicit ServingEngine(const ServeConfig &config);

    unsigned numTenants() const
    {
        return static_cast<unsigned>(tenants_.size());
    }

    /**
     * Submit one request of `tenant` arriving at `arrival_ns` (must not
     * precede the engine clock; time never runs backwards).
     * @return false when admission control rejected or shed it.
     */
    bool submit(unsigned tenant, double arrival_ns);

    /** Advance the virtual clock, serving everything due by `ns`. */
    void advanceTo(double ns);

    /** Serve until queue, retries and shards are empty. */
    void drain();

    /** Next internal event (completion, batch timeout, queue deadline,
     *  or retry becoming ready); kNoEventNs when fully idle. */
    double nextEventNs() const;

    /** Requests completed since the last call (closed-loop feedback). */
    std::vector<ServeRequest> takeCompletions();

    double nowNs() const { return nowNs_; }

    /** The shard layout in force. */
    const ShardPlan &plan() const { return plan_; }

    /**
     * The row allocator serving a tenant's weight residency. Sharded
     * engines return the tenant's partitioned driver (disjoint row
     * ranges); shared engines return the common driver.
     */
    PimDriver &tenantDriver(unsigned tenant);

    /** The primary system (shard plan, drivers, serve stats). */
    PimSystem &system() { return *system_; }

    /**
     * Attach the source of uncorrectable fault events (nullptr
     * detaches). The model is queried once per completed PIM batch over
     * its shard-occupancy interval; any event inside it fails the
     * batch. Not owned; must outlive the engine or be detached.
     */
    void setFaultModel(FaultModel *model) { faults_ = model; }

    /**
     * Attach the source of silent-corruption events (nullptr detaches;
     * not owned). Consulted only when config.sdc.enabled: each PIM
     * batch queries its shard's active channels over the batch's
     * occupancy interval, and probation canaries query the window since
     * the previous canary. The same model must stay attached for the
     * whole run for the replay to be deterministic.
     */
    void setSdcModel(SdcModel *model) { sdcModel_ = model; }

    /** The health/quarantine tracker (nullptr when the defense is off). */
    const SdcMonitor *sdcMonitor() const { return sdcMonitor_.get(); }

    /** Channels of shard `s` currently serving. */
    unsigned activeChannels(unsigned s) const
    {
        return plan_.activeChannelsOf(s);
    }
    /** Serving capacity of shard `s` as a fraction of its plan size. */
    double capacityFraction(unsigned s) const
    {
        return plan_.capacityFraction(s);
    }

    /** One shard's circuit breaker (read-only observation). */
    const CircuitBreaker &breaker(unsigned shard) const
    {
        return shards_[shard].breaker;
    }

    /** Aggregate statistics over everything served so far. */
    ServeReport report() const;

    /**
     * Record batch dispatches on the serving track of a Chrome-trace
     * session (nullptr disables): one span per batch on its shard's
     * timeline, from dispatch to completion. Resilience events (breaker
     * open / half-open spans, batch-fault instants) land on their own
     * track.
     */
    void setTrace(TraceSession *session);

    /**
     * Attach a per-request causal tracer (nullptr detaches). Every
     * submitted request is minted a RequestTraceContext; its queue
     * wait, batch attempts, retries and terminal state are buffered as
     * a span tree and tail-sampled at the tracer (see
     * common/reqtrace.h). Not owned; must outlive the engine's use.
     */
    void setRequestTracer(RequestTracer *tracer) { reqTracer_ = tracer; }

    /**
     * Per-request terminal observations (timestamp + met-its-SLO)
     * accumulated since the last call — the SloMonitor feed. Sheds,
     * rejections, timeouts and late completions are bad; in-deadline
     * completions are good.
     */
    std::vector<SloObservation> takeSloObservations();

  private:
    struct TenantState
    {
        TenantSpec spec;
        Histogram queueH;
        Histogram serviceH;
        Histogram e2eH;
        std::uint64_t submitted = 0;
        std::uint64_t completed = 0;
        std::uint64_t batches = 0;
        std::uint64_t shed = 0;
        std::uint64_t timedOut = 0;
        std::uint64_t retries = 0;
        std::uint64_t fallbackCompleted = 0;
        std::uint64_t sloViolations = 0;
        std::uint64_t silentlyWrong = 0;
        double servedNs = 0.0;
        /** Memoised batch-1 PIM service time (admission estimate). */
        double svc1Ns = -1.0;
    };

    struct Server
    {
        bool busy = false;
        double freeNs = 0.0;
        Batch inFlight;
        double serviceNs = 0.0;
        bool fallback = false; ///< running on the host golden path
        bool probe = false;    ///< a half-open breaker probe
    };

    /** A failed batch waiting out its backoff before re-dispatch. */
    struct PendingRetry
    {
        double readyNs = 0.0;
        Batch batch;
        /** Retry budget spent: re-dispatch on the host path. */
        bool forceHost = false;
    };

    /** Per-shard resilience state. */
    struct ShardState
    {
        CircuitBreaker breaker;
        std::vector<PendingRetry> retries;
        std::uint64_t batchFaults = 0;
        /** Breaker state currently drawn on the trace track. */
        BreakerState traceState = BreakerState::Closed;
        double traceSinceNs = 0.0;
        /** Dispatch paused until here (weight-stripe migration). */
        double holdUntilNs = 0.0;
    };

    /** Complete every in-flight batch due by the current clock. */
    void completeDue();
    /** Time out queued requests whose deadline has passed. */
    void expireDue();
    /** Dispatch as many batches as idle shards and policy allow. */
    void dispatchAll();
    /** Put one batch on shard `s` now (breaker decides the route). */
    void startBatch(unsigned s, Batch &&batch, bool force_host);
    void finishBatch(unsigned shard);
    /** Index into shards_[s].retries of the due retry to run (or -1). */
    int dueRetryIndex(unsigned s) const;
    /** Batch-1 PIM service time of a tenant, memoised. */
    double svc1Ns(unsigned tenant);
    /** Admission estimate of shard `s` work ahead of a new arrival. */
    double backlogNs(unsigned s);
    /** Emit breaker state-change trace spans and stats. */
    void noteBreakerState(unsigned s);
    /** Service-time multiplier of shard `s` under withdrawn channels
     *  (total / active; +inf is never returned — see dispatch gating). */
    double capacityPenalty(unsigned s) const;
    /** Feed one PIM batch's SDC events through ABFT + monitor. Returns
     *  true when the batch must re-execute on the host golden path. */
    bool applySdcOutcomes(unsigned shard, double start_ns, double end_ns);
    /** Quarantine newly withdrawn channels / restore re-admitted ones,
     *  pausing dispatch for the migration where capacity changed. */
    void reconcileQuarantine();
    /** Probation bookkeeping due by the clock: monitor cool-downs and
     *  canary kernels. */
    void runSdcDue();
    /** Close a request's trace (root span + outcome) and record its
     *  SLO observation. `terminal` names non-completed ends. */
    void finishRequestTrace(ServeRequest &request, double end_ns,
                            const char *terminal, bool erred);
    TenantReport summarise(const TenantState &t, double horizon_ns) const;

    ServeConfig config_;
    std::unique_ptr<PimSystem> system_;
    ShardPlan plan_;
    std::vector<std::unique_ptr<PimDriver>> drivers_; ///< per tenant
    std::vector<std::unique_ptr<ShardServiceModel>> models_; ///< per shard
    std::unique_ptr<HostFallbackModel> hostModel_;
    std::vector<Server> servers_;     ///< per shard
    std::vector<ShardState> shards_;  ///< per shard
    RequestQueue queue_;
    std::unique_ptr<Scheduler> sched_;
    std::vector<TenantState> tenants_;

    FaultModel *faults_ = nullptr;
    SdcModel *sdcModel_ = nullptr;
    std::unique_ptr<SdcMonitor> sdcMonitor_;
    /** Next probation canary round (kNoEventNs: none scheduled). */
    double canaryDueNs_;
    /** Last canary round per channel (canary window start). */
    std::vector<double> lastCanaryNs_;
    Rng retryRng_;

    std::vector<ServeRequest> completions_;
    std::vector<SloObservation> sloObs_;
    TraceSession *trace_ = nullptr;
    RequestTracer *reqTracer_ = nullptr;
    double nowNs_ = 0.0;
    std::uint64_t nextId_ = 0;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_SERVING_ENGINE_H
