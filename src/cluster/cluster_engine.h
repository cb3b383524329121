/**
 * @file
 * The fault-tolerant cluster tier: M replicated hosts behind one router.
 *
 * ClusterEngine is a discrete-event simulation on the same virtual
 * nanosecond clock as the serving engine, one level up: requests arrive
 * at a cluster router, pass global admission control, and are routed to
 * a data-parallel replica — a HostModel of N PIM stacks behind a
 * bandwidth/latency/occupancy link. Dispatch cost is link transfer +
 * the stack's command-level kernel time (ShardServiceModel, priced once) +
 * response latency.
 *
 * Fault tolerance:
 *  - A serve::HostFaultModel (ChaosCampaign in benches) injects host
 *    crashes, straggler slowdowns, and flaky-link loss. A dispatch whose
 *    host dies mid-service or whose transfer drops is observed as a
 *    failure after the client-side timeout, not at its would-be
 *    completion: dead hosts cost detection latency, exactly as in a real
 *    cluster.
 *  - Every outcome feeds the router's per-host failure detector
 *    (healthy -> suspect -> down -> recovering); Down hosts take no
 *    traffic and are probed back to life.
 *  - Failed attempts retry cross-host — never on the failed host and
 *    never on a Suspect replica — until the attempt budget is spent.
 *  - A hedged request fires one backup copy to a second replica once
 *    the primary has been outstanding longer than the p95 of recent
 *    attempt latencies; the first success wins and the loser is
 *    cancelled (its stack frees immediately).
 *  - Global admission control sheds arrivals whose deadline cannot be
 *    met by the surviving capacity (Down hosts do not count).
 *
 * After drain(), every submitted request is exactly one of {completed,
 * shed, rejected, timed out, failed}; reconcile() asserts it. The same
 * configuration and submission sequence replay to a bit-identical
 * report, including health-state transition counts.
 */

#ifndef PIMSIM_CLUSTER_CLUSTER_ENGINE_H
#define PIMSIM_CLUSTER_CLUSTER_ENGINE_H

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/host.h"
#include "cluster/interconnect.h"
#include "cluster/router.h"
#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/stats.h"
#include "serve/request_ledger.h"
#include "serve/resilience.h"
#include "serve/service_model.h"
#include "sim/system_config.h"
#include "stack/workloads.h"

namespace pimsim {
class TraceSession;
}

namespace pimsim::cluster {

/** Hedged-request policy. */
struct HedgeConfig
{
    bool enabled = false;
    /** Completed attempts required before the p95 delay is trusted. */
    unsigned minSamples = 32;
    /** Hedge delay until then (0 = 4x the batch-1 attempt estimate). */
    double initialDelayNs = 0.0;
    /** Lower bound on the hedge delay (avoids hedging every request
     *  when the latency distribution is tight). */
    double floorNs = 0.0;
};

/** Full cluster-tier configuration. */
struct ClusterConfig
{
    /** Per-stack system template (geometry, timing, PIM config). */
    SystemConfig system = SystemConfig::pimHbmSystem();
    unsigned numHosts = 4;
    /** The paper's host integrates 4 HBM2-PIM stacks. */
    unsigned stacksPerHost = 4;
    /** The replicated application (one per request, batch 1). */
    AppSpec app;
    /** Relative completion deadline per request (0 disables). */
    double deadlineNs = 0.0;
    /** Router-side queue bound (admission hard-rejects beyond it). */
    unsigned queueDepth = 256;
    /** Total dispatch attempts per request (1 = no cross-host retry). */
    unsigned maxAttempts = 3;
    /**
     * Client-side failure-detection timeout: a doomed dispatch is
     * observed failed this long after it left the router
     * (0 = 6x the batch-1 attempt estimate).
     */
    double timeoutNs = 0.0;
    LinkConfig link;
    RouterConfig router;
    HedgeConfig hedge;
    /** Shed arrivals whose deadline the surviving capacity cannot meet. */
    bool admission = true;
    /** Optional cross-engine service-time memo (benchmark sweeps). */
    std::shared_ptr<serve::ServiceTimeCache> cache;
};

/** One completed request, for windowed post-processing in benches. */
struct ClusterCompletion
{
    std::uint64_t id = 0;
    double arrivalNs = 0.0;
    double completeNs = 0.0;
    double deadlineNs = 0.0; ///< absolute; 0 = none
    unsigned host = 0;       ///< replica that won
    unsigned attempts = 1;
    bool hedgeWon = false;

    double latencyNs() const { return completeNs - arrivalNs; }
    bool metDeadline() const
    {
        return deadlineNs <= 0.0 || completeNs <= deadlineNs;
    }
};

/** One host's slice of the cluster report. */
struct HostReport
{
    unsigned host = 0;
    HealthState state = HealthState::Healthy;
    std::uint64_t dispatches = 0;
    std::uint64_t failures = 0;
    std::uint64_t probes = 0;
    std::uint64_t transitions = 0;
    /** Entry counts per state: [healthy, suspect, down, recovering]. */
    std::uint64_t entries[4] = {0, 0, 0, 0};
    double busyNs = 0.0;
    double utilization = 0.0;
    double linkUtilization = 0.0;
};

/** Whole-run cluster outcome. */
struct ClusterReport
{
    double horizonNs = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t timedOut = 0;
    /** Attempt budget exhausted without a success. */
    std::uint64_t failed = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t retries = 0; ///< cross-host re-dispatches
    std::uint64_t hedgesFired = 0;
    std::uint64_t hedgeWins = 0;
    std::uint64_t hedgeCancels = 0;
    std::uint64_t probes = 0;
    std::uint64_t healthTransitions = 0;
    double throughputRps = 0.0;
    /** In-deadline completions per second. */
    double goodputRps = 0.0;
    serve::LatencySummary e2e;
    std::vector<HostReport> hosts;

    /**
     * PIMSIM_ASSERT that every submitted request reached exactly one
     * terminal state: completed + shed + rejected + timedOut + failed
     * == submitted. Valid after drain().
     */
    void reconcile() const;

    /** The report as a canonical JSON document (replay comparison,
     *  bench output embedding). */
    std::string toJson() const;
};

/** The replicated serving system: M hosts x N stacks behind a router. */
class ClusterEngine
{
  public:
    explicit ClusterEngine(const ClusterConfig &config);

    unsigned numHosts() const
    {
        return static_cast<unsigned>(hosts_.size());
    }
    HostModel &host(unsigned h) { return *hosts_[h]; }
    ClusterRouter &router() { return router_; }

    /** Batch-1 attempt estimate: link RTT + transfer + kernel time. */
    double attemptEstimateNs() const { return attemptEstimateNs_; }
    /** The failure-detection timeout in force. */
    double timeoutNs() const { return timeoutNs_; }
    /** The hedge delay a request dispatched now would get. */
    double hedgeDelayNs() const;

    /** Successful attempt latencies (drives the hedge-delay p95). */
    const Histogram &attemptHistogram() const { return attemptH_; }
    /** Request end-to-end latencies, completions only. */
    const Histogram &e2eHistogram() const { return ledger_.histogram(0, 0); }

    /**
     * Attach the host-level fault source (nullptr detaches). Queried at
     * dispatch time over the attempt's service window. Not owned.
     */
    void setFaultModel(serve::HostFaultModel *faults) { faults_ = faults; }

    /** Record health spans and hedge/failover instants on the cluster
     *  trace track (pid 5, one tid per host); nullptr disables. */
    void setTrace(TraceSession *session);

    /**
     * Attach a per-request causal tracer (nullptr detaches). Every
     * arrival is minted a RequestTraceContext; its queue wait, every
     * RPC copy (primary, retries, hedge), failover/hedge instants with
     * cross-host flow edges, and its terminal state are buffered as a
     * span tree and tail-sampled at the tracer. Not owned.
     */
    void setRequestTracer(RequestTracer *tracer)
    {
        reqTracer_ = tracer;
        ledger_.setTracer(tracer);
    }

    /**
     * Per-request terminal observations (timestamp + met-its-SLO)
     * accumulated since the last call — the SloMonitor feed. Sheds,
     * rejections, timeouts, failures and late completions are bad;
     * in-deadline completions are good.
     */
    std::vector<SloObservation> takeSloObservations()
    {
        return ledger_.takeSloObservations();
    }

    /**
     * Submit one request arriving at `arrival_ns` (>= the engine clock).
     * @return false when admission shed or rejected it.
     */
    bool submit(double arrival_ns);

    /** Advance the virtual clock, serving everything due by `ns`. */
    void advanceTo(double ns);

    /** Serve until queue, flights, hedges and probes are quiescent. */
    void drain();

    /** Next internal event; kNoEventNs when fully idle. */
    double nextEventNs() const;

    double nowNs() const { return nowNs_; }

    /** Completions since the last call (windowed bench analysis). */
    std::vector<ClusterCompletion> takeCompletions()
    {
        return std::exchange(completions_, {});
    }

    /** Aggregate outcome over everything served so far. */
    ClusterReport report() const;

  private:
    /** One copy of a request occupying one stack of one host. */
    struct Copy
    {
        bool active = false;
        unsigned host = 0;
        unsigned stack = 0;
        double dispatchNs = 0.0;
        double eventNs = 0.0; ///< completion or timeout observation
        bool doomed = false;  ///< crash/link-drop decided at dispatch
        /** This copy's "rpc" span identity (child of the request). */
        RequestTraceContext trace;
    };

    /** A request between admission and its terminal state. */
    struct Active
    {
        std::uint64_t id = 0;
        double arrivalNs = 0.0;
        double deadlineNs = 0.0; ///< absolute; 0 = none
        unsigned attempts = 0;
        Copy primary;
        Copy hedge;
        bool hedgeFired = false;
        double hedgeAtNs = kNoEventNs;
        RequestTraceContext trace; ///< the request's root span
    };

    struct Queued
    {
        std::uint64_t id = 0;
        double arrivalNs = 0.0;
        double deadlineNs = 0.0;
        unsigned attempts = 0; ///< > 0 for requeued retries
        int lastHost = -1;     ///< host the last attempt failed on
        RequestTraceContext trace;
    };

    void processDue();
    void dispatchAll();
    /** Start one copy of `a` on `host_id`; returns false if no stack. */
    bool startCopy(Active &a, Copy &c, unsigned host_id, bool is_hedge);
    void finishCopy(Active &a, Copy &c, bool is_hedge);
    void fireHedge(Active &a);
    void fireProbe(unsigned host_id);
    void expireQueue();
    /** Least-loaded eligible host with a free stack (-1 when none). */
    int pickHost(bool avoid_suspect, int exclude);
    void completeRequest(Active &a, const Copy &winner, bool hedge_won);
    void noteHealth(unsigned host_id);
    /** The per-request track on the cluster pid ("router" timeline). */
    int requestTid() const { return static_cast<int>(numHosts()); }
    /** End a request now in the ledger, on the router track.
     *  `instant` names non-completed ends. */
    void close(const RequestTraceContext &ctx, double arrival_ns,
               double deadline_ns, serve::Terminal end, const char *instant,
               bool hedged, bool failed_over);
    double backlogEstimateNs() const;
    std::uint64_t transferId(const Active &a, bool is_hedge) const;

    ClusterConfig config_;
    std::vector<std::unique_ptr<HostModel>> hosts_;
    ClusterRouter router_;
    serve::HostFaultModel *faults_ = nullptr;

    std::deque<Queued> queue_;
    std::map<std::uint64_t, Active> active_;

    /** One tenant ("cluster") with one metric: end-to-end latency. */
    serve::RequestLedger ledger_;
    Histogram attemptH_; ///< successful attempt latencies (hedge p95)
    mutable double cachedHedgeDelayNs_ = 0.0;
    mutable std::uint64_t hedgeDelaySamples_ = 0;

    /** Kernel time of one batch-1 dispatch on one stack. */
    double stackServiceNs_ = 0.0;
    double attemptEstimateNs_ = 0.0;
    double timeoutNs_ = 0.0;

    std::uint64_t sloViolations_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t hedgesFired_ = 0;
    std::uint64_t hedgeWins_ = 0;
    std::uint64_t hedgeCancels_ = 0;
    std::vector<std::uint64_t> hostFailures_;

    std::vector<ClusterCompletion> completions_;

    RequestTracer *reqTracer_ = nullptr;
    TraceSession *trace_ = nullptr;
    std::vector<HealthState> traceState_;
    std::vector<double> traceSinceNs_;

    double nowNs_ = 0.0;
    std::uint64_t nextId_ = 0;
};

} // namespace pimsim::cluster

#endif // PIMSIM_CLUSTER_CLUSTER_ENGINE_H
