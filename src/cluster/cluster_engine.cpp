#include "cluster/cluster_engine.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/logging.h"
#include "common/trace.h"

namespace pimsim::cluster {

namespace {

/** Latency histogram shape: 1 us buckets up to ~16 ms. */
constexpr std::uint64_t kHistBucketNs = 1'000;
constexpr std::size_t kHistBuckets = 16'384;

} // namespace

void
ClusterReport::reconcile() const
{
    serve::assertBalanced("cluster", {submitted, completed, shed, timedOut,
                                      rejected, failed});
}

std::string
ClusterReport::toJson() const
{
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.field("horizon_ns", horizonNs);
    w.field("submitted", submitted);
    w.field("completed", completed);
    w.field("rejected", rejected);
    w.field("shed", shed);
    w.field("timed_out", timedOut);
    w.field("failed", failed);
    w.field("slo_violations", sloViolations);
    w.field("retries", retries);
    w.field("hedges_fired", hedgesFired);
    w.field("hedge_wins", hedgeWins);
    w.field("hedge_cancels", hedgeCancels);
    w.field("probes", probes);
    w.field("health_transitions", healthTransitions);
    w.field("throughput_rps", throughputRps);
    w.field("goodput_rps", goodputRps);
    w.key("e2e_ns").beginObject();
    w.field("mean", e2e.meanNs);
    w.field("p50", e2e.p50Ns);
    w.field("p95", e2e.p95Ns);
    w.field("p99", e2e.p99Ns);
    w.field("max", e2e.maxNs);
    w.endObject();
    w.key("hosts").beginArray();
    for (const auto &h : hosts) {
        w.beginObject();
        w.field("host", h.host);
        w.field("state", healthStateName(h.state));
        w.field("dispatches", h.dispatches);
        w.field("failures", h.failures);
        w.field("probes", h.probes);
        w.field("transitions", h.transitions);
        w.key("entries").beginObject();
        w.field("healthy", h.entries[0]);
        w.field("suspect", h.entries[1]);
        w.field("down", h.entries[2]);
        w.field("recovering", h.entries[3]);
        w.endObject();
        w.field("busy_ns", h.busyNs);
        w.field("utilization", h.utilization);
        w.field("link_utilization", h.linkUtilization);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return os.str();
}

ClusterEngine::ClusterEngine(const ClusterConfig &config)
    : config_(config),
      router_(config.router, config.numHosts),
      ledger_({"cluster"}, {"e2eNs"}, kHistBucketNs, kHistBuckets),
      attemptH_(kHistBucketNs, kHistBuckets)
{
    PIMSIM_ASSERT(config.numHosts >= 1, "a cluster needs >= 1 host");
    PIMSIM_ASSERT(config.maxAttempts >= 1, "need >= 1 dispatch attempt");
    PIMSIM_ASSERT(config.queueDepth >= 1, "need a router queue");

    hosts_.reserve(config.numHosts);
    for (unsigned h = 0; h < config.numHosts; ++h) {
        hosts_.push_back(std::make_unique<HostModel>(
            h, config_.system, config_.stacksPerHost, config_.link));
    }

    // Every dispatch is batch 1 of the one app on one homogeneous
    // stack, so a single stack-sized measurement prices them all.
    serve::ShardServiceModel stack_model(
        config_.system, config_.system.geometry.pchPerStack, config_.cache);
    stackServiceNs_ = stack_model.serviceNs(config_.app, 1);

    const Link &link = hosts_[0]->link();
    attemptEstimateNs_ = link.uncontendedNs(config_.link.requestBytes) +
                         stackServiceNs_ +
                         link.uncontendedNs(config_.link.responseBytes);
    timeoutNs_ = config_.timeoutNs > 0.0 ? config_.timeoutNs
                                         : 6.0 * attemptEstimateNs_;

    hostFailures_.assign(config.numHosts, 0);
    traceState_.assign(config.numHosts, HealthState::Healthy);
    traceSinceNs_.assign(config.numHosts, 0.0);
}

void
ClusterEngine::setTrace(TraceSession *session)
{
    trace_ = session;
    if (trace_ == nullptr)
        return;
    trace_->setProcessName(kTracePidCluster, "cluster");
    trace_->setThreadName(kTracePidCluster, requestTid(), "router");
    for (unsigned h = 0; h < numHosts(); ++h) {
        trace_->setThreadName(kTracePidCluster, static_cast<int>(h),
                              "host" + std::to_string(h));
        traceSinceNs_[h] = nowNs_;
        traceState_[h] = router_.state(h);
    }
}

double
ClusterEngine::hedgeDelayNs() const
{
    double delay;
    if (attemptH_.count() >= config_.hedge.minSamples) {
        // The p95 scan walks every bucket; refresh it at most once per
        // 256 completions rather than per dispatch.
        if (hedgeDelaySamples_ == 0 ||
            attemptH_.count() - hedgeDelaySamples_ >= 256) {
            cachedHedgeDelayNs_ = attemptH_.p95();
            hedgeDelaySamples_ = attemptH_.count();
        }
        delay = cachedHedgeDelayNs_;
    } else {
        delay = config_.hedge.initialDelayNs > 0.0
                    ? config_.hedge.initialDelayNs
                    : 4.0 * attemptEstimateNs_;
    }
    return std::max(delay, config_.hedge.floorNs);
}

double
ClusterEngine::backlogEstimateNs() const
{
    const unsigned alive_hosts =
        config_.router.failover ? router_.aliveHosts() : numHosts();
    if (alive_hosts == 0)
        return kNoEventNs; // nobody can serve: shed everything
    const double alive_stacks =
        static_cast<double>(alive_hosts) *
        static_cast<double>(config_.stacksPerHost);
    // Work ahead of a new arrival: everything queued plus everything
    // already occupying a stack, spread over the surviving capacity.
    std::uint64_t in_flight = 0;
    for (const auto &host : hosts_)
        in_flight += host->busyStacks();
    return static_cast<double>(queue_.size() + in_flight) *
           attemptEstimateNs_ / alive_stacks;
}

bool
ClusterEngine::submit(double arrival_ns)
{
    PIMSIM_ASSERT(arrival_ns >= nowNs_, "arrival in the past");
    advanceTo(arrival_ns);
    ledger_.submit(0);
    const std::uint64_t id = nextId_++;
    const double deadline =
        config_.deadlineNs > 0.0 ? arrival_ns + config_.deadlineNs : 0.0;

    Queued q{id, arrival_ns, deadline, 0, -1, {}};
    if (reqTracer_ != nullptr)
        q.trace = reqTracer_->begin(arrival_ns);

    if (queue_.size() >= config_.queueDepth) {
        close(q.trace, arrival_ns, deadline, serve::Terminal::Rejected,
              "rejected", false, false);
        return false;
    }
    if (config_.admission && deadline > 0.0) {
        const double eta =
            nowNs_ + backlogEstimateNs() + attemptEstimateNs_;
        if (eta > deadline) {
            close(q.trace, arrival_ns, deadline, serve::Terminal::Shed,
                  "shed", false, false);
            return false;
        }
    }
    queue_.push_back(q);
    dispatchAll();
    return true;
}

void
ClusterEngine::advanceTo(double ns)
{
    PIMSIM_ASSERT(ns >= nowNs_, "cluster clock can only move forward");
    for (double e = nextEventNs(); e <= ns; e = nextEventNs()) {
        nowNs_ = e;
        processDue();
    }
    nowNs_ = std::max(nowNs_, ns);
    processDue();
}

void
ClusterEngine::drain()
{
    while (!queue_.empty() || !active_.empty()) {
        const double e = nextEventNs();
        PIMSIM_ASSERT(e != kNoEventNs, "cluster drain stuck with ",
                      queue_.size(), " queued and ", active_.size(),
                      " in flight");
        advanceTo(e);
    }
    if (trace_ != nullptr) {
        // Close the open health span of every host at the drain point.
        for (unsigned h = 0; h < numHosts(); ++h) {
            if (nowNs_ > traceSinceNs_[h]) {
                trace_->span(kTracePidCluster, static_cast<int>(h),
                             healthStateName(traceState_[h]), "health",
                             traceSinceNs_[h], nowNs_ - traceSinceNs_[h]);
                traceSinceNs_[h] = nowNs_;
            }
        }
    }
    ledger_.assertDrained();
}

double
ClusterEngine::nextEventNs() const
{
    double next = router_.nextProbeNs();
    for (const auto &[id, a] : active_) {
        (void)id;
        if (a.primary.active)
            next = std::min(next, a.primary.eventNs);
        if (a.hedge.active)
            next = std::min(next, a.hedge.eventNs);
        if (!a.hedgeFired && a.primary.active)
            next = std::min(next, a.hedgeAtNs);
    }
    for (const auto &q : queue_) {
        if (q.deadlineNs > 0.0)
            next = std::min(next, q.deadlineNs);
    }
    return next;
}

void
ClusterEngine::processDue()
{
    // Fixed phase order keeps same-timestamp ties deterministic:
    // probes, copy events (id order, primary before hedge), hedge
    // timers, queue expiry, then dispatch into the freed capacity.
    for (int h = router_.dueProbeHost(nowNs_); h >= 0;
         h = router_.dueProbeHost(nowNs_)) {
        fireProbe(static_cast<unsigned>(h));
    }

    std::vector<std::uint64_t> due;
    for (const auto &[id, a] : active_) {
        if ((a.primary.active && a.primary.eventNs <= nowNs_) ||
            (a.hedge.active && a.hedge.eventNs <= nowNs_))
            due.push_back(id);
    }
    for (const std::uint64_t id : due) {
        auto it = active_.find(id);
        if (it == active_.end())
            continue;
        Active &a = it->second;
        if (a.primary.active && a.primary.eventNs <= nowNs_)
            finishCopy(a, a.primary, /*is_hedge=*/false);
        it = active_.find(id);
        if (it == active_.end())
            continue;
        Active &b = it->second;
        if (b.hedge.active && b.hedge.eventNs <= nowNs_)
            finishCopy(b, b.hedge, /*is_hedge=*/true);
    }

    std::vector<std::uint64_t> hedging;
    for (const auto &[id, a] : active_) {
        if (!a.hedgeFired && a.primary.active && a.hedgeAtNs <= nowNs_)
            hedging.push_back(id);
    }
    for (const std::uint64_t id : hedging) {
        const auto it = active_.find(id);
        if (it != active_.end())
            fireHedge(it->second);
    }

    expireQueue();
    dispatchAll();
}

void
ClusterEngine::expireQueue()
{
    const auto expired = [this](const Queued &q) {
        return q.deadlineNs > 0.0 && q.deadlineNs <= nowNs_;
    };
    for (const Queued &q : queue_) {
        if (expired(q)) {
            close(q.trace, q.arrivalNs, q.deadlineNs,
                  serve::Terminal::TimedOut, "queue-timeout",
                  /*hedged=*/false, q.attempts > 1);
        }
    }
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(), expired),
                 queue_.end());
}

int
ClusterEngine::pickHost(bool avoid_suspect, int exclude)
{
    if (numHosts() == 1)
        exclude = -1; // a one-host cluster has nowhere else to go
    if (!config_.router.failover) {
        // Static round-robin over every replica, skipping only busy
        // hosts (and an excluded retry source) — the naive cluster.
        for (unsigned i = 0; i < numHosts(); ++i) {
            const unsigned h = router_.nextRoundRobin();
            if (static_cast<int>(h) == exclude)
                continue;
            if (hosts_[h]->freeStack() >= 0)
                return static_cast<int>(h);
        }
        return -1;
    }

    // First pass never lands on a Suspect host; a fresh dispatch may
    // fall back to one when nothing better has capacity, a retry or
    // hedge may not.
    for (const bool strict : {true, false}) {
        if (!strict && avoid_suspect)
            break;
        int best = -1;
        unsigned best_busy = 0;
        for (unsigned h = 0; h < numHosts(); ++h) {
            if (static_cast<int>(h) == exclude)
                continue;
            if (!router_.eligible(h, strict))
                continue;
            if (hosts_[h]->freeStack() < 0)
                continue;
            const unsigned busy = hosts_[h]->busyStacks();
            if (best < 0 || busy < best_busy) {
                best = static_cast<int>(h);
                best_busy = busy;
            }
        }
        if (best >= 0)
            return best;
    }
    return -1;
}

std::uint64_t
ClusterEngine::transferId(const Active &a, bool is_hedge) const
{
    // Unique per dispatch attempt so every copy draws its own flaky-
    // link outcome; the fault model mixes this through SplitMix64.
    return (a.id << 12) | (std::uint64_t{a.attempts} << 1) |
           (is_hedge ? 1u : 0u);
}

bool
ClusterEngine::startCopy(Active &a, Copy &c, unsigned host_id,
                         bool is_hedge)
{
    HostModel &host = *hosts_[host_id];
    const int stack = host.freeStack();
    if (stack < 0)
        return false;

    const double slow =
        faults_ != nullptr ? faults_->hostSlowdown(host_id, nowNs_) : 1.0;
    const double svc = stackServiceNs_ * slow;
    const double at_host =
        host.link().transfer(config_.link.requestBytes, nowNs_);
    const double done =
        at_host + svc + host.link().uncontendedNs(config_.link.responseBytes);

    const std::uint64_t tid = transferId(a, is_hedge);
    const bool doomed =
        faults_ != nullptr &&
        (faults_->hostCrashed(host_id, nowNs_, done) ||
         faults_->linkDropped(host_id, tid, nowNs_));

    c.active = true;
    c.host = host_id;
    c.stack = static_cast<unsigned>(stack);
    c.dispatchNs = nowNs_;
    c.trace = reqTracer_ != nullptr ? reqTracer_->child(a.trace)
                                    : RequestTraceContext{};
    // A doomed copy holds its stack until the client-side timeout fires
    // — failure detection is not free.
    c.eventNs = doomed ? nowNs_ + timeoutNs_ : done;
    c.doomed = doomed;
    host.occupy(c.stack, nowNs_, c.eventNs, a.id);
    return true;
}

void
ClusterEngine::finishCopy(Active &a, Copy &c, bool is_hedge)
{
    hosts_[c.host]->release(c.stack, nowNs_);
    c.active = false;
    const bool ok = !c.doomed;
    if (!ok)
        ++hostFailures_[c.host];
    router_.recordOutcome(c.host, ok, nowNs_);
    noteHealth(c.host);

    if (reqTracer_ != nullptr) {
        const char *name = ok ? (is_hedge ? "rpc hedge" : "rpc")
                              : "rpc failed";
        reqTracer_->span(c.trace, kTracePidCluster,
                         static_cast<int>(c.host), name, "rpc",
                         c.dispatchNs, nowNs_ - c.dispatchNs);
    }

    if (ok) {
        attemptH_.sample(static_cast<std::uint64_t>(nowNs_ - c.dispatchNs),
                         a.trace.traceId);
        completeRequest(a, c, /*hedge_won=*/is_hedge);
        active_.erase(a.id);
        return;
    }

    // This copy failed. If its twin is still in flight the request
    // survives on that copy alone.
    Copy &other = is_hedge ? a.primary : a.hedge;
    if (!is_hedge)
        a.hedgeAtNs = kNoEventNs; // nothing left to hedge against
    if (other.active)
        return;

    if (a.attempts < config_.maxAttempts) {
        // Cross-host retry: never back to the host that just failed,
        // never to a Suspect replica.
        const unsigned failed_host = c.host;
        const int h = pickHost(/*avoid_suspect=*/true,
                               static_cast<int>(failed_host));
        if (h >= 0 && startCopy(a, a.primary, static_cast<unsigned>(h),
                                /*is_hedge=*/false)) {
            ++a.attempts;
            ++retries_;
            if (config_.hedge.enabled && !a.hedgeFired)
                a.hedgeAtNs = nowNs_ + hedgeDelayNs();
            if (trace_ != nullptr)
                trace_->instant(kTracePidCluster, h, "failover",
                                "cluster", nowNs_);
            if (reqTracer_ != nullptr) {
                reqTracer_->instant(a.trace, kTracePidCluster, h,
                                    "failover", "failover", nowNs_);
                reqTracer_->flow(a.trace, "failover", kTracePidCluster,
                                 static_cast<int>(failed_host), nowNs_,
                                 kTracePidCluster, h, nowNs_);
            }
            return;
        }
        // No eligible capacity right now: back to the queue front with
        // the failed host remembered, so the budget survives the wait.
        ++retries_;
        queue_.push_front(Queued{a.id, a.arrivalNs, a.deadlineNs,
                                 a.attempts, static_cast<int>(c.host),
                                 a.trace});
        active_.erase(a.id);
        return;
    }

    close(a.trace, a.arrivalNs, a.deadlineNs, serve::Terminal::Failed,
          "attempts-exhausted", a.hedgeFired, a.attempts > 1);
    active_.erase(a.id);
}

void
ClusterEngine::completeRequest(Active &a, const Copy &winner,
                               bool hedge_won)
{
    // Cancel the losing copy: its stack frees immediately, and its
    // unknown outcome never reaches the failure detector.
    Copy &loser = hedge_won ? a.primary : a.hedge;
    if (loser.active) {
        hosts_[loser.host]->release(loser.stack, nowNs_);
        loser.active = false;
        ++hedgeCancels_;
        if (reqTracer_ != nullptr) {
            reqTracer_->span(loser.trace, kTracePidCluster,
                             static_cast<int>(loser.host), "rpc cancelled",
                             "rpc", loser.dispatchNs,
                             nowNs_ - loser.dispatchNs);
        }
    }
    if (hedge_won)
        ++hedgeWins_;

    const double lat = nowNs_ - a.arrivalNs;
    ledger_.sample(0, 0, static_cast<std::uint64_t>(lat), a.trace.traceId);
    if (a.deadlineNs > 0.0 && nowNs_ > a.deadlineNs)
        ++sloViolations_;
    completions_.push_back(ClusterCompletion{
        a.id, a.arrivalNs, nowNs_, a.deadlineNs, winner.host,
        std::max(a.attempts, 1u), hedge_won});
    close(a.trace, a.arrivalNs, a.deadlineNs, serve::Terminal::Completed,
          /*instant=*/nullptr, a.hedgeFired, a.attempts > 1);
}

void
ClusterEngine::fireHedge(Active &a)
{
    a.hedgeAtNs = kNoEventNs;
    if (!config_.hedge.enabled || !a.primary.active || a.hedgeFired)
        return;
    const int h = pickHost(/*avoid_suspect=*/true,
                           static_cast<int>(a.primary.host));
    if (h < 0) {
        // No spare eligible capacity right now. Retry shortly — the
        // primary completing bounds how long this can recur.
        a.hedgeAtNs = nowNs_ + 0.25 * attemptEstimateNs_;
        return;
    }
    if (!startCopy(a, a.hedge, static_cast<unsigned>(h),
                   /*is_hedge=*/true))
        return;
    a.hedgeFired = true;
    ++hedgesFired_;
    if (trace_ != nullptr)
        trace_->instant(kTracePidCluster, h, "hedge", "cluster", nowNs_);
    if (reqTracer_ != nullptr) {
        reqTracer_->instant(a.trace, kTracePidCluster, h, "hedge",
                            "hedge", nowNs_);
        reqTracer_->flow(a.trace, "hedge", kTracePidCluster,
                         static_cast<int>(a.primary.host), nowNs_,
                         kTracePidCluster, h, nowNs_);
    }
}

void
ClusterEngine::fireProbe(unsigned host_id)
{
    router_.takeProbe(host_id);
    const std::uint64_t tid = (std::uint64_t{0xffff} << 48) |
                              (std::uint64_t{host_id} << 32) |
                              router_.probesSent(host_id);
    const bool ok =
        faults_ == nullptr ||
        (!faults_->hostCrashed(host_id, nowNs_, nowNs_) &&
         !faults_->linkDropped(host_id, tid, nowNs_));
    router_.recordOutcome(host_id, ok, nowNs_);
    noteHealth(host_id);
    if (trace_ != nullptr)
        trace_->instant(kTracePidCluster, static_cast<int>(host_id),
                        ok ? "probe-ok" : "probe-fail", "cluster", nowNs_);
}

void
ClusterEngine::noteHealth(unsigned host_id)
{
    if (trace_ == nullptr)
        return;
    const HealthState s = router_.state(host_id);
    if (s == traceState_[host_id])
        return;
    if (nowNs_ > traceSinceNs_[host_id]) {
        trace_->span(kTracePidCluster, static_cast<int>(host_id),
                     healthStateName(traceState_[host_id]), "health",
                     traceSinceNs_[host_id],
                     nowNs_ - traceSinceNs_[host_id]);
    }
    traceState_[host_id] = s;
    traceSinceNs_[host_id] = nowNs_;
}

void
ClusterEngine::dispatchAll()
{
    while (!queue_.empty()) {
        const Queued q = queue_.front();
        const int h =
            pickHost(/*avoid_suspect=*/q.attempts > 0, q.lastHost);
        if (h < 0)
            break; // head-of-line blocks until capacity frees
        queue_.pop_front();

        Active a;
        a.id = q.id;
        a.arrivalNs = q.arrivalNs;
        a.deadlineNs = q.deadlineNs;
        a.attempts = q.attempts;
        a.trace = q.trace;
        if (reqTracer_ != nullptr && q.attempts == 0 &&
            nowNs_ > q.arrivalNs) {
            // Router queue wait before the first dispatch (requeued
            // retries have no recorded wait start; their gap is visible
            // between the failed and the next rpc span).
            reqTracer_->span(reqTracer_->child(a.trace),
                             kTracePidCluster, requestTid(), "queue",
                             "queue", q.arrivalNs, nowNs_ - q.arrivalNs);
        }
        const bool started = startCopy(a, a.primary,
                                       static_cast<unsigned>(h),
                                       /*is_hedge=*/false);
        PIMSIM_ASSERT(started, "picked host ", h, " had no free stack");
        ++a.attempts;
        if (config_.hedge.enabled)
            a.hedgeAtNs = nowNs_ + hedgeDelayNs();
        active_.emplace(a.id, a);
    }
}

void
ClusterEngine::close(const RequestTraceContext &ctx, double arrival_ns,
                     double deadline_ns, serve::Terminal end,
                     const char *instant, bool hedged, bool failed_over)
{
    ledger_.close({.terminal = end, .arrivalNs = arrival_ns,
                   .deadlineNs = deadline_ns, .endNs = nowNs_, .trace = ctx,
                   .pid = kTracePidCluster, .tid = requestTid(),
                   .instant = instant, .hedged = hedged,
                   .failedOver = failed_over});
}

ClusterReport
ClusterEngine::report() const
{
    ClusterReport r;
    const serve::TerminalCounts &c = ledger_.counts(0);
    r.horizonNs = nowNs_;
    r.submitted = c.submitted;
    r.completed = c.completed;
    r.rejected = c.rejected;
    r.shed = c.shed;
    r.timedOut = c.timedOut;
    r.failed = c.failed;
    r.sloViolations = sloViolations_;
    r.retries = retries_;
    r.hedgesFired = hedgesFired_;
    r.hedgeWins = hedgeWins_;
    r.hedgeCancels = hedgeCancels_;
    r.healthTransitions = router_.totalTransitions();
    if (nowNs_ > 0.0) {
        r.throughputRps =
            static_cast<double>(c.completed) * 1e9 / nowNs_;
        r.goodputRps =
            static_cast<double>(c.completed - sloViolations_) * 1e9 /
            nowNs_;
    }
    r.e2e = ledger_.summary(0, 0);
    r.hosts.reserve(hosts_.size());
    for (unsigned h = 0; h < numHosts(); ++h) {
        HostReport hr;
        hr.host = h;
        hr.state = router_.state(h);
        hr.dispatches = hosts_[h]->dispatches();
        hr.failures = hostFailures_[h];
        hr.probes = router_.probesSent(h);
        const HealthTracker &t = router_.tracker(h);
        hr.transitions = t.transitions();
        hr.entries[0] = t.entries(HealthState::Healthy);
        hr.entries[1] = t.entries(HealthState::Suspect);
        hr.entries[2] = t.entries(HealthState::Down);
        hr.entries[3] = t.entries(HealthState::Recovering);
        r.probes += hr.probes;
        hr.busyNs = hosts_[h]->busyNs();
        hr.utilization = hosts_[h]->utilization(nowNs_);
        hr.linkUtilization = hosts_[h]->link().utilization(nowNs_);
        r.hosts.push_back(hr);
    }
    return r;
}

} // namespace pimsim::cluster
