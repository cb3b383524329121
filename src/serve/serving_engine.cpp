#include "serve/serving_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/trace.h"
#include "pim/pim_config.h"

namespace pimsim::serve {

namespace {

std::vector<double>
tenantWeights(const std::vector<TenantSpec> &tenants)
{
    std::vector<double> w;
    w.reserve(tenants.size());
    for (const auto &t : tenants)
        w.push_back(t.weight > 0.0 ? t.weight : 1.0);
    return w;
}

std::uint64_t
toNsSample(double ns)
{
    return ns <= 0.0 ? 0
                     : static_cast<std::uint64_t>(std::llround(ns));
}

LatencySummary
summariseHistogram(const Histogram &h)
{
    LatencySummary s;
    s.meanNs = h.mean();
    s.p50Ns = h.p50();
    s.p95Ns = h.p95();
    s.p99Ns = h.p99();
    s.maxNs = static_cast<double>(h.max());
    return s;
}

} // namespace

ServingEngine::ServingEngine(const ServeConfig &config)
    : config_(config),
      system_(std::make_unique<PimSystem>(config.system)),
      plan_(ShardPlan::shared(0, 0, 0)),
      queue_(config.queue,
             static_cast<unsigned>(config.tenants.size())),
      retryRng_(config.retrySeed)
{
    PIMSIM_ASSERT(!config.tenants.empty(), "serving needs >= 1 tenant");
    PIMSIM_ASSERT(config.system.withPim(),
                  "the serving layer drives a PIM-HBM system");
    config.retry.validate();
    if (config.sdc.enabled) {
        config.sdc.monitor.validate();
        PIMSIM_ASSERT(config.sdc.canaryPeriodNs > 0.0,
                      "canary period must be positive");
        PIMSIM_ASSERT(config.sdc.migrationNsPerRow >= 0.0,
                      "migration cost must be non-negative");
    }

    const unsigned pim_rows =
        PimConfMap::forRows(config.system.geometry.rowsPerBank)
            .firstReservedRow();
    const auto weights = tenantWeights(config.tenants);
    plan_ = config.shardChannels
                ? ShardPlan::sharded(system_->numChannels(), pim_rows,
                                     weights)
                : ShardPlan::shared(system_->numChannels(), pim_rows,
                                    static_cast<unsigned>(
                                        config.tenants.size()));

    plan_.assertRowIsolation();
    if (plan_.isSharded()) {
        for (unsigned t = 0; t < config.tenants.size(); ++t) {
            const ShardSpec &spec = plan_.shard(plan_.shardOf(t));
            drivers_.push_back(std::make_unique<PimDriver>(
                *system_, spec.firstRow, spec.numRows));
        }
    } else {
        drivers_.push_back(std::make_unique<PimDriver>(*system_));
    }

    if (config.sdc.enabled) {
        sdcMonitor_ = std::make_unique<SdcMonitor>(
            system_->numChannels(), config.system.pim.unitsPerPch,
            config.sdc.monitor);
        system_->statsRegistry().addGroup("sdc", &sdcMonitor_->stats());
    }
    canaryDueNs_ = kNoEventNs;
    lastCanaryNs_.assign(system_->numChannels(), 0.0);

    for (unsigned s = 0; s < plan_.numShards(); ++s) {
        models_.push_back(std::make_unique<ShardServiceModel>(
            config.system, floorPow2(plan_.shard(s).numChannels),
            config.timingCache));
    }
    hostModel_ = std::make_unique<HostFallbackModel>(config.system,
                                                     config.timingCache);
    servers_.resize(plan_.numShards());
    shards_.resize(plan_.numShards());
    for (auto &shard : shards_)
        shard.breaker = CircuitBreaker(config.breaker);

    sched_ = Scheduler::make(config.sched, weights);

    for (const auto &spec : config.tenants) {
        TenantState state{spec,
                          Histogram(config.histBucketNs, config.histBuckets),
                          Histogram(config.histBucketNs, config.histBuckets),
                          Histogram(config.histBucketNs, config.histBuckets)};
        tenants_.push_back(std::move(state));
    }

    // Register the latency histograms only once tenants_ has its final
    // size: a later push_back would reallocate and dangle the pointers.
    auto &registry = system_->statsRegistry();
    for (auto &t : tenants_) {
        const std::string base = "serve.tenant." + t.spec.name;
        registry.addHistogram(base + ".queueNs", &t.queueH);
        registry.addHistogram(base + ".serviceNs", &t.serviceH);
        registry.addHistogram(base + ".e2eNs", &t.e2eH);
    }
}

void
ServingEngine::setTrace(TraceSession *session)
{
    trace_ = session;
    if (sdcMonitor_)
        sdcMonitor_->setTrace(session);
    if (!trace_)
        return;
    trace_->setProcessName(kTracePidServing, "serving");
    trace_->setProcessName(kTracePidResilience, "resilience");
    for (unsigned s = 0; s < plan_.numShards(); ++s) {
        trace_->setThreadName(kTracePidServing, static_cast<int>(s),
                              "shard" + std::to_string(s));
        trace_->setThreadName(kTracePidResilience, static_cast<int>(s),
                              "shard" + std::to_string(s));
    }
}

PimDriver &
ServingEngine::tenantDriver(unsigned tenant)
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "bad tenant id ", tenant);
    return plan_.isSharded() ? *drivers_[tenant] : *drivers_[0];
}

double
ServingEngine::capacityPenalty(unsigned s) const
{
    if (!sdcMonitor_ || !config_.sdc.quarantine)
        return 1.0;
    const unsigned total = plan_.shard(s).numChannels;
    const unsigned active = plan_.activeChannelsOf(s);
    if (total == 0 || active == 0 || active == total)
        return 1.0;
    // Work redistribution: a GEMV's output rows stripe over the shard's
    // channels, so the same work on `active` of `total` channels takes
    // proportionally longer. (The shard-sized timing model stays at the
    // plan size; the analytic scale avoids the power-of-two cliff a
    // rebuilt 15-channel model would hit.)
    return static_cast<double>(total) / static_cast<double>(active);
}

double
ServingEngine::svc1Ns(unsigned tenant)
{
    auto &state = tenants_[tenant];
    if (state.svc1Ns < 0.0) {
        state.svc1Ns = models_[plan_.shardOf(tenant)]->serviceNs(
            state.spec.app, 1);
    }
    // Degraded capacity stretches the admission estimate too, so the
    // deadline gate sheds what the thinner shard cannot carry.
    return state.svc1Ns * capacityPenalty(plan_.shardOf(tenant));
}

double
ServingEngine::backlogNs(unsigned s)
{
    // Heuristic work estimate ahead of a new arrival on shard `s`:
    // the busy remainder, one dispatch per pending retry, and the queue
    // amortised over the scheduler's batch size. It deliberately ignores
    // fault risk — optimistic admission errs toward timing out in the
    // queue (still accounted) rather than shedding reachable work.
    double backlog = 0.0;
    if (servers_[s].busy)
        backlog += servers_[s].freeNs - nowNs_;
    for (const auto &pending : shards_[s].retries)
        backlog += svc1Ns(pending.batch.tenant);
    const double per_batch =
        static_cast<double>(std::max(config_.sched.maxBatch, 1u));
    for (unsigned t : plan_.tenantsOf(s)) {
        backlog += static_cast<double>(queue_.sizeForTenant(t)) *
                   svc1Ns(t) / per_batch;
    }
    return backlog;
}

void
ServingEngine::finishRequestTrace(ServeRequest &request, double end_ns,
                                  const char *terminal, bool erred)
{
    const bool missed =
        !erred && request.hasDeadline() && end_ns > request.deadlineNs;
    sloObs_.push_back(SloObservation{end_ns, !erred && !missed});
    if (reqTracer_ == nullptr || !request.trace.active())
        return;
    if (terminal != nullptr) {
        reqTracer_->instant(request.trace,
                            kTracePidServing,
                            static_cast<int>(plan_.shardOf(request.tenant)),
                            terminal, "terminal", end_ns);
    }
    reqTracer_->span(request.trace, kTracePidServing,
                     static_cast<int>(plan_.shardOf(request.tenant)),
                     "request " + tenants_[request.tenant].spec.name,
                     "request", request.arrivalNs,
                     end_ns - request.arrivalNs);
    TraceOutcome outcome;
    outcome.latencyNs = end_ns - request.arrivalNs;
    outcome.erred = erred;
    outcome.deadlineMissed = missed;
    outcome.failedOver = request.attempts > 1 || request.hostFallback;
    reqTracer_->end(request.trace, outcome);
}

bool
ServingEngine::submit(unsigned tenant, double arrival_ns)
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "bad tenant id ", tenant);
    PIMSIM_ASSERT(arrival_ns >= nowNs_,
                  "submission in the past: ", arrival_ns, " < ", nowNs_);
    advanceTo(arrival_ns);

    auto &state = tenants_[tenant];

    ServeRequest request;
    request.id = nextId_++;
    request.tenant = tenant;
    request.arrivalNs = arrival_ns;
    if (state.spec.deadlineNs > 0.0)
        request.deadlineNs = arrival_ns + state.spec.deadlineNs;
    if (reqTracer_ != nullptr)
        request.trace = reqTracer_->begin(arrival_ns);

    ++state.submitted;
    auto &stats = system_->serveStats();
    stats.add("tenant." + state.spec.name + ".submitted");

    if (config_.deadlineAdmission && request.hasDeadline()) {
        const unsigned s = plan_.shardOf(tenant);
        const double estimate =
            nowNs_ + backlogNs(s) + svc1Ns(tenant);
        if (estimate > request.deadlineNs) {
            ++state.shed;
            stats.add("tenant." + state.spec.name + ".shed");
            finishRequestTrace(request, nowNs_, "shed", true);
            return false;
        }
    }

    if (!queue_.tryPush(request)) {
        stats.add("tenant." + state.spec.name + ".rejected");
        finishRequestTrace(request, nowNs_, "rejected", true);
        return false;
    }
    stats.add("tenant." + state.spec.name + ".admitted");
    dispatchAll();
    return true;
}

double
ServingEngine::nextEventNs() const
{
    double next = kNoEventNs;
    for (unsigned s = 0; s < servers_.size(); ++s) {
        if (servers_[s].busy) {
            next = std::min(next, servers_[s].freeNs);
        } else if (shards_[s].holdUntilNs > nowNs_) {
            // A migration hold defers every pick; the hold expiry is the
            // shard's next event (reporting ready work here would spin
            // the event loop against the dispatch gate).
            next = std::min(next, shards_[s].holdUntilNs);
        } else {
            next = std::min(next, sched_->nextReadyNs(
                                      queue_, plan_.tenantsOf(s), nowNs_));
            for (const auto &pending : shards_[s].retries)
                next = std::min(next, pending.readyNs);
        }
    }
    // Queued deadlines fire as events so timeouts happen at the instant
    // the deadline passes, not lazily at the next dispatch. A tenant's
    // relative deadline is constant, so its FIFO front expires first.
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        const ServeRequest *head = queue_.front(t);
        if (head && head->hasDeadline())
            next = std::min(next, head->deadlineNs);
    }
    // Probation cool-downs and canary rounds advance only while other
    // work exists: pending canaries alone must not keep drain() alive
    // against an unbounded fault process.
    if (next < kNoEventNs && sdcMonitor_) {
        next = std::min(next, sdcMonitor_->nextEventNs());
        next = std::min(next, canaryDueNs_);
    }
    return next;
}

void
ServingEngine::advanceTo(double ns)
{
    while (true) {
        const double event = nextEventNs();
        if (event > ns) // also catches kNoEventNs
            break;
        nowNs_ = std::max(nowNs_, event);
        completeDue();
        expireDue();
        runSdcDue();
        dispatchAll();
    }
    nowNs_ = std::max(nowNs_, ns);
}

void
ServeReport::reconcile() const
{
    const auto check = [](const TenantReport &t) {
        const std::uint64_t terminal =
            t.completed + t.shed + t.timedOut + t.rejected;
        PIMSIM_ASSERT(terminal == t.submitted,
                      "serve accounting leak for '", t.name, "': ",
                      t.completed, " completed + ", t.shed, " shed + ",
                      t.timedOut, " timed out + ", t.rejected,
                      " rejected != ", t.submitted, " submitted");
    };
    for (const TenantReport &t : tenants)
        check(t);
    check(total);
}

void
ServingEngine::drain()
{
    while (true) {
        const double event = nextEventNs();
        if (event == kNoEventNs)
            break;
        advanceTo(event);
    }
    report().reconcile();
    // Close any breaker span still running so traces written before the
    // engine dies show the final open/half-open interval.
    for (unsigned s = 0; s < shards_.size(); ++s) {
        ShardState &shard = shards_[s];
        if (trace_ && shard.traceState != BreakerState::Closed &&
            nowNs_ > shard.traceSinceNs) {
            trace_->span(kTracePidResilience, static_cast<int>(s),
                         breakerStateName(shard.traceState), "breaker",
                         shard.traceSinceNs, nowNs_ - shard.traceSinceNs);
        }
        shard.traceSinceNs = nowNs_;
    }
}

void
ServingEngine::completeDue()
{
    for (unsigned s = 0; s < servers_.size(); ++s) {
        if (servers_[s].busy && servers_[s].freeNs <= nowNs_)
            finishBatch(s);
    }
}

void
ServingEngine::expireDue()
{
    auto &stats = system_->serveStats();
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        while (true) {
            const ServeRequest *head = queue_.front(t);
            if (!head || !head->hasDeadline() ||
                head->deadlineNs > nowNs_)
                break;
            ServeRequest expired = *head;
            queue_.popFront(t);
            ++tenants_[t].timedOut;
            stats.add("tenant." + tenants_[t].spec.name + ".timedOut");
            finishRequestTrace(expired, nowNs_, "queue-timeout", true);
        }
    }
}

int
ServingEngine::dueRetryIndex(unsigned s) const
{
    // Earliest ready time wins; insertion order (scheduling order)
    // breaks ties deterministically.
    int best = -1;
    for (unsigned i = 0; i < shards_[s].retries.size(); ++i) {
        const PendingRetry &pending = shards_[s].retries[i];
        if (pending.readyNs > nowNs_)
            continue;
        if (best < 0 ||
            pending.readyNs < shards_[s].retries[best].readyNs)
            best = static_cast<int>(i);
    }
    return best;
}

void
ServingEngine::noteBreakerState(unsigned s)
{
    ShardState &shard = shards_[s];
    const BreakerState now_state = shard.breaker.state();
    if (now_state == shard.traceState)
        return;
    auto &stats = system_->serveStats();
    const std::string base = "breaker.shard" + std::to_string(s);
    switch (now_state) {
      case BreakerState::Open:
        stats.add(base + ".opened");
        break;
      case BreakerState::HalfOpen:
        stats.add(base + ".halfOpen");
        break;
      case BreakerState::Closed:
        stats.add(base + ".closed");
        break;
    }
    if (trace_ && shard.traceState != BreakerState::Closed) {
        const double since = shard.breaker.stateSinceNs();
        trace_->span(kTracePidResilience, static_cast<int>(s),
                     breakerStateName(shard.traceState), "breaker",
                     shard.traceSinceNs,
                     std::max(since, shard.traceSinceNs) -
                         shard.traceSinceNs);
    }
    shard.traceState = now_state;
    shard.traceSinceNs = shard.breaker.stateSinceNs();
}

void
ServingEngine::startBatch(unsigned s, Batch &&batch, bool force_host)
{
    // A shard with every channel withdrawn has no PIM capacity left:
    // its tenants ride the host golden path until probation re-admits.
    if (!force_host && sdcMonitor_ && config_.sdc.quarantine &&
        plan_.shard(s).numChannels > 0 && plan_.activeChannelsOf(s) == 0)
        force_host = true;

    DispatchRoute route = DispatchRoute::Host;
    if (!force_host) {
        route = shards_[s].breaker.route(nowNs_);
        noteBreakerState(s); // Open -> HalfOpen happens inside route()
    }
    const bool host = route == DispatchRoute::Host;

    auto &state = tenants_[batch.tenant];
    const double service_ns =
        host ? hostModel_->serviceNs(state.spec.app, batch.size())
             : models_[s]->serviceNs(state.spec.app, batch.size()) *
                   capacityPenalty(s);
    sched_->onDispatched(batch, service_ns);
    for (auto &r : batch.requests) {
        r.dispatchNs = nowNs_;
        ++r.attempts;
        if (reqTracer_ != nullptr && r.trace.active()) {
            if (r.attempts == 1) {
                reqTracer_->span(reqTracer_->child(r.trace),
                                 kTracePidServing, static_cast<int>(s),
                                 "queue", "queue", r.arrivalNs,
                                 nowNs_ - r.arrivalNs);
            } else {
                reqTracer_->instant(r.trace, kTracePidServing,
                                    static_cast<int>(s),
                                    "retry a" + std::to_string(r.attempts),
                                    "retry", nowNs_);
            }
            reqTracer_->span(reqTracer_->child(r.trace),
                             kTracePidServing, static_cast<int>(s),
                             host ? "attempt host" : "attempt",
                             host ? "fallback" : "batch", nowNs_,
                             service_ns);
        }
    }

    auto &stats = system_->serveStats();
    stats.add("batchesDispatched");
    stats.add("queueDepthSum", queue_.size());
    if (trace_) {
        const char *cat = host ? "fallback"
                         : route == DispatchRoute::PimProbe ? "probe"
                                                            : "batch";
        trace_->span(kTracePidServing, static_cast<int>(s),
                     state.spec.name + " b" +
                         std::to_string(batch.size()) +
                         (host ? " host" : ""),
                     cat, nowNs_, service_ns);
    }
    servers_[s].busy = true;
    servers_[s].freeNs = nowNs_ + service_ns;
    servers_[s].serviceNs = service_ns;
    servers_[s].fallback = host;
    servers_[s].probe = route == DispatchRoute::PimProbe;
    servers_[s].inFlight = std::move(batch);
}

void
ServingEngine::dispatchAll()
{
    for (unsigned s = 0; s < servers_.size(); ++s) {
        if (shards_[s].holdUntilNs > nowNs_)
            continue; // weight-stripe migration in progress
        while (!servers_[s].busy) {
            // Due retries are older work: they run before fresh picks.
            const int retry = dueRetryIndex(s);
            if (retry >= 0) {
                PendingRetry pending =
                    std::move(shards_[s].retries[retry]);
                shards_[s].retries.erase(shards_[s].retries.begin() +
                                         retry);
                startBatch(s, std::move(pending.batch),
                           pending.forceHost);
                continue;
            }
            auto batch =
                sched_->pick(queue_, plan_.tenantsOf(s), nowNs_);
            if (!batch)
                break;
            startBatch(s, std::move(*batch), false);
        }
    }
}

void
ServingEngine::finishBatch(unsigned shard)
{
    Server &server = servers_[shard];
    ShardState &res = shards_[shard];
    const unsigned tenant = server.inFlight.tenant;
    auto &state = tenants_[tenant];
    auto &stats = system_->serveStats();

    // The host golden path is fault-immune (PimBlas's hostFallback
    // contract); only PIM batches consult the fault process.
    unsigned faults = 0;
    if (!server.fallback && faults_) {
        faults = faults_->faultEvents(
            shard, server.freeNs - server.serviceNs, server.freeNs);
    }
    const bool failed = faults > 0;
    if (faults > 0) {
        res.batchFaults += faults;
        stats.add("shard" + std::to_string(shard) + ".batchFaults",
                  faults);
        if (trace_) {
            trace_->instant(kTracePidResilience,
                            static_cast<int>(shard), "batchFault",
                            "fault", server.freeNs);
        }
    }
    if (!server.fallback) {
        res.breaker.record(!failed, server.freeNs);
        noteBreakerState(shard);
    }

    // Silent corruptions: invisible to the device's error reporting,
    // so they only matter on batches that completed "successfully".
    bool sdc_rerun = false;
    bool sdc_silent = false;
    if (!failed && !server.fallback && sdcModel_ &&
        config_.sdc.enabled) {
        const bool struck = applySdcOutcomes(
            shard, server.freeNs - server.serviceNs, server.freeNs);
        if (struck) {
            // With ABFT the checksum catches the corruption and the
            // batch re-executes on the host golden path; without it the
            // batch completes and serves wrong values.
            sdc_rerun = config_.sdc.abft;
            sdc_silent = !config_.sdc.abft;
        }
    }

    // Device time is consumed whether or not the batch succeeded.
    state.servedNs += server.serviceNs;

    if (sdc_rerun) {
        PendingRetry pending;
        pending.batch = std::move(server.inFlight);
        pending.readyNs = server.freeNs;
        pending.forceHost = true;
        state.retries += pending.batch.size();
        stats.add("tenant." + state.spec.name + ".sdcReruns",
                  pending.batch.size());
        if (trace_) {
            trace_->instant(kTracePidResilience,
                            static_cast<int>(shard), "sdcDetected",
                            "sdc", server.freeNs);
        }
        res.retries.push_back(std::move(pending));
    } else if (failed) {
        Batch batch = std::move(server.inFlight);
        const unsigned attempts = batch.requests.empty()
                                      ? 1u
                                      : batch.requests.front().attempts;
        PendingRetry pending;
        pending.batch = std::move(batch);
        if (attempts <= config_.retry.maxRetries) {
            // Budget left: back off exponentially with jitter.
            pending.readyNs =
                server.freeNs +
                config_.retry.backoffNs(attempts, retryRng_);
            pending.forceHost = false;
            state.retries += pending.batch.size();
            stats.add("tenant." + state.spec.name + ".retries",
                      pending.batch.size());
        } else {
            // Budget spent: straight to the host golden path.
            pending.readyNs = server.freeNs;
            pending.forceHost = true;
        }
        res.retries.push_back(std::move(pending));
    } else {
        for (auto &r : server.inFlight.requests) {
            r.completeNs = server.freeNs;
            r.hostFallback = server.fallback;
            state.queueH.sample(toNsSample(r.queueNs()),
                                r.trace.traceId);
            state.serviceH.sample(toNsSample(r.serviceNs()),
                                  r.trace.traceId);
            state.e2eH.sample(toNsSample(r.latencyNs()),
                              r.trace.traceId);
            ++state.completed;
            if (server.fallback) {
                ++state.fallbackCompleted;
                stats.add("tenant." + state.spec.name +
                          ".fallbackCompleted");
            }
            if (sdc_silent) {
                ++state.silentlyWrong;
                stats.add("tenant." + state.spec.name +
                          ".silentlyWrong");
            }
            if (r.hasDeadline() && r.completeNs > r.deadlineNs) {
                ++state.sloViolations;
                stats.add("tenant." + state.spec.name +
                          ".sloViolations");
            }
            // A silently wrong completion burns SLO error budget like
            // an error: the user saw a bad answer on time.
            finishRequestTrace(r, r.completeNs, nullptr, sdc_silent);
            completions_.push_back(r);
        }
        ++state.batches;
        stats.add("tenant." + state.spec.name + ".completed",
                  server.inFlight.size());
        stats.add("tenant." + state.spec.name + ".batches");
    }

    server.busy = false;
    server.fallback = false;
    server.probe = false;
    server.inFlight = Batch{};
}

bool
ServingEngine::applySdcOutcomes(unsigned shard, double start_ns,
                                double end_ns)
{
    const ShardSpec &spec = plan_.shard(shard);
    auto &stats = system_->serveStats();
    const unsigned units = sdcMonitor_->unitsPerChannel();
    bool struck = false;
    std::vector<std::uint8_t> unit_struck(units);
    for (unsigned c = 0; c < spec.numChannels; ++c) {
        const unsigned ch = spec.firstChannel + c;
        if (plan_.channelQuarantined(ch))
            continue; // withdrawn channels ran no part of this batch
        const std::vector<SdcEvent> events =
            sdcModel_->sdcEvents(ch, start_ns, end_ns);
        if (!events.empty()) {
            struck = true;
            stats.add("sdc.batchEvents", events.size());
        }
        // Localization needs detection: only the ABFT arm feeds the
        // monitor (an undefended serving path never learns it served
        // garbage, which is exactly the point).
        if (!config_.sdc.abft)
            continue;
        std::fill(unit_struck.begin(), unit_struck.end(), 0);
        for (const SdcEvent &e : events) {
            if (e.unit < units)
                unit_struck[e.unit] = 1;
        }
        for (unsigned u = 0; u < units; ++u) {
            if (unit_struck[u]) {
                sdcMonitor_->recordDetected(ch, u, end_ns);
                sdcMonitor_->recordConfirmed(ch, u, end_ns);
            } else {
                sdcMonitor_->recordClean(ch, u, end_ns);
            }
        }
    }
    if (struck)
        reconcileQuarantine();
    return struck;
}

void
ServingEngine::reconcileQuarantine()
{
    if (!sdcMonitor_ || !config_.sdc.quarantine)
        return;
    auto &stats = system_->serveStats();
    for (unsigned s = 0; s < plan_.numShards(); ++s) {
        const ShardSpec &spec = plan_.shard(s);
        bool changed = false;
        for (unsigned c = 0; c < spec.numChannels; ++c) {
            const unsigned ch = spec.firstChannel + c;
            const bool withdrawn = sdcMonitor_->channelWithdrawn(ch);
            if (withdrawn == plan_.channelQuarantined(ch))
                continue;
            changed = true;
            if (withdrawn) {
                plan_.quarantineChannel(ch);
                stats.add("sdc.channelQuarantined");
            } else {
                plan_.restoreChannel(ch);
                stats.add("sdc.channelRestored");
            }
            if (trace_) {
                trace_->instant(kTracePidResilience,
                                static_cast<int>(s),
                                (withdrawn ? "quarantine ch"
                                           : "restore ch") +
                                    std::to_string(ch),
                                "sdc", nowNs_);
            }
        }
        if (!changed)
            continue;
        // The capacity change replans the shard: the same row slices on
        // a different channel set. Row isolation must survive.
        plan_.assertRowIsolation();
        if (config_.sdc.migrationNsPerRow > 0.0) {
            // Re-striping pauses dispatch while the affected weight
            // rows stream to their new homes.
            unsigned resident_rows = 0;
            if (plan_.isSharded()) {
                for (unsigned t : plan_.tenantsOf(s)) {
                    resident_rows += drivers_[t]->capacityRows() -
                                     drivers_[t]->freeRows();
                }
            } else {
                resident_rows = drivers_[0]->capacityRows() -
                                drivers_[0]->freeRows();
            }
            if (resident_rows > 0) {
                shards_[s].holdUntilNs = std::max(
                    shards_[s].holdUntilNs,
                    nowNs_ + static_cast<double>(resident_rows) *
                                 config_.sdc.migrationNsPerRow);
                stats.add("sdc.migrations");
            }
        }
    }
}

void
ServingEngine::runSdcDue()
{
    if (!sdcMonitor_)
        return;
    sdcMonitor_->advanceTo(nowNs_);

    auto any_probation = [&]() {
        for (unsigned ch = 0; ch < sdcMonitor_->numChannels(); ++ch) {
            if (sdcMonitor_->channelOnProbation(ch))
                return true;
        }
        return false;
    };
    if (!any_probation()) {
        canaryDueNs_ = kNoEventNs;
        return;
    }
    if (canaryDueNs_ == kNoEventNs)
        canaryDueNs_ = nowNs_ + config_.sdc.canaryPeriodNs;
    if (canaryDueNs_ > nowNs_)
        return;

    // One canary round: every probation channel runs a host-verified
    // canary kernel behind the serving fence (no serving capacity is
    // consumed). The canary is clean iff no SDC event struck the
    // channel since the previous round.
    auto &stats = system_->serveStats();
    for (unsigned ch = 0; ch < sdcMonitor_->numChannels(); ++ch) {
        if (!sdcMonitor_->channelOnProbation(ch))
            continue;
        const double window_start =
            std::max(lastCanaryNs_[ch],
                     nowNs_ - config_.sdc.canaryPeriodNs);
        const bool clean =
            sdcModel_ == nullptr ||
            sdcModel_->sdcEvents(ch, window_start, nowNs_).empty();
        lastCanaryNs_[ch] = nowNs_;
        stats.add(clean ? "sdc.canaryOk" : "sdc.canaryFailed");
        for (unsigned u = 0; u < sdcMonitor_->unitsPerChannel(); ++u) {
            if (sdcMonitor_->state(ch, u) == UnitHealth::Probation)
                sdcMonitor_->recordCanary(ch, u, clean, nowNs_);
        }
    }
    reconcileQuarantine();
    canaryDueNs_ = any_probation() ? nowNs_ + config_.sdc.canaryPeriodNs
                                   : kNoEventNs;
}

std::vector<ServeRequest>
ServingEngine::takeCompletions()
{
    std::vector<ServeRequest> out;
    out.swap(completions_);
    return out;
}

std::vector<SloObservation>
ServingEngine::takeSloObservations()
{
    std::vector<SloObservation> out;
    out.swap(sloObs_);
    return out;
}

TenantReport
ServingEngine::summarise(const TenantState &t, double horizon_ns) const
{
    TenantReport r;
    r.name = t.spec.name;
    r.submitted = t.submitted;
    r.completed = t.completed;
    r.batches = t.batches;
    r.shed = t.shed;
    r.timedOut = t.timedOut;
    r.retries = t.retries;
    r.fallbackCompleted = t.fallbackCompleted;
    r.sloViolations = t.sloViolations;
    r.silentlyWrong = t.silentlyWrong;
    r.servedNs = t.servedNs;
    r.throughputRps =
        horizon_ns > 0.0
            ? static_cast<double>(t.completed) / (horizon_ns * 1e-9)
            : 0.0;
    r.queue = summariseHistogram(t.queueH);
    r.service = summariseHistogram(t.serviceH);
    r.e2e = summariseHistogram(t.e2eH);
    return r;
}

ServeReport
ServingEngine::report() const
{
    ServeReport report;
    report.horizonNs = nowNs_;
    report.total.name = "total";
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        TenantReport r = summarise(tenants_[t], nowNs_);
        r.admitted = queue_.admitted(t);
        r.rejected = queue_.rejected(t);
        report.total.submitted += r.submitted;
        report.total.admitted += r.admitted;
        report.total.rejected += r.rejected;
        report.total.completed += r.completed;
        report.total.batches += r.batches;
        report.total.shed += r.shed;
        report.total.timedOut += r.timedOut;
        report.total.retries += r.retries;
        report.total.fallbackCompleted += r.fallbackCompleted;
        report.total.sloViolations += r.sloViolations;
        report.total.silentlyWrong += r.silentlyWrong;
        report.total.servedNs += r.servedNs;
        report.tenants.push_back(std::move(r));
    }
    report.total.throughputRps =
        nowNs_ > 0.0
            ? static_cast<double>(report.total.completed) / (nowNs_ * 1e-9)
            : 0.0;

    for (unsigned s = 0; s < shards_.size(); ++s) {
        ShardResilienceReport r;
        r.shard = s;
        r.state = shards_[s].breaker.state();
        r.opens = shards_[s].breaker.opens();
        r.closes = shards_[s].breaker.closes();
        r.probes = shards_[s].breaker.probes();
        r.batchFaults = shards_[s].batchFaults;
        report.shards.push_back(r);
    }

    if (sdcMonitor_) {
        report.sdc.detected = sdcMonitor_->detected();
        report.sdc.confirmed = sdcMonitor_->confirmed();
        report.sdc.falseAlarms = sdcMonitor_->falseAlarms();
        report.sdc.quarantines = sdcMonitor_->quarantines();
        report.sdc.readmits = sdcMonitor_->readmits();
        report.sdc.withdrawnChannels = sdcMonitor_->withdrawnChannels();
    }

    // Aggregate latency summaries: weighted mean, worst-tenant tails
    // (per-tenant histograms are not mergeable sample-exactly; the
    // conservative max keeps the headline honest).
    auto aggregate = [&](auto pick_member) {
        LatencySummary s;
        std::uint64_t n = 0;
        for (unsigned t = 0; t < tenants_.size(); ++t) {
            const LatencySummary &src = pick_member(report.tenants[t]);
            const std::uint64_t c = report.tenants[t].completed;
            s.meanNs += src.meanNs * static_cast<double>(c);
            n += c;
            s.p50Ns = std::max(s.p50Ns, src.p50Ns);
            s.p95Ns = std::max(s.p95Ns, src.p95Ns);
            s.p99Ns = std::max(s.p99Ns, src.p99Ns);
            s.maxNs = std::max(s.maxNs, src.maxNs);
        }
        if (n)
            s.meanNs /= static_cast<double>(n);
        return s;
    };
    report.total.queue =
        aggregate([](const TenantReport &r) -> const LatencySummary & {
            return r.queue;
        });
    report.total.service =
        aggregate([](const TenantReport &r) -> const LatencySummary & {
            return r.service;
        });
    report.total.e2e =
        aggregate([](const TenantReport &r) -> const LatencySummary & {
            return r.e2e;
        });
    return report;
}

} // namespace pimsim::serve
