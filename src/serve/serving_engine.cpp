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

} // namespace

ServingEngine::ServingEngine(const ServeConfig &config)
    : config_(config),
      ledger_(namesOf(config.tenants),
              {"queueNs", "serviceNs", "e2eNs"}, config.histBucketNs,
              config.histBuckets),
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

    // One cache under every model, so a tenant's app id is valid on its
    // shard's model and on the host path alike.
    auto cache = config.timingCache ? config.timingCache
                                    : std::make_shared<ServiceTimeCache>();
    for (unsigned s = 0; s < plan_.numShards(); ++s) {
        models_.push_back(std::make_unique<ShardServiceModel>(
            config.system, floorPow2(plan_.shard(s).numChannels), cache));
    }
    // The host golden path never issues PIM commands: price it on the
    // plain-HBM variant of the served system.
    SystemConfig host_system = config.system;
    host_system.kind = MemoryKind::Hbm;
    hostModel_ = std::make_unique<ShardServiceModel>(
        host_system, host_system.numChannels(), cache);
    auto &stats = system_->serveStats();
    const auto bind_name = [&](std::string name) {
        statNames_.push_back(std::move(name));
        return StatCounter(&stats, statNames_.back().c_str());
    };
    servers_.resize(plan_.numShards());
    shards_.resize(plan_.numShards());
    for (unsigned s = 0; s < plan_.numShards(); ++s) {
        ShardState &shard = shards_[s];
        shard.breaker = CircuitBreaker(config.breaker);
        const std::string id = std::to_string(s);
        shard.faultsStat = bind_name("shard" + id + ".batchFaults");
        shard.openedStat = bind_name("breaker.shard" + id + ".opened");
        shard.halfOpenStat = bind_name("breaker.shard" + id + ".halfOpen");
        shard.closedStat = bind_name("breaker.shard" + id + ".closed");
    }
    batchesDispatched_ = StatCounter(&stats, "batchesDispatched");
    queueDepthSum_ = StatCounter(&stats, "queueDepthSum");

    sched_ = Scheduler::make(config.sched, weights);

    for (const auto &spec : config.tenants) {
        const auto bind = [&](const char *stat) {
            return bind_name("tenant." + spec.name + "." + stat);
        };
        tenants_.push_back(TenantState{
            spec, cache->intern(spec.app), "request " + spec.name,
            bind("submitted"), bind("admitted"), bind("shed"),
            bind("rejected"), bind("timedOut"), bind("completed"),
            {0, bind("retries")}, {0, bind("sdcReruns")},
            {0, bind("fallbackCompleted")}, {0, bind("silentlyWrong")},
            {0, bind("sloViolations")}, {0, bind("batches")}});
    }
    ledger_.registerHistograms(system_->statsRegistry(), "serve.tenant.");
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
    const unsigned s = plan_.shardOf(tenant);
    // Degraded capacity stretches the admission estimate too, so the
    // deadline gate sheds what the thinner shard cannot carry.
    return models_[s]->serviceNs(tenants_[tenant].app, 1) *
           capacityPenalty(s);
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
ServingEngine::close(const ServeRequest &request, Terminal end,
                     double end_ns, const char *instant, bool wrong)
{
    ledger_.close(
        {.tenant = request.tenant, .terminal = end,
         .arrivalNs = request.arrivalNs, .deadlineNs = request.deadlineNs,
         .endNs = end_ns, .trace = request.trace, .pid = kTracePidServing,
         .tid = static_cast<int>(plan_.shardOf(request.tenant)),
         .span = tenants_[request.tenant].spanName.c_str(),
         .instant = instant, .wrong = wrong,
         .failedOver = request.attempts > 1 || request.hostFallback});
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

    ledger_.submit(tenant);
    state.submitted.add();

    if (config_.deadlineAdmission && request.hasDeadline()) {
        const unsigned s = plan_.shardOf(tenant);
        const double estimate =
            nowNs_ + backlogNs(s) + svc1Ns(tenant);
        if (estimate > request.deadlineNs) {
            state.shed.add();
            close(request, Terminal::Shed, nowNs_, "shed");
            return false;
        }
    }

    if (!queue_.tryPush(request)) {
        state.rejected.add();
        close(request, Terminal::Rejected, nowNs_, "rejected");
        return false;
    }
    state.admitted.add();
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
        assertBalanced(t.name, {t.submitted, t.completed, t.shed,
                                t.timedOut, t.rejected, 0});
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
    ledger_.assertDrained();
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
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        while (true) {
            const ServeRequest *head = queue_.front(t);
            if (!head || !head->hasDeadline() ||
                head->deadlineNs > nowNs_)
                break;
            ServeRequest expired = *head;
            queue_.popFront(t);
            tenants_[t].timedOut.add();
            close(expired, Terminal::TimedOut, nowNs_, "queue-timeout");
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
    switch (now_state) {
      case BreakerState::Open:
        shard.openedStat.add();
        break;
      case BreakerState::HalfOpen:
        shard.halfOpenStat.add();
        break;
      case BreakerState::Closed:
        shard.closedStat.add();
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
ServingEngine::startBatch(unsigned s, bool force_host)
{
    Batch &batch = servers_[s].inFlight;
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
        host ? hostModel_->serviceNs(state.app, batch.size())
             : models_[s]->serviceNs(state.app, batch.size()) *
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

    batchesDispatched_.add();
    queueDepthSum_.add(queue_.size());
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
                PendingRetry &pending = shards_[s].retries[retry];
                const bool force_host = pending.forceHost;
                servers_[s].inFlight = std::move(pending.batch);
                shards_[s].retries.erase(shards_[s].retries.begin() +
                                         retry);
                startBatch(s, force_host);
                continue;
            }
            if (!sched_->pick(queue_, plan_.tenantsOf(s), nowNs_,
                              servers_[s].inFlight))
                break;
            startBatch(s, false);
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
        res.faultsStat.add(faults);
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
        state.sdcReruns.add(pending.batch.size());
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
            state.retries.add(pending.batch.size());
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
            ledger_.sample(tenant, kQueue, toNsSample(r.queueNs()),
                           r.trace.traceId);
            ledger_.sample(tenant, kService, toNsSample(r.serviceNs()),
                           r.trace.traceId);
            ledger_.sample(tenant, kE2e, toNsSample(r.latencyNs()),
                           r.trace.traceId);
            if (server.fallback)
                state.fallbackCompleted.add();
            if (sdc_silent)
                state.silentlyWrong.add();
            if (r.hasDeadline() && r.completeNs > r.deadlineNs)
                state.sloViolations.add();
            // A silently wrong completion burns SLO error budget like
            // an error: the user saw a bad answer on time.
            close(r, Terminal::Completed, r.completeNs, nullptr,
                  sdc_silent);
            completions_.push_back(r);
        }
        state.completed.add(server.inFlight.size());
        state.batches.add();
    }

    server.busy = false;
    server.fallback = false;
    server.probe = false;
    // Keep the buffer for the next batch (a failed batch took its own
    // into PendingRetry above).
    server.inFlight.requests.clear();
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

TenantReport
ServingEngine::summarise(unsigned tenant) const
{
    const TenantState &t = tenants_[tenant];
    const TerminalCounts &c = ledger_.counts(tenant);
    TenantReport r;
    r.name = t.spec.name;
    r.submitted = c.submitted;
    r.admitted = queue_.admitted(tenant);
    r.rejected = c.rejected;
    r.completed = c.completed;
    r.batches = t.batches.value;
    r.shed = c.shed;
    r.timedOut = c.timedOut;
    r.retries = t.retries.value + t.sdcReruns.value;
    r.fallbackCompleted = t.fallbackCompleted.value;
    r.sloViolations = t.sloViolations.value;
    r.silentlyWrong = t.silentlyWrong.value;
    r.servedNs = t.servedNs;
    r.throughputRps =
        nowNs_ > 0.0 ? static_cast<double>(c.completed) / (nowNs_ * 1e-9)
                     : 0.0;
    r.queue = ledger_.summary(tenant, kQueue);
    r.service = ledger_.summary(tenant, kService);
    r.e2e = ledger_.summary(tenant, kE2e);
    return r;
}

ServeReport
ServingEngine::report() const
{
    ServeReport report;
    report.horizonNs = nowNs_;
    report.total.name = "total";
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        TenantReport r = summarise(t);
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
    report.total.queue = ledger_.pooledSummary(kQueue);
    report.total.service = ledger_.pooledSummary(kService);
    report.total.e2e = ledger_.pooledSummary(kE2e);

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
    return report;
}

} // namespace pimsim::serve
