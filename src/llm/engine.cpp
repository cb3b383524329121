#include "llm/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "serve/scheduler.h"

namespace pimsim::llm {

namespace {

serve::LatencySummary
summariseHist(const Histogram &h)
{
    serve::LatencySummary s;
    if (h.count() == 0)
        return s;
    s.meanNs = h.mean();
    s.p50Ns = h.p50();
    s.p95Ns = h.p95();
    s.p99Ns = h.p99();
    s.maxNs = static_cast<double>(h.max());
    return s;
}

} // namespace

void
LlmReport::reconcile() const
{
    const auto check = [](const LlmTenantReport &t) {
        PIMSIM_ASSERT(t.completed + t.shed + t.timedOut + t.rejected ==
                          t.submitted,
                      "LLM terminal-state drift for '", t.name,
                      "': completed ", t.completed, " + shed ", t.shed,
                      " + timedOut ", t.timedOut, " + rejected ", t.rejected,
                      " != submitted ", t.submitted);
        PIMSIM_ASSERT(t.admitted == t.submitted - t.rejected - t.shed,
                      "LLM admission drift for '", t.name, "'");
    };
    for (const LlmTenantReport &t : tenants)
        check(t);
    check(total);
    PIMSIM_ASSERT(kvBlocksAllocated == kvBlocksFreed,
                  "KV blocks leaked across the run: allocated ",
                  kvBlocksAllocated, " != freed ", kvBlocksFreed);
}

LlmEngine::LlmEngine(const LlmEngineConfig &config) : config_(config)
{
    config_.decoder.validate();
    PIMSIM_ASSERT(!config_.tenants.empty(), "LLM engine needs tenants");
    PIMSIM_ASSERT(config_.system.withPim(),
                  "LLM decode serving requires a PIM system");
    PIMSIM_ASSERT(config_.ctxGranule >= 1 && config_.prefillGranule >= 1,
                  "zero bucketing granule");

    system_ = std::make_unique<PimSystem>(config_.system);
    const unsigned channels = system_->numChannels();

    // Pin the model weights in PIM rows first; decode state pages into
    // whatever is left.
    weightDriver_ = std::make_unique<PimDriver>(*system_);
    const std::uint64_t row_bytes =
        config_.system.geometry.bytesPerRow() *
        config_.system.geometry.banksPerPch() * channels;
    const std::uint64_t weight_rows_needed =
        (config_.decoder.weightBytes() + row_bytes - 1) / row_bytes;
    PIMSIM_ASSERT(weight_rows_needed < weightDriver_->capacityRows(),
                  "decoder weights (", weight_rows_needed,
                  " rows) do not fit the PIM region (",
                  weightDriver_->capacityRows(), " rows)");
    const PimStatus st = weightDriver_->allocRows(
        static_cast<unsigned>(weight_rows_needed), weightBlock_);
    PIMSIM_ASSERT(st == PimStatus::Ok,
                  "weight residency allocation failed: ", pimStatusName(st));

    // Partition the remaining rows per tenant: hard KV isolation, the
    // row-range analogue of the serving layer's channel sharding.
    const unsigned kv_first = weightBlock_.firstRow + weightBlock_.numRows;
    const unsigned kv_total = weightDriver_->baseRow() +
                              weightDriver_->capacityRows() - kv_first;
    const unsigned tenants = static_cast<unsigned>(config_.tenants.size());
    const unsigned span = kv_total / tenants;
    PIMSIM_ASSERT(span >= 1, "no PIM rows left for the KV cache");
    std::vector<PimDriver *> partitions;
    std::vector<std::uint64_t> caps;
    for (unsigned t = 0; t < tenants; ++t) {
        kvPartitions_.push_back(std::make_unique<PimDriver>(
            *system_, kv_first + t * span, span));
        partitions.push_back(kvPartitions_.back().get());
        caps.push_back(config_.tenants[t].kvBlockCap);
    }
    kv_ = std::make_unique<KvCacheManager>(config_.decoder, config_.kv,
                                           row_bytes, std::move(partitions),
                                           std::move(caps));
    batcher_ = std::make_unique<ContinuousBatcher>(config_.batcher, *kv_);
    model_ = std::make_unique<serve::ShardServiceModel>(
        config_.system, channels, config_.timingCache);
    ffnApp_ = decodeFfnApp(config_.decoder);

    tenants_.reserve(config_.tenants.size());
    for (const LlmTenantSpec &spec : config_.tenants)
        tenants_.emplace_back(spec, config_.histBucketNs,
                              config_.histBuckets);
    // Histogram registration only after tenants_ reached its final size
    // (reallocation would dangle the registered pointers).
    StatsRegistry &registry = system_->statsRegistry();
    for (TenantState &t : tenants_) {
        const std::string base = "llm.tenant." + t.spec.name;
        registry.addHistogram(base + ".ttftNs", &t.ttftH);
        registry.addHistogram(base + ".perTokenNs", &t.perTokenH);
        registry.addHistogram(base + ".e2eNs", &t.e2eH);
    }
    registry.addGroup("llm", &stats_);
    registry.addGroup("llm.kv", &kv_->statsGroup());
}

bool
LlmEngine::submit(unsigned tenant, double arrival_ns, unsigned prompt_tokens,
                  unsigned output_tokens)
{
    PIMSIM_ASSERT(tenant < tenants_.size(), "tenant out of range");
    PIMSIM_ASSERT(arrival_ns >= nowNs_, "time ran backwards on submit");
    PIMSIM_ASSERT(prompt_tokens >= 1 && output_tokens >= 1,
                  "empty prompt or output");
    advanceTo(arrival_ns);
    TenantState &t = tenants_[tenant];
    ++t.submitted;

    LlmRequest req;
    req.id = nextId_++;
    req.tenant = tenant;
    req.promptTokens = prompt_tokens;
    req.outputTokens = output_tokens;
    req.arrivalNs = arrival_ns;
    if (t.spec.deadlineNs > 0.0)
        req.deadlineNs = arrival_ns + t.spec.deadlineNs;
    if (reqTracer_ != nullptr)
        req.trace = reqTracer_->begin(arrival_ns);

    // Feasibility: an admitted request must be guaranteed to fit its
    // tenant's KV budget at terminal length, or preemption could churn
    // forever without ever seating it.
    const unsigned total_tokens = prompt_tokens + output_tokens;
    if (total_tokens > config_.decoder.maxContextTokens ||
        kv_->blocksFor(total_tokens) > kv_->capBlocks(tenant)) {
        ++t.rejected;
        finishRequestTrace(req, nowNs_, "rejected", /*erred=*/true);
        return false;
    }

    if (config_.deadlineAdmission && req.hasDeadline()) {
        // Optimistic estimate (zero queueing, full batch amortisation
        // unavailable): if even that misses the deadline, shed now
        // rather than burning decode iterations on a doomed request.
        const double est = estimateNs(tenant, prompt_tokens, output_tokens);
        if (arrival_ns + est > req.deadlineNs) {
            ++t.shed;
            finishRequestTrace(req, nowNs_, "shed", /*erred=*/true);
            return false;
        }
    }

    const LlmRequest admitted = req; // admit() consumes the request
    if (!batcher_->admit(std::move(req))) {
        ++t.rejected;
        finishRequestTrace(admitted, nowNs_, "queue-full",
                           /*erred=*/true);
        return false;
    }
    if (!iterationInFlight_)
        dispatch();
    return true;
}

void
LlmEngine::advanceTo(double ns)
{
    PIMSIM_ASSERT(ns >= nowNs_, "time ran backwards");
    while (iterationInFlight_ && iterationEndNs_ <= ns) {
        nowNs_ = iterationEndNs_;
        finishIteration();
        expireDue();
        dispatch();
    }
    nowNs_ = std::max(nowNs_, ns);
    expireDue();
    if (!iterationInFlight_)
        dispatch();
}

void
LlmEngine::drain()
{
    while (true) {
        expireDue();
        if (!iterationInFlight_)
            dispatch();
        const double next = nextEventNs();
        if (next == serve::kNoEventNs)
            break;
        advanceTo(next);
    }
    PIMSIM_ASSERT(batcher_->idle(), "drain left work behind");
    PIMSIM_ASSERT(kv_->liveSeqs() == 0, "drain left ", kv_->liveSeqs(),
                  " live KV sequences");
    batcher_->reconcile();
    kv_->reconcile();
}

double
LlmEngine::nextEventNs() const
{
    return iterationInFlight_ ? iterationEndNs_ : serve::kNoEventNs;
}

StatsRegistry &
LlmEngine::statsRegistry()
{
    return system_->statsRegistry();
}

std::vector<LlmRequest>
LlmEngine::takeCompletions()
{
    std::vector<LlmRequest> out;
    out.swap(completions_);
    return out;
}

void
LlmEngine::setTrace(TraceSession *session)
{
    trace_ = session;
    if (trace_ != nullptr) {
        trace_->setProcessName(kTracePidLlm, "llm");
        trace_->setThreadName(kTracePidLlm, 0, "decode iterations");
        trace_->setThreadName(kTracePidLlm, 1, "kv occupancy");
        trace_->setThreadName(kTracePidLlm, 2, "requests");
    }
}

void
LlmEngine::setRequestTracer(RequestTracer *tracer)
{
    reqTracer_ = tracer;
    batcher_->setRequestTracer(tracer);
}

std::vector<SloObservation>
LlmEngine::takeSloObservations()
{
    std::vector<SloObservation> out;
    out.swap(sloObs_);
    return out;
}

double
LlmEngine::svcFfn(unsigned batch) const
{
    return model_->serviceNs(ffnApp_, batch);
}

double
LlmEngine::svcAttn(unsigned ctx_bucket) const
{
    return model_->serviceNs(decodeAttnApp(config_.decoder, ctx_bucket), 1);
}

double
LlmEngine::prefillNs(unsigned context_tokens) const
{
    const unsigned bucket = ctxBucket(context_tokens, config_.prefillGranule);
    // Weight GEMVs batch across the whole staged context; the causal
    // attention triangle averages to the full-context shape at half the
    // context's batch.
    return svcFfn(bucket) +
           model_->serviceNs(
               decodeAttnApp(config_.decoder,
                             ctxBucket(context_tokens, config_.ctxGranule)),
               std::max(1u, bucket / 2));
}

double
LlmEngine::iterationNs(const std::vector<LlmRequest> &joined) const
{
    double ns = 0.0;
    for (const LlmRequest &r : joined)
        ns += prefillNs(std::max(1u, r.contextTokens()));
    // costBatch(), not runningSize(): an AdmitOnce wave keeps paying
    // for its padding slots until the longest member finishes.
    ns += svcFfn(batcher_->costBatch());
    for (const LlmRequest &r : batcher_->running())
        ns += svcAttn(ctxBucket(r.contextTokens(), config_.ctxGranule));
    return ns;
}

double
LlmEngine::estimateNs(unsigned tenant, unsigned prompt, unsigned output)
{
    (void)tenant;
    const double per_token =
        svcFfn(1) +
        svcAttn(ctxBucket(prompt + output, config_.ctxGranule));
    return prefillNs(prompt) + output * per_token;
}

void
LlmEngine::dispatch()
{
    PIMSIM_ASSERT(!iterationInFlight_, "dispatch over a running iteration");
    if (!batcher_->beginIteration(nowNs_, lastJoined_))
        return;
    if (reqTracer_ != nullptr) {
        for (const LlmRequest &r : lastJoined_) {
            if (r.preemptions == 0 && nowNs_ > r.arrivalNs) {
                reqTracer_->span(reqTracer_->child(r.trace), kTracePidLlm,
                                 2, "queue", "queue", r.arrivalNs,
                                 nowNs_ - r.arrivalNs);
            } else if (r.preemptions > 0) {
                reqTracer_->instant(r.trace, kTracePidLlm, 2, "rejoin",
                                    "batch", nowNs_);
            }
            // Link the request's span tree to the shared decode-iteration
            // timeline it now rides.
            reqTracer_->flow(r.trace, "join", kTracePidLlm, 2, nowNs_,
                             kTracePidLlm, 0, nowNs_);
        }
    }
    const double dur = iterationNs(lastJoined_);
    iterationStartNs_ = nowNs_;
    iterationEndNs_ = nowNs_ + dur;
    iterationInFlight_ = true;
}

void
LlmEngine::finishIteration()
{
    PIMSIM_ASSERT(iterationInFlight_, "finish without an iteration");
    iterationInFlight_ = false;
    const double start = iterationStartNs_;
    const double end = iterationEndNs_;
    const std::uint64_t batch = batcher_->runningSize();
    ++iterations_;
    batchTokenSum_ += batch;

    const bool faulted =
        faults_ != nullptr && faults_->faultEvents(0, start, end) > 0;
    if (trace_ != nullptr) {
        trace_->span(kTracePidLlm, 0,
                     faulted ? "decode-iter(fault)" : "decode-iter", "llm",
                     start, end - start, "batch", std::to_string(batch));
        trace_->span(kTracePidLlm, 1, "kv", "llm", start, end - start,
                     "residentBlocks",
                     std::to_string(kv_->residentBlocks()));
        if (!lastJoined_.empty())
            trace_->instant(kTracePidLlm, 0,
                            "join x" + std::to_string(lastJoined_.size()),
                            "llm", start);
    }
    if (reqTracer_ != nullptr) {
        // Every member of the batch decoded (or lost) one token this
        // iteration: each gets a child span of its own request tree.
        const char *name = faulted ? "decode-iter(fault)" : "decode-iter";
        for (const LlmRequest &r : batcher_->running()) {
            reqTracer_->span(reqTracer_->child(r.trace), kTracePidLlm, 2,
                             name, "iter", start, end - start);
            if (!faulted && r.firstTokenNs < 0.0)
                reqTracer_->instant(r.trace, kTracePidLlm, 2,
                                    "first-token", "token", end);
        }
    }
    lastJoined_.clear();
    if (faulted) {
        // The fault struck mid-iteration: the batch's token is lost and
        // the same iteration re-runs (KV state is intact — AB-mode rows
        // are re-written by the retry).
        ++faultedIterations_;
        return;
    }
    for (LlmRequest &done : batcher_->finishIteration(end))
        recordCompletion(done);
}

void
LlmEngine::expireDue()
{
    for (const LlmRequest &dead : batcher_->expireQueued(nowNs_)) {
        TenantState &t = tenants_[dead.tenant];
        ++t.timedOut;
        t.preemptions += dead.preemptions;
        finishRequestTrace(dead, nowNs_, "queue-timeout", /*erred=*/true);
    }
}

void
LlmEngine::finishRequestTrace(const LlmRequest &request, double end_ns,
                              const char *terminal, bool erred)
{
    const bool missed = !erred && request.hasDeadline() &&
                        end_ns > request.deadlineNs;
    sloObs_.push_back(SloObservation{end_ns, !erred && !missed});
    if (reqTracer_ == nullptr || !request.trace.active())
        return;
    if (terminal != nullptr) {
        reqTracer_->instant(request.trace, kTracePidLlm, 2, terminal,
                            "terminal", end_ns);
    }
    reqTracer_->span(request.trace, kTracePidLlm, 2, "request", "request",
                     request.arrivalNs, end_ns - request.arrivalNs);
    TraceOutcome outcome;
    outcome.latencyNs = end_ns - request.arrivalNs;
    outcome.erred = erred;
    outcome.deadlineMissed = missed;
    // Evict-and-requeue is the LLM tier's failover analogue: preempted
    // requests are always worth keeping.
    outcome.failedOver = request.preemptions > 0;
    reqTracer_->end(request.trace, outcome);
}

void
LlmEngine::recordCompletion(const LlmRequest &request)
{
    TenantState &t = tenants_[request.tenant];
    ++t.completed;
    t.tokensOut += request.outputTokens;
    t.preemptions += request.preemptions;
    t.ttftH.sample(static_cast<std::uint64_t>(
                       std::max(0.0, request.firstTokenNs -
                                         request.arrivalNs)),
                   request.trace.traceId);
    const double e2e = std::max(0.0, request.completeNs - request.arrivalNs);
    // Normalized latency (e2e per output token): the standard metric
    // for comparing batch schedulers — it charges queueing and
    // preemption stalls to every token, which raw inter-token gaps
    // would hide.
    t.perTokenH.sample(static_cast<std::uint64_t>(
                           e2e / std::max(1u, request.outputTokens)),
                       request.trace.traceId);
    t.e2eH.sample(static_cast<std::uint64_t>(e2e), request.trace.traceId);
    if (request.hasDeadline() && request.completeNs > request.deadlineNs)
        ++t.sloViolations;
    else
        t.goodTokens += request.outputTokens;
    finishRequestTrace(request, request.completeNs, /*terminal=*/nullptr,
                       /*erred=*/false);
    completions_.push_back(request);
}

LlmTenantReport
LlmEngine::summarise(const TenantState &t, double horizon_ns) const
{
    LlmTenantReport r;
    r.name = t.spec.name;
    r.submitted = t.submitted;
    r.rejected = t.rejected;
    r.shed = t.shed;
    r.timedOut = t.timedOut;
    r.completed = t.completed;
    r.admitted = t.submitted - t.rejected - t.shed;
    r.preemptions = t.preemptions;
    r.sloViolations = t.sloViolations;
    r.tokensOut = t.tokensOut;
    r.goodputTokensPerSec =
        horizon_ns > 0.0 ? t.goodTokens * 1e9 / horizon_ns : 0.0;
    r.ttft = summariseHist(t.ttftH);
    r.perToken = summariseHist(t.perTokenH);
    r.e2e = summariseHist(t.e2eH);
    return r;
}

LlmReport
LlmEngine::report() const
{
    LlmReport report;
    report.horizonNs = nowNs_;
    TenantState total(LlmTenantSpec{"total", 0.0, 0}, 1, 1);
    for (const TenantState &t : tenants_) {
        report.tenants.push_back(summarise(t, nowNs_));
        total.submitted += t.submitted;
        total.rejected += t.rejected;
        total.shed += t.shed;
        total.timedOut += t.timedOut;
        total.completed += t.completed;
        total.preemptions += t.preemptions;
        total.sloViolations += t.sloViolations;
        total.tokensOut += t.tokensOut;
        total.goodTokens += t.goodTokens;
    }
    report.total = summarise(total, nowNs_);
    // Aggregate quantiles cannot be rebuilt from per-tenant quantiles:
    // with one tenant the totals are exact, otherwise take the max of
    // the per-tenant tails — conservative for acceptance checks.
    report.total.ttft = serve::LatencySummary{};
    report.total.perToken = serve::LatencySummary{};
    report.total.e2e = serve::LatencySummary{};
    if (tenants_.size() == 1) {
        report.total.ttft = report.tenants[0].ttft;
        report.total.perToken = report.tenants[0].perToken;
        report.total.e2e = report.tenants[0].e2e;
    } else {
        for (const LlmTenantReport &t : report.tenants) {
            report.total.ttft.p99Ns =
                std::max(report.total.ttft.p99Ns, t.ttft.p99Ns);
            report.total.perToken.p99Ns =
                std::max(report.total.perToken.p99Ns, t.perToken.p99Ns);
            report.total.e2e.p99Ns =
                std::max(report.total.e2e.p99Ns, t.e2e.p99Ns);
            report.total.ttft.maxNs =
                std::max(report.total.ttft.maxNs, t.ttft.maxNs);
            report.total.perToken.maxNs =
                std::max(report.total.perToken.maxNs, t.perToken.maxNs);
            report.total.e2e.maxNs =
                std::max(report.total.e2e.maxNs, t.e2e.maxNs);
        }
    }
    report.iterations = iterations_;
    report.meanBatch =
        iterations_ > 0
            ? static_cast<double>(batchTokenSum_) / iterations_
            : 0.0;
    report.faultedIterations = faultedIterations_;
    report.kvBlocksAllocated = kv_->blocksAllocated();
    report.kvBlocksFreed = kv_->blocksFreed();
    report.kvPeakResidentBlocks = kv_->peakResidentBlocks();
    report.kvAllocFailures = kv_->allocFailures();

    // Refresh the registry-visible counters alongside the report.
    StatGroup &stats = stats_;
    stats.reset();
    stats.add("iterations", iterations_);
    stats.add("faultedIterations", faultedIterations_);
    stats.add("submitted", report.total.submitted);
    stats.add("completed", report.total.completed);
    stats.add("rejected", report.total.rejected);
    stats.add("shed", report.total.shed);
    stats.add("timedOut", report.total.timedOut);
    stats.add("preemptions", report.total.preemptions);
    stats.add("tokensOut", report.total.tokensOut);
    stats.set("meanBatch", report.meanBatch);
    (void)kv_->statsGroup();
    return report;
}

void
LlmEngine::writeStats(std::ostream &os) const
{
    (void)report(); // refresh the registry-visible llm/llm.kv groups
    system_->statsRegistry().dumpJson(os);
}

} // namespace pimsim::llm
