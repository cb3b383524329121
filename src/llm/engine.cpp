#include "llm/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"
#include "serve/scheduler.h"

namespace pimsim::llm {

namespace {

/** Latency histogram shape: 20 us buckets up to ~164 ms. */
constexpr std::uint64_t kHistBucketNs = 20'000;
constexpr std::size_t kHistBuckets = 8192;

} // namespace

void
LlmReport::reconcile() const
{
    const auto check = [](const LlmTenantReport &t) {
        serve::assertBalanced(t.name, {t.submitted, t.completed, t.shed,
                                       t.timedOut, t.rejected, 0});
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

LlmEngine::LlmEngine(const LlmEngineConfig &config)
    : config_(config),
      ledger_(serve::namesOf(config.tenants),
              {"ttftNs", "perTokenNs", "e2eNs"}, kHistBucketNs,
              kHistBuckets)
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
    cost_ = std::make_unique<DecodeCost>(
        config_.system, config_.decoder, config_.ctxGranule,
        config_.prefillGranule, config_.timingCache);

    for (const LlmTenantSpec &spec : config_.tenants)
        tenants_.push_back(TenantState{spec});
    StatsRegistry &registry = system_->statsRegistry();
    ledger_.registerHistograms(registry, "llm.tenant.");
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
    ledger_.submit(tenant);

    LlmRequest req;
    req.id = nextId_++;
    req.tenant = tenant;
    req.promptTokens = prompt_tokens;
    req.outputTokens = output_tokens;
    req.arrivalNs = arrival_ns;
    if (config_.tenants[tenant].deadlineNs > 0.0)
        req.deadlineNs = arrival_ns + config_.tenants[tenant].deadlineNs;
    if (reqTracer_ != nullptr)
        req.trace = reqTracer_->begin(arrival_ns);

    // Feasibility: an admitted request must be guaranteed to fit its
    // tenant's KV budget at terminal length, or preemption could churn
    // forever without ever seating it.
    const unsigned total_tokens = prompt_tokens + output_tokens;
    if (total_tokens > config_.decoder.maxContextTokens ||
        kv_->blocksFor(total_tokens) > kv_->capBlocks(tenant)) {
        close(req, serve::Terminal::Rejected, nowNs_, "rejected");
        return false;
    }

    if (config_.deadlineAdmission && req.hasDeadline()) {
        // Optimistic estimate (zero queueing, full batch amortisation
        // unavailable): if even that misses the deadline, shed now
        // rather than burning decode iterations on a doomed request.
        const double est = estimateNs(prompt_tokens, output_tokens);
        if (arrival_ns + est > req.deadlineNs) {
            close(req, serve::Terminal::Shed, nowNs_, "shed");
            return false;
        }
    }

    const LlmRequest admitted = req; // admit() consumes the request
    if (!batcher_->admit(std::move(req))) {
        close(admitted, serve::Terminal::Rejected, nowNs_, "queue-full");
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
    runUntil(ns);
    nowNs_ = std::max(nowNs_, ns);
    expireDue();
    if (!iterationInFlight_)
        dispatch();
}

void
LlmEngine::drain()
{
    expireDue();
    if (!iterationInFlight_)
        dispatch();
    runUntil(serve::kNoEventNs);
    PIMSIM_ASSERT(batcher_->idle(), "drain left work behind");
    PIMSIM_ASSERT(kv_->liveSeqs() == 0, "drain left ", kv_->liveSeqs(),
                  " live KV sequences");
    batcher_->reconcile();
    kv_->reconcile();
    ledger_.assertDrained();
}

void
LlmEngine::runUntil(double ns)
{
    planLeap();
    bool leapt = false;
    while (iterationInFlight_ && iterationEndNs_ <= ns) {
        nowNs_ = iterationEndNs_;
        const bool faulted =
            faults_ != nullptr &&
            faults_->faultEvents(0, iterationStartNs_, nowNs_) > 0;
        if (!faulted && leapLeft_ > 0 && nowNs_ < leapDeadlineNs_) {
            leapIteration();
            leapt = true;
            continue;
        }
        finishIteration(faulted);
        expireDue();
        dispatch();
        planLeap();
    }
    // Leap iterations reserve KV only where a block fills up; bring
    // every member's reserved token count to what the full capacity
    // pass of the in-flight iteration would have left (no block moves).
    if (leapt && iterationInFlight_) {
        const bool kept = batcher_->reserveNextToken(iterationStartNs_);
        PIMSIM_ASSERT(kept, "KV token sync evicted a member");
    }
}

void
LlmEngine::planLeap()
{
    leapLeft_ = 0;
    // A prefill priced into the in-flight iteration, or a waiter that
    // may join at its end, makes the next iteration differ.
    if (!iterationInFlight_ || !lastJoined_.empty() || batcher_->joinable())
        return;
    std::uint64_t left = batcher_->iterationsBeforeLeave();
    for (const LlmRequest &r : batcher_->running()) {
        // The member's attention price holds while its context stays
        // inside the bucket it was priced at.
        const AttnMemo &m = attnMemo_[r.kvSeq.slot];
        PIMSIM_ASSERT(m.seq == r.kvSeq && r.contextTokens() <= m.bucketEnd,
                      "running member is not priced at its context");
        left = std::min<std::uint64_t>(left, m.bucketEnd - r.contextTokens());
    }
    if (left == 0)
        return;
    growIn_ = batcher_->iterationsBeforeKvGrowth();
    leapDeadlineNs_ = batcher_->earliestQueuedDeadline();
    leapLeft_ = left;
}

void
LlmEngine::leapIteration()
{
    recordIteration(/*faulted=*/false);
    batcher_->finishSteadyIteration();
    --leapLeft_;
    if (growIn_ > 0) {
        --growIn_;
    } else if (batcher_->reserveNextToken(nowNs_)) {
        growIn_ = batcher_->iterationsBeforeKvGrowth();
    } else {
        // A failed growth evicted the youngest member: the batch
        // changed, so price it afresh and end the leap.
        iterationDurNs_ = iterationNs({});
        leapLeft_ = 0;
    }
    iterationStartNs_ = nowNs_;
    iterationEndNs_ = nowNs_ + iterationDurNs_;
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
    ledger_.setTracer(tracer);
    batcher_->setRequestTracer(tracer);
}

double
LlmEngine::iterationNs(const std::vector<LlmRequest> &joined)
{
    double ns = 0.0;
    for (const LlmRequest &r : joined)
        ns += cost_->prefillNs(std::max(1u, r.contextTokens()));
    // costBatch(), not runningSize(): an AdmitOnce wave keeps paying
    // for its padding slots until the longest member finishes.
    ns += cost_->ffnNs(batcher_->costBatch());
    for (const LlmRequest &r : batcher_->running())
        ns += attnNs(r);
    return ns;
}

double
LlmEngine::attnNs(const LlmRequest &member)
{
    const unsigned ctx = member.contextTokens();
    if (member.kvSeq.slot >= attnMemo_.size())
        attnMemo_.resize(member.kvSeq.slot + 1);
    AttnMemo &m = attnMemo_[member.kvSeq.slot];
    if (!(m.seq == member.kvSeq) || ctx > m.bucketEnd)
        m = {member.kvSeq, ctxBucket(ctx, config_.ctxGranule),
             cost_->attnNs(ctx)};
    return m.ns;
}

double
LlmEngine::estimateNs(unsigned prompt, unsigned output)
{
    const double per_token = cost_->tokenNs(prompt + output, 1);
    return cost_->prefillNs(prompt) + output * per_token;
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
    iterationDurNs_ = iterationNs(lastJoined_);
    iterationStartNs_ = nowNs_;
    iterationEndNs_ = nowNs_ + iterationDurNs_;
    iterationInFlight_ = true;
}

void
LlmEngine::finishIteration(bool faulted)
{
    PIMSIM_ASSERT(iterationInFlight_, "finish without an iteration");
    iterationInFlight_ = false;
    recordIteration(faulted);
    lastJoined_.clear();
    if (faulted) {
        // The fault struck mid-iteration: the batch's token is lost and
        // the same iteration re-runs (KV state is intact — AB-mode rows
        // are re-written by the retry).
        ++faultedIterations_;
        return;
    }
    for (LlmRequest &done : batcher_->finishIteration(iterationEndNs_))
        recordCompletion(done);
}

void
LlmEngine::recordIteration(bool faulted)
{
    const double start = iterationStartNs_;
    const double end = iterationEndNs_;
    const std::uint64_t batch = batcher_->runningSize();
    ++iterations_;
    batchTokenSum_ += batch;
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
}

void
LlmEngine::expireDue()
{
    for (const LlmRequest &dead : batcher_->expireQueued(nowNs_)) {
        tenants_[dead.tenant].preemptions += dead.preemptions;
        close(dead, serve::Terminal::TimedOut, nowNs_, "queue-timeout");
    }
}

void
LlmEngine::close(const LlmRequest &request, serve::Terminal end,
                 double end_ns, const char *instant)
{
    // Evict-and-requeue is the LLM tier's failover analogue: preempted
    // requests are always worth keeping.
    ledger_.close(
        {.tenant = request.tenant, .terminal = end,
         .arrivalNs = request.arrivalNs, .deadlineNs = request.deadlineNs,
         .endNs = end_ns, .trace = request.trace, .pid = kTracePidLlm,
         .tid = 2, .instant = instant,
         .failedOver = request.preemptions > 0});
}

void
LlmEngine::recordCompletion(const LlmRequest &request)
{
    TenantState &t = tenants_[request.tenant];
    t.tokensOut += request.outputTokens;
    t.preemptions += request.preemptions;
    ledger_.sample(request.tenant, kTtft,
                   static_cast<std::uint64_t>(std::max(
                       0.0, request.firstTokenNs - request.arrivalNs)),
                   request.trace.traceId);
    const double e2e = std::max(0.0, request.completeNs - request.arrivalNs);
    // Normalized latency (e2e per output token): the standard metric
    // for comparing batch schedulers — it charges queueing and
    // preemption stalls to every token, which raw inter-token gaps
    // would hide.
    ledger_.sample(request.tenant, kPerToken,
                   static_cast<std::uint64_t>(
                       e2e / std::max(1u, request.outputTokens)),
                   request.trace.traceId);
    ledger_.sample(request.tenant, kE2e, static_cast<std::uint64_t>(e2e),
                   request.trace.traceId);
    if (request.hasDeadline() && request.completeNs > request.deadlineNs)
        ++t.sloViolations;
    else
        t.goodTokens += request.outputTokens;
    close(request, serve::Terminal::Completed, request.completeNs,
          /*instant=*/nullptr);
    completions_.push_back(request);
}

LlmReport
LlmEngine::report() const
{
    LlmReport report;
    report.horizonNs = nowNs_;
    report.total.name = "total";
    const auto add = [](LlmTenantReport &r, const serve::TerminalCounts &c,
                        const TenantState &t) {
        r.submitted += c.submitted;
        r.admitted += c.submitted - c.rejected - c.shed;
        r.rejected += c.rejected;
        r.shed += c.shed;
        r.timedOut += c.timedOut;
        r.completed += c.completed;
        r.preemptions += t.preemptions;
        r.sloViolations += t.sloViolations;
        r.tokensOut += t.tokensOut;
    };
    const auto goodput = [&](std::uint64_t good_tokens) {
        return nowNs_ > 0.0 ? good_tokens * 1e9 / nowNs_ : 0.0;
    };
    std::uint64_t good_tokens = 0;
    for (unsigned i = 0; i < tenants_.size(); ++i) {
        const TenantState &t = tenants_[i];
        LlmTenantReport r;
        r.name = t.spec.name;
        add(r, ledger_.counts(i), t);
        add(report.total, ledger_.counts(i), t);
        r.goodputTokensPerSec = goodput(t.goodTokens);
        good_tokens += t.goodTokens;
        r.ttft = ledger_.summary(i, kTtft);
        r.perToken = ledger_.summary(i, kPerToken);
        r.e2e = ledger_.summary(i, kE2e);
        report.tenants.push_back(std::move(r));
    }
    report.total.goodputTokensPerSec = goodput(good_tokens);
    report.total.ttft = ledger_.pooledSummary(kTtft);
    report.total.perToken = ledger_.pooledSummary(kPerToken);
    report.total.e2e = ledger_.pooledSummary(kE2e);
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
