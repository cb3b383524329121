#include "llm/batcher.h"

#include <algorithm>
#include <limits>
#include <tuple>

#include "common/logging.h"
#include "common/trace.h"

namespace pimsim::llm {

const char *
batchPolicyName(BatchPolicy policy)
{
    switch (policy) {
    case BatchPolicy::AdmitOnce:
        return "admit-once";
    case BatchPolicy::Continuous:
        return "continuous";
    }
    return "?";
}

namespace {

/** Strict arrival-age order; id breaks exact-tie timestamps. */
bool
olderThan(const LlmRequest &a, const LlmRequest &b)
{
    return std::tie(a.arrivalNs, a.id) < std::tie(b.arrivalNs, b.id);
}

constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

} // namespace

ContinuousBatcher::ContinuousBatcher(const BatcherConfig &config,
                                     KvCacheManager &kv)
    : config_(config), kv_(kv), earliestDeadline_(kNoDeadline)
{
    PIMSIM_ASSERT(config_.maxBatch >= 1, "zero batch size");
    PIMSIM_ASSERT(config_.maxQueue >= 1, "zero queue depth");
}

bool
ContinuousBatcher::admit(LlmRequest request)
{
    if (waiting_.size() >= config_.maxQueue) {
        ++queueRejects_;
        return false;
    }
    enqueue(std::move(request));
    return true;
}

void
ContinuousBatcher::enqueue(LlmRequest request)
{
    if (request.hasDeadline())
        earliestDeadline_ = std::min(earliestDeadline_, request.deadlineNs);
    // Arrivals come time-ordered, so this is normally push_back; the
    // sorted insert keeps the age invariant unconditional.
    const auto pos = std::lower_bound(
        waiting_.begin(), waiting_.end(), request,
        [](const LlmRequest &a, const LlmRequest &b) {
            return olderThan(a, b);
        });
    waiting_.insert(pos, std::move(request));
}

bool
ContinuousBatcher::beginIteration(double now, std::vector<LlmRequest> &joined)
{
    joined.clear();
    nowNs_ = now;

    // Join pass. AdmitOnce only refills an empty batch (the static
    // baseline); Continuous tops the batch up every iteration.
    const bool may_join =
        config_.policy == BatchPolicy::Continuous || running_.empty();
    std::vector<std::uint64_t> joined_ids;
    while (may_join && !waiting_.empty() &&
           running_.size() < config_.maxBatch) {
        LlmRequest &head = waiting_.front();
        const KvSeqId seq = kv_.createSeq(head.tenant);
        // A joiner stages its whole context (prompt, plus recompute of
        // prior output on a rejoin) before decoding. Head-of-line
        // blocking on failure is deliberate: skipping ahead to smaller
        // requests would starve large ones.
        if (!kv_.reserve(seq, head.contextTokens())) {
            kv_.release(seq);
            break;
        }
        if (head.hasDeadline() && head.deadlineNs <= earliestDeadline_)
            earliestDeadlineStale_ = true;
        LlmRequest req = std::move(head);
        waiting_.pop_front();
        req.kvSeq = seq;
        if (req.preemptions > 0)
            ++rejoins_;
        else
            ++joins_;
        joined_ids.push_back(req.id);
        const auto pos =
            std::lower_bound(running_.begin(), running_.end(), req,
                             [](const LlmRequest &a, const LlmRequest &b) {
                                 return olderThan(a, b);
                             });
        running_.insert(pos, std::move(req));
    }

    reserveNextToken(now);

    for (const std::uint64_t id : joined_ids)
        for (const LlmRequest &r : running_)
            if (r.id == id)
                joined.push_back(r);

    // A fresh AdmitOnce wave is padded to its admitted size: the cost
    // model keeps pricing the FFN at waveBatch_ until the wave drains.
    if (config_.policy == BatchPolicy::AdmitOnce && !joined_ids.empty())
        waveBatch_ = static_cast<unsigned>(running_.size());
    return !running_.empty();
}

bool
ContinuousBatcher::reserveNextToken(double now)
{
    nowNs_ = now;
    // Decode-capacity pass: every member must be able to append one
    // token this iteration. Under pressure the youngest member is
    // evicted and requeued; the oldest is never a victim while anyone
    // younger runs, which is what makes the scheme starvation-free.
    bool evicted = false;
    std::size_t i = 0;
    while (i < running_.size()) {
        if (kv_.reserve(running_[i].kvSeq,
                        std::uint64_t{running_[i].contextTokens()} + 1)) {
            ++i;
            continue;
        }
        PIMSIM_ASSERT(running_.size() > 1,
                      "sole running request cannot grow its KV cache; "
                      "admission feasibility check was bypassed");
        preemptYoungest();
        evicted = true;
        // If the victim was the failing member itself, i now points
        // past the shrunk batch and the loop terminates naturally.
    }
    return !evicted;
}

void
ContinuousBatcher::finishSteadyIteration()
{
    for (LlmRequest &r : running_)
        ++r.decoded;
}

std::uint64_t
ContinuousBatcher::iterationsBeforeLeave() const
{
    std::uint64_t n = std::numeric_limits<std::uint64_t>::max();
    for (const LlmRequest &r : running_) {
        if (r.firstTokenNs < 0.0)
            return 0;
        n = std::min<std::uint64_t>(n, r.outputTokens - r.decoded - 1);
    }
    return n;
}

std::uint64_t
ContinuousBatcher::iterationsBeforeKvGrowth() const
{
    std::uint64_t n = std::numeric_limits<std::uint64_t>::max();
    for (const LlmRequest &r : running_) {
        // reserveNextToken() already holds contextTokens() + 1; each
        // boundary adds a token, and the one past the last block grows.
        const std::uint64_t held =
            kv_.seqBlocks(r.kvSeq) * kv_.blockTokens();
        const std::uint64_t need = std::uint64_t{r.contextTokens()} + 1;
        PIMSIM_ASSERT(held >= need, "member decodes past its KV blocks");
        n = std::min(n, held - need);
    }
    return n;
}

std::vector<LlmRequest>
ContinuousBatcher::finishIteration(double end_ns)
{
    std::vector<LlmRequest> completed;
    for (auto it = running_.begin(); it != running_.end();) {
        LlmRequest &r = *it;
        ++r.decoded;
        if (r.firstTokenNs < 0.0)
            r.firstTokenNs = end_ns;
        if (r.done()) {
            r.completeNs = end_ns;
            kv_.release(r.kvSeq);
            r.kvSeq = KvSeqId{};
            ++leavesCompleted_;
            completed.push_back(std::move(r));
            it = running_.erase(it);
        } else {
            ++it;
        }
    }
    if (running_.empty())
        waveBatch_ = 0; // wave drained; padding slots are released
    return completed;
}

std::vector<LlmRequest>
ContinuousBatcher::expireQueued(double now)
{
    std::vector<LlmRequest> expired;
    if (earliestQueuedDeadline() > now)
        return expired;
    for (auto it = waiting_.begin(); it != waiting_.end();) {
        if (it->hasDeadline() && it->deadlineNs <= now) {
            expired.push_back(std::move(*it));
            it = waiting_.erase(it);
        } else {
            ++it;
        }
    }
    earliestDeadlineStale_ = true;
    return expired;
}

double
ContinuousBatcher::earliestQueuedDeadline()
{
    if (earliestDeadlineStale_) {
        earliestDeadline_ = kNoDeadline;
        for (const LlmRequest &r : waiting_)
            if (r.hasDeadline())
                earliestDeadline_ = std::min(earliestDeadline_, r.deadlineNs);
        earliestDeadlineStale_ = false;
    }
    return earliestDeadline_;
}

void
ContinuousBatcher::reconcile() const
{
    PIMSIM_ASSERT(joins_ + rejoins_ ==
                      leavesCompleted_ + leavesPreempted_ + running_.size(),
                  "batch ledger drift: joins ", joins_, " + rejoins ",
                  rejoins_, " != completed ", leavesCompleted_,
                  " + preempted ", leavesPreempted_, " + running ",
                  running_.size());
}

void
ContinuousBatcher::preemptYoungest()
{
    PIMSIM_ASSERT(!running_.empty(), "preempt on empty batch");
    LlmRequest victim = std::move(running_.back());
    running_.pop_back();
    kv_.release(victim.kvSeq);
    victim.kvSeq = KvSeqId{};
    ++victim.preemptions;
    ++leavesPreempted_;
    if (reqTracer_ != nullptr) {
        // The eviction lands on the KV track so the victim's span tree
        // shows *why* its decode has a hole.
        reqTracer_->instant(victim.trace, kTracePidLlm, 1, "kv-evict",
                            "kv", nowNs_);
    }
    // Requeue at the age-correct position — for the youngest running
    // member that is the queue front, ahead of everything that arrived
    // after it joined.
    enqueue(std::move(victim));
}

} // namespace pimsim::llm
