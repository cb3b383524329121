/**
 * @file
 * Iteration-level batching for LLM decode.
 *
 * Classic batch scheduling (AdmitOnce) forms a batch, pads every
 * member to the longest output in the wave, and runs the wave to
 * completion before forming the next: short requests finish early but
 * their slots keep burning full-batch FFN compute as padding, and
 * queued requests wait for the wave's longest member. Continuous
 * batching rebuilds the batch *every decode iteration*: completed
 * requests leave at an iteration boundary (their compute slot is
 * reclaimed immediately) and queued requests join the moment a slot
 * and enough KV blocks are free. costBatch() exposes the distinction
 * to the cost model: for AdmitOnce it stays at the wave's admitted
 * size until the wave drains, for Continuous it is the live batch.
 *
 * KV pressure is resolved by evict-and-requeue: when a decode step
 * cannot grow some sequence's cache, the *youngest* running request is
 * evicted (its blocks freed, its progress discarded) and requeued at
 * the *front* of the wait queue in age order. Oldest-first victims
 * would starve long requests; youngest-first eviction plus front
 * requeue preserves FCFS age order, so every request eventually
 * becomes the oldest and can no longer be chosen as a victim.
 *
 * Invariant (checked by reconcile): joins + rejoins ==
 * leavesCompleted + leavesPreempted + running.
 */

#ifndef PIMSIM_LLM_BATCHER_H
#define PIMSIM_LLM_BATCHER_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/reqtrace.h"
#include "llm/kv_cache.h"

namespace pimsim::llm {

/** Batch scheduling policies under comparison. */
enum class BatchPolicy
{
    AdmitOnce,  ///< static batches run to completion
    Continuous, ///< join/leave at every iteration boundary
};

const char *batchPolicyName(BatchPolicy policy);

/** One decode request's full lifecycle record. */
struct LlmRequest
{
    std::uint64_t id = 0;
    unsigned tenant = 0;
    unsigned promptTokens = 0;
    unsigned outputTokens = 0;
    double arrivalNs = 0.0;
    /** Absolute deadline (arrival + SLO); <= 0 means none. */
    double deadlineNs = 0.0;

    unsigned decoded = 0;      ///< output tokens produced so far
    unsigned preemptions = 0;  ///< evict-and-requeue count
    double firstTokenNs = -1.0; ///< TTFT timestamp (< 0 until produced)
    double completeNs = 0.0;
    KvSeqId kvSeq;             ///< valid only while running
    /** Causal trace identity (inactive unless a RequestTracer is set). */
    RequestTraceContext trace;

    unsigned contextTokens() const { return promptTokens + decoded; }
    bool done() const { return decoded >= outputTokens; }
    bool hasDeadline() const { return deadlineNs > 0.0; }
};

/** Batcher knobs. */
struct BatcherConfig
{
    BatchPolicy policy = BatchPolicy::Continuous;
    /** Max requests decoding in one iteration. */
    unsigned maxBatch = 8;
    /** Wait-queue depth; beyond it submissions are rejected. */
    unsigned maxQueue = 256;
};

/** The iteration-level batch scheduler. */
class ContinuousBatcher
{
  public:
    ContinuousBatcher(const BatcherConfig &config, KvCacheManager &kv);

    /** Queue a request; false when the wait queue is full. */
    bool admit(LlmRequest request);

    /**
     * Form the working batch for the iteration starting at `now`:
     * join waiters (policy-dependent), then guarantee every member can
     * grow its KV cache by one token, evicting youngest members on
     * pressure. Members that joined this iteration and survived the
     * capacity pass are copied into `joined` — the engine prices their
     * prefill (over contextTokens(), which on a rejoin includes the
     * recompute of already-produced tokens) into the iteration.
     * @return false when there is nothing to run.
     */
    bool beginIteration(double now, std::vector<LlmRequest> &joined);

    /**
     * Account one finished decode iteration ending at `end_ns`: every
     * running member produced a token; members that reached their
     * output length leave the batch (KV released) and are returned.
     */
    std::vector<LlmRequest> finishIteration(double end_ns);

    /**
     * The decode-capacity pass of beginIteration() on its own: reserve
     * one more token for every member, oldest first, evicting the
     * youngest member whenever a reservation fails.
     * @return false when some member was evicted.
     */
    bool reserveNextToken(double now);

    /**
     * finishIteration() for an iteration in which no member finishes
     * or produces its first token: every member's decoded count
     * advances and nothing else changes. Callers bound such runs with
     * iterationsBeforeLeave().
     */
    void finishSteadyIteration();

    /** Whether beginIteration() would try to seat a waiter. */
    bool joinable() const
    {
        if (waiting_.empty())
            return false;
        return config_.policy == BatchPolicy::Continuous
                   ? running_.size() < config_.maxBatch
                   : running_.empty();
    }

    /**
     * Iteration boundaries the batch can cross before a member leaves
     * (finishIteration() would complete it); 0 while a member still
     * waits for its first token, whose boundary has its own effects.
     */
    std::uint64_t iterationsBeforeLeave() const;

    /**
     * Iteration boundaries the batch can cross, each followed by
     * reserveNextToken(), before some member needs a new KV block.
     */
    std::uint64_t iterationsBeforeKvGrowth() const;

    /**
     * Drop queued requests whose deadline has passed (shed before
     * spending any decode work on them). Returns the dropped requests.
     */
    std::vector<LlmRequest> expireQueued(double now);

    /** Earliest deadline in the wait queue (+inf when none has one). */
    double earliestQueuedDeadline();

    bool idle() const { return running_.empty() && waiting_.empty(); }
    std::size_t runningSize() const { return running_.size(); }

    /**
     * The batch size the FFN weight GEMVs are priced at. Continuous:
     * the live batch. AdmitOnce: the wave's admitted size until every
     * member of the wave has finished — early finishers become padding
     * that still occupies its compute slot (classic static batching).
     */
    unsigned costBatch() const
    {
        const unsigned live = static_cast<unsigned>(running_.size());
        if (config_.policy == BatchPolicy::AdmitOnce)
            return waveBatch_ > live ? waveBatch_ : live;
        return live;
    }

    std::size_t queueDepth() const { return waiting_.size(); }
    const std::vector<LlmRequest> &running() const { return running_; }

    std::uint64_t joins() const { return joins_; }
    std::uint64_t rejoins() const { return rejoins_; }
    std::uint64_t leavesCompleted() const { return leavesCompleted_; }
    std::uint64_t leavesPreempted() const { return leavesPreempted_; }
    std::uint64_t queueRejects() const { return queueRejects_; }

    /** PIMSIM_ASSERTs the join/leave ledger balances. */
    void reconcile() const;

    /**
     * Attach a per-request causal tracer (nullptr detaches): evict-and-
     * requeue emits a "kv-evict" instant on the victim's span tree
     * (pid 6, KV track). Not owned.
     */
    void setRequestTracer(RequestTracer *tracer) { reqTracer_ = tracer; }

  private:
    /** Evict the youngest running member; requeue front, age-ordered. */
    void preemptYoungest();
    /** Insert into the wait queue at its age position. */
    void enqueue(LlmRequest request);

    BatcherConfig config_;
    KvCacheManager &kv_;
    RequestTracer *reqTracer_ = nullptr;
    double nowNs_ = 0.0; ///< last beginIteration timestamp (evict traces)
    std::deque<LlmRequest> waiting_; ///< FCFS by arrival (age order)
    std::vector<LlmRequest> running_; ///< age order (oldest first)
    unsigned waveBatch_ = 0; ///< AdmitOnce: padded size of current wave
    /** Earliest queued deadline; recomputed lazily once stale. */
    double earliestDeadline_;
    bool earliestDeadlineStale_ = false;

    std::uint64_t joins_ = 0;
    std::uint64_t rejoins_ = 0;
    std::uint64_t leavesCompleted_ = 0;
    std::uint64_t leavesPreempted_ = 0;
    std::uint64_t queueRejects_ = 0;
};

} // namespace pimsim::llm

#endif // PIMSIM_LLM_BATCHER_H
