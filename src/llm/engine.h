/**
 * @file
 * The LLM decode-serving engine: iteration-level scheduling on PIM.
 *
 * A discrete-event simulation on the serving layer's virtual nanosecond
 * clock, shaped like ServingEngine but with *iterations* as the service
 * unit instead of whole requests. Each decode iteration runs the full
 * batch one token forward; its duration is lowered through the decoder
 * model onto the memoised ShardServiceModel path (llm::DecodeCost):
 *
 *   iter_ns = sum_joiners prefill(ctx)            — staged context
 *           + ffn(batch)                          — batched weight GEMVs
 *           + sum_members attn(ctxBucket(ctx), 1) — private KV GEMVs
 *
 * Prefill of a joiner prices the batched pass over its context through
 * the same weight GEMVs (batch = context bucket) plus the causal
 * attention triangle (attention at the full-context shape, batch =
 * bucket/2, the arithmetic mean of a growing window).
 *
 * Model weights are pinned in PIM rows at construction; the remaining
 * PIM region is partitioned per tenant into KvCacheManager pools, so
 * one tenant's decode state can never evict another's. Requests carry
 * deadlines: hopeless ones are shed at admission (optimistic service
 * estimate), queued ones time out at iteration boundaries, and late
 * completions count as SLO violations. After drain(), every submitted
 * request is exactly one of {completed, shed, timed out, rejected},
 * the batcher's join/leave ledger balances, and the KV accounting
 * reconciles to the block (allocated == freed + resident, zero live
 * sequences).
 *
 * Between a join, a leave, a KV-block and a context-bucket boundary,
 * consecutive iterations are identical; the engine crosses such a run
 * (a *leap*) without re-forming or re-pricing the batch, with the same
 * timestamps and observer output as one full step per iteration.
 *
 * Determinism: no randomness lives in the engine at all — identical
 * submission sequences replay to bit-identical reports.
 */

#ifndef PIMSIM_LLM_ENGINE_H
#define PIMSIM_LLM_ENGINE_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/slo.h"
#include "common/stats.h"
#include "llm/batcher.h"
#include "llm/decoder.h"
#include "llm/kv_cache.h"
#include "serve/request_ledger.h"
#include "serve/resilience.h"
#include "serve/service_model.h"
#include "sim/system.h"
#include "stack/driver.h"

namespace pimsim {
class TraceSession;
}

namespace pimsim::llm {

/** One tenant of the LLM engine. */
struct LlmTenantSpec
{
    std::string name;
    /** Completion deadline from arrival; <= 0 disables. */
    double deadlineNs = 0.0;
    /** KV block cap inside the tenant's partition (0 = partition only). */
    std::uint64_t kvBlockCap = 0;
};

/** Full LLM-serving configuration. */
struct LlmEngineConfig
{
    SystemConfig system = SystemConfig::pimHbmSystem();
    DecoderSpec decoder = DecoderSpec::tiny();
    std::vector<LlmTenantSpec> tenants;
    BatcherConfig batcher;
    KvCacheConfig kv;
    /** Attention context-length bucket (memo-table granularity). */
    unsigned ctxGranule = 128;
    /** Prompt-length bucket for prefill pricing. */
    unsigned prefillGranule = 64;
    /** Shed at admission when the optimistic estimate misses the
     *  deadline (only tenants with one). */
    bool deadlineAdmission = true;
    /** Optional cross-engine service-time memo (benchmark sweeps). */
    std::shared_ptr<serve::ServiceTimeCache> timingCache;
};

/** Per-tenant (or aggregate) LLM serving outcome. */
struct LlmTenantReport
{
    std::string name;
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0; ///< queue full or infeasible
    std::uint64_t shed = 0;     ///< deadline unreachable at admission
    std::uint64_t timedOut = 0; ///< expired in the queue
    std::uint64_t completed = 0;
    std::uint64_t preemptions = 0; ///< evict-and-requeue events
    std::uint64_t sloViolations = 0;
    std::uint64_t tokensOut = 0; ///< tokens of completed requests
    /** Tokens of completed requests that met their deadline, /s. */
    double goodputTokensPerSec = 0.0;
    serve::LatencySummary ttft;     ///< arrival -> first token
    serve::LatencySummary perToken; ///< normalized: e2e / output tokens
    serve::LatencySummary e2e;      ///< arrival -> completion
};

/** Whole-run LLM serving outcome. */
struct LlmReport
{
    double horizonNs = 0.0;
    std::vector<LlmTenantReport> tenants;
    LlmTenantReport total;

    std::uint64_t iterations = 0;
    double meanBatch = 0.0; ///< mean decode batch over iterations
    std::uint64_t faultedIterations = 0;

    std::uint64_t kvBlocksAllocated = 0;
    std::uint64_t kvBlocksFreed = 0;
    std::uint64_t kvPeakResidentBlocks = 0;
    std::uint64_t kvAllocFailures = 0;

    /**
     * PIMSIM_ASSERT terminal-state accounting per tenant and in
     * aggregate: completed + shed + timedOut + rejected == submitted
     * and KV block conservation (allocated == freed + resident-at-
     * report, which is zero after drain). Benches re-assert on the
     * reports they publish.
     */
    void reconcile() const;
};

/** The LLM decode-serving system on one PIM-HBM configuration. */
class LlmEngine
{
  public:
    explicit LlmEngine(const LlmEngineConfig &config);

    unsigned numTenants() const
    {
        return static_cast<unsigned>(tenants_.size());
    }

    /**
     * Submit one request of `tenant` arriving at `arrival_ns` (>= the
     * engine clock) with the given prompt/output token counts.
     * @return false when admission control rejected or shed it.
     */
    bool submit(unsigned tenant, double arrival_ns, unsigned prompt_tokens,
                unsigned output_tokens);

    /** Advance the virtual clock, finishing every iteration due by `ns`. */
    void advanceTo(double ns);

    /** Serve until the queue and the batch are empty, then reconcile. */
    void drain();

    /** Next iteration boundary; serve::kNoEventNs when idle. */
    double nextEventNs() const;

    /** Requests completed since the last call (closed-loop feedback). */
    std::vector<LlmRequest> takeCompletions()
    {
        return std::exchange(completions_, {});
    }

    double nowNs() const { return nowNs_; }

    const DecoderSpec &decoder() const { return config_.decoder; }
    const KvCacheManager &kv() const { return *kv_; }
    const ContinuousBatcher &batcher() const { return *batcher_; }

    /** The primary system's stats registry (exemplar pruning, extra
     *  registrations such as the trace self-stats group). */
    StatsRegistry &statsRegistry();

    /** One tenant's latency histograms (timeseries tracking). */
    const Histogram &ttftHistogram(unsigned tenant) const
    {
        return ledger_.histogram(tenant, kTtft);
    }
    const Histogram &e2eHistogram(unsigned tenant) const
    {
        return ledger_.histogram(tenant, kE2e);
    }

    /**
     * Attach the source of uncorrectable fault events (nullptr
     * detaches; shard 0 is queried — the engine runs the device as one
     * shard). A fault inside an iteration's window wastes it: no
     * tokens are produced and the same batch re-runs. Not owned.
     */
    void setFaultModel(serve::FaultModel *model) { faults_ = model; }

    /**
     * Record iterations on the pid-6 "llm" Chrome-trace track (nullptr
     * disables): tid 0 gets one span per decode iteration with batch /
     * join / prefill args, tid 1 gets KV-occupancy spans between
     * iteration boundaries.
     */
    void setTrace(TraceSession *session);

    /**
     * Attach a per-request causal tracer (nullptr detaches). Every
     * submitted request is minted a RequestTraceContext; its queue
     * wait, every decode iteration it participates in, first-token and
     * KV-evict instants, and its terminal state are buffered as a span
     * tree on pid 6 tid 2 and tail-sampled at the tracer. Not owned.
     */
    void setRequestTracer(RequestTracer *tracer);

    /**
     * Per-request terminal observations (timestamp + met-its-SLO)
     * accumulated since the last call — the SloMonitor feed. Sheds,
     * rejections, timeouts and late completions are bad; in-deadline
     * completions are good.
     */
    std::vector<SloObservation> takeSloObservations()
    {
        return ledger_.takeSloObservations();
    }

    /** Aggregate statistics over everything served so far. */
    LlmReport report() const;

    /**
     * Dump the full stats registry (device counters plus the "llm" and
     * "llm.kv" groups and per-tenant latency histograms) as JSON,
     * refreshing the registry-visible values first.
     */
    void writeStats(std::ostream &os) const;

  private:
    /** The ledger's latency histograms, per tenant. */
    enum Metric : unsigned
    {
        kTtft,     ///< arrival -> first token
        kPerToken, ///< e2e / output tokens
        kE2e,      ///< arrival -> completion
    };

    /** What only the LLM engine counts per tenant. */
    struct TenantState
    {
        LlmTenantSpec spec;
        std::uint64_t preemptions = 0;
        std::uint64_t sloViolations = 0;
        std::uint64_t tokensOut = 0;
        std::uint64_t goodTokens = 0; ///< tokens of SLO-met completions
    };

    /** A running member's attention price at the context bucket it
     *  was priced at; valid while its context stays <= bucketEnd. */
    struct AttnMemo
    {
        KvSeqId seq;
        unsigned bucketEnd = 0;
        double ns = 0.0;
    };

    /** Price one iteration of the current batch starting at `now`. */
    double iterationNs(const std::vector<LlmRequest> &joined);
    /** One member's attention price, re-priced only on a new bucket. */
    double attnNs(const LlmRequest &member);
    /** Optimistic completion estimate for deadline admission. */
    double estimateNs(unsigned prompt, unsigned output);

    /** Finish every iteration due by `ns`, leaping where it can. */
    void runUntil(double ns);
    /**
     * Bound the leap that may follow the in-flight iteration: the
     * number of upcoming iteration boundaries at which no member
     * leaves or produces its first token, no waiter can join and no
     * member's context leaves its priced bucket (0 = full step).
     */
    void planLeap();
    /** Cross one boundary of the planned leap: record the finished
     *  iteration, advance every member a token, start the next. */
    void leapIteration();
    /** Start the next iteration if any work is runnable. */
    void dispatch();
    /** Finish the in-flight iteration (token accounting, leaves). */
    void finishIteration(bool faulted);
    /** Count the in-flight iteration and emit its observer spans. */
    void recordIteration(bool faulted);
    /** Time out queued requests whose deadline has passed. */
    void expireDue();
    void recordCompletion(const LlmRequest &request);
    /** End `request` in the ledger on the "requests" track. `instant`
     *  names non-completed ends. */
    void close(const LlmRequest &request, serve::Terminal end,
               double end_ns, const char *instant);

    LlmEngineConfig config_;
    serve::RequestLedger ledger_;
    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<PimDriver> weightDriver_;
    PimRowBlock weightBlock_;
    std::vector<std::unique_ptr<PimDriver>> kvPartitions_;
    std::unique_ptr<KvCacheManager> kv_;
    std::unique_ptr<ContinuousBatcher> batcher_;
    std::unique_ptr<DecodeCost> cost_;
    std::vector<TenantState> tenants_;

    serve::FaultModel *faults_ = nullptr;
    TraceSession *trace_ = nullptr;
    RequestTracer *reqTracer_ = nullptr;
    mutable StatGroup stats_{"llm"};

    bool iterationInFlight_ = false;
    double iterationStartNs_ = 0.0;
    double iterationEndNs_ = 0.0;
    double iterationDurNs_ = 0.0; ///< price of the in-flight iteration
    std::vector<LlmRequest> lastJoined_;
    /** Indexed by KvSeqId::slot. */
    std::vector<AttnMemo> attnMemo_;

    /** Boundaries left in the planned leap. */
    std::uint64_t leapLeft_ = 0;
    /** Leap boundaries before some member needs a new KV block. */
    std::uint64_t growIn_ = 0;
    /** Earliest queued deadline at planning; a boundary at or past it
     *  expires waiters and so is a full step. */
    double leapDeadlineNs_ = 0.0;

    std::uint64_t iterations_ = 0;
    std::uint64_t faultedIterations_ = 0;
    std::uint64_t batchTokenSum_ = 0; ///< sum of batch sizes over iters

    std::vector<LlmRequest> completions_;
    double nowNs_ = 0.0;
    std::uint64_t nextId_ = 1;
};

} // namespace pimsim::llm

#endif // PIMSIM_LLM_ENGINE_H
