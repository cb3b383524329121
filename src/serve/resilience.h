/**
 * @file
 * Serving-path resilience primitives.
 *
 * The paper's software stack degrades to host execution when the PIM
 * path cannot be trusted (Section VI / VIII); this header gives the
 * serving layer the same posture at datacenter granularity:
 *
 *  - RetryPolicy: exponential backoff + jitter for batches whose kernel
 *    reported an uncorrectable EccStatus or a transient shard failure,
 *    capped by a retry budget — after the budget is spent the batch is
 *    re-dispatched on the host golden path (PimBlas's hostFallback,
 *    priced by a ShardServiceModel on the plain-HBM system).
 *  - CircuitBreaker: per-shard closed -> open -> half-open state machine
 *    driven by a sliding window of recent batch outcomes. A tripped
 *    shard routes its tenants to host fallback until a probe dispatch
 *    succeeds, so a persistently faulting device stops burning retry
 *    budget on every batch.
 *  - FaultModel: the engine-facing source of uncorrectable fault events
 *    on the serving clock (implemented by ChaosCampaign for chaos
 *    testing; tests plug in deterministic stubs).
 *
 * Everything is deterministic: backoff jitter flows from the engine's
 * seeded Rng and breakers react only to simulated time.
 */

#ifndef PIMSIM_SERVE_RESILIENCE_H
#define PIMSIM_SERVE_RESILIENCE_H

#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"

namespace pimsim::serve {

/** Retry/backoff configuration for failed PIM batches. */
struct RetryPolicy
{
    /**
     * PIM re-dispatches allowed after the first failed attempt. 0 means
     * a failed batch goes straight to host fallback.
     */
    unsigned maxRetries = 2;
    /** Backoff before the first retry. */
    double baseBackoffNs = 50'000.0;
    /** Backoff cap (exponential growth saturates here). */
    double maxBackoffNs = 2'000'000.0;
    /** Equal-jitter fraction in [0, 1]: the delay is drawn uniformly
     *  from base * [1-j, 1+j). */
    double jitterFrac = 0.25;

    /**
     * Assert the configuration is sane (jitterFrac in [0, 1], backoffs
     * non-negative). Engines call this when the policy is installed so a
     * bad config fails at setup, not mid-campaign.
     */
    void validate() const;

    /**
     * Backoff before retry number `retry` (1-based): exponential in the
     * retry index, capped, jittered from `rng`, never negative.
     * Deterministic for a seeded generator.
     */
    double backoffNs(unsigned retry, Rng &rng) const;
};

/** Circuit-breaker states (the classic three-state machine). */
enum class BreakerState
{
    Closed,   ///< shard healthy, batches run on PIM
    Open,     ///< shard tripped, batches route to host fallback
    HalfOpen, ///< cool-down expired, one probe batch tests the shard
};

const char *breakerStateName(BreakerState state);

/** Per-shard circuit-breaker configuration. */
struct BreakerConfig
{
    bool enabled = false;
    /** Sliding window of most recent PIM batch outcomes. */
    unsigned window = 16;
    /** Outcomes required in the window before the breaker may trip. */
    unsigned minSamples = 4;
    /** Error fraction in the window at or above which the shard trips. */
    double errorThreshold = 0.5;
    /** Cool-down after tripping before a half-open probe is allowed. */
    double openNs = 4'000'000.0;
};

/** Where a dispatch should execute, as decided by the breaker. */
enum class DispatchRoute
{
    Pim,      ///< normal PIM execution
    PimProbe, ///< half-open probe on the PIM path
    Host,     ///< shard tripped: host-fallback execution
};

/**
 * One shard's circuit breaker. The caller (ServingEngine) asks route()
 * before every dispatch and reports every PIM-path outcome through
 * record(); host-path outcomes never count, so a tripped shard's error
 * window can only be cleared by a successful probe.
 */
class CircuitBreaker
{
  public:
    CircuitBreaker() = default;
    explicit CircuitBreaker(const BreakerConfig &config) : config_(config) {}

    BreakerState state() const { return state_; }
    /** Simulated time the current state was entered. */
    double stateSinceNs() const { return stateSinceNs_; }

    /**
     * Route the next dispatch at time `now_ns`. In Open state, a call at
     * or past the cool-down expiry transitions to HalfOpen and grants
     * the probe; while a probe is outstanding every other dispatch
     * routes to the host.
     */
    DispatchRoute route(double now_ns);

    /** Report a PIM-path batch outcome (probe outcomes included). */
    void record(bool ok, double now_ns);

    std::uint64_t opens() const { return opens_; }
    std::uint64_t closes() const { return closes_; }
    std::uint64_t probes() const { return probes_; }

  private:
    void transition(BreakerState next, double now_ns);

    BreakerConfig config_;
    BreakerState state_ = BreakerState::Closed;
    double stateSinceNs_ = 0.0;
    double openUntilNs_ = 0.0;
    bool probeInFlight_ = false;

    /** Sliding outcome window (true = failure). */
    std::deque<bool> window_;
    unsigned windowErrors_ = 0;

    std::uint64_t opens_ = 0;
    std::uint64_t closes_ = 0;
    std::uint64_t probes_ = 0;
};

/**
 * Engine-facing source of uncorrectable fault events on the serving
 * clock. faultEvents() is pure accounting over a deterministic event
 * process: the engine asks, per completed PIM batch, how many events
 * struck the batch's shard during its service window and treats any
 * non-zero answer as an uncorrectable kernel outcome.
 */
class FaultModel
{
  public:
    virtual ~FaultModel() = default;

    /** Fault events striking `shard` in [start_ns, end_ns). */
    virtual unsigned faultEvents(unsigned shard, double start_ns,
                                 double end_ns) = 0;
};

/** One silent-corruption event pinned to its device location. */
struct SdcEvent
{
    double ns = 0.0;      ///< serving-clock instant the value corrupted
    unsigned channel = 0; ///< absolute pseudo-channel index
    unsigned unit = 0;    ///< PIM unit within the channel
};

/**
 * Engine-facing source of silent-data-corruption events on the serving
 * clock. Unlike FaultModel's events these are never reported by the
 * device: a batch whose service window covers one completes normally
 * with a wrong result unless the ABFT layer catches it. Events carry
 * the (channel, unit) that produced the bad value, so the SdcMonitor
 * can localize. Implemented by ChaosCampaign; tests plug in stubs.
 */
class SdcModel
{
  public:
    virtual ~SdcModel() = default;

    /** SDC events striking `channel` in [start_ns, end_ns), ascending. */
    virtual std::vector<SdcEvent> sdcEvents(unsigned channel,
                                            double start_ns,
                                            double end_ns) = 0;
};

/**
 * Cluster-facing source of host-level fault processes: whole-host
 * crashes, straggler slowdowns, and flaky-link transfer loss. All
 * queries are pure functions of (configuration, seed), so identical
 * scenarios replay bit-identically regardless of query order.
 * Implemented by ChaosCampaign for chaos benches; tests plug in
 * deterministic stubs.
 */
class HostFaultModel
{
  public:
    virtual ~HostFaultModel() = default;

    /** True when a crash window of `host` intersects [start_ns, end_ns]
     *  (an instant query passes start == end). */
    virtual bool hostCrashed(unsigned host, double start_ns,
                             double end_ns) = 0;

    /** Service-time multiplier of `host` at time `ns` (>= 1.0; the
     *  product of every straggler window covering the instant). */
    virtual double hostSlowdown(unsigned host, double ns) = 0;

    /** True when transfer `transfer_id` to/from `host` at time `ns` is
     *  lost on a flaky link. One draw per id: hedged copies and retries
     *  carry distinct ids, so their fates are independent. */
    virtual bool linkDropped(unsigned host, std::uint64_t transfer_id,
                             double ns) = 0;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_RESILIENCE_H
