/**
 * @file
 * Chaos campaigns: deterministic uncorrectable-fault processes on the
 * serving clock.
 *
 * ChaosCampaign drives the serving engine's FaultModel hook with a
 * per-shard Poisson process of uncorrectable fault events whose rate is
 * piecewise constant in virtual time: a steady-state rate plus an
 * optional burst window at a higher rate (the "fault storm" a chaos
 * test sweeps across). Because batch service windows are queried against
 * the same pre-drawn event stream, faults land mid-batch exactly where
 * the process puts them — a batch fails iff an event falls inside its
 * occupancy of the shard.
 *
 * The campaign also carries host-level fault processes for the cluster
 * tier (HostFaultModel): scheduled whole-host crash windows, straggler
 * windows that multiply service times, and flaky-link windows that drop
 * a deterministic fraction of transfers. Crash and straggler windows
 * are scenario-scheduled (a chaos bench kills host 2 at a known time);
 * flaky-link loss is a per-transfer hash draw, so the verdict for one
 * transfer never depends on how many others were queried before it.
 *
 * Determinism: one seed per campaign, one decorrelated stream per
 * shard; identical configuration replays the identical event sequence.
 */

#ifndef PIMSIM_SERVE_CHAOS_H
#define PIMSIM_SERVE_CHAOS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "serve/resilience.h"

namespace pimsim::serve {

/** Fault-process configuration (rates are per shard). */
struct ChaosConfig
{
    /** Steady-state uncorrectable fault events per second. */
    double faultsPerSec = 0.0;
    /** Burst window [burstStartNs, burstEndNs) on the serving clock. */
    double burstStartNs = 0.0;
    double burstEndNs = 0.0;
    /** Event rate inside the burst window (replaces the base rate). */
    double burstFaultsPerSec = 0.0;
    std::uint64_t seed = 0x5eed;

    // Silent-corruption process (SdcModel; rates are per channel).
    /** Steady-state silent-corruption events per second per channel. */
    double sdcPerSec = 0.0;
    /** Optional sick channel whose SDC rate is multiplied (-1: none). */
    int sdcHotChannel = -1;
    /** Rate multiplier of the sick channel (>= 0). */
    double sdcHotFactor = 1.0;
};

/** One scheduled host-level fault episode. */
struct HostFaultSpec
{
    enum class Kind
    {
        Crash,     ///< the host is dead for the whole window
        Straggler, ///< service times are multiplied by `factor`
        FlakyLink, ///< each transfer drops with probability `lossProb`
    };

    Kind kind = Kind::Crash;
    unsigned host = 0;
    /** Active window [startNs, endNs) on the serving clock. */
    double startNs = 0.0;
    double endNs = 0.0;
    /** Straggler service-time multiplier (>= 1). */
    double factor = 1.0;
    /** FlakyLink per-transfer drop probability in [0, 1]. */
    double lossProb = 0.0;
};

const char *hostFaultKindName(HostFaultSpec::Kind kind);

/** A deterministic per-shard fault-event process. */
class ChaosCampaign : public FaultModel,
                      public HostFaultModel,
                      public SdcModel
{
  public:
    ChaosCampaign(const ChaosConfig &config, unsigned num_shards);

    unsigned faultEvents(unsigned shard, double start_ns,
                         double end_ns) override;

    /**
     * Arm the silent-corruption process: one decorrelated Poisson stream
     * per channel at sdcPerSec (the hot channel at sdcPerSec *
     * sdcHotFactor), each event pinned to a uniformly drawn PIM unit.
     * Must be called before sdcEvents(); idempotent re-arming resets the
     * streams.
     */
    void configureSdc(unsigned num_channels, unsigned units_per_channel);

    // SdcModel
    std::vector<SdcEvent> sdcEvents(unsigned channel, double start_ns,
                                    double end_ns) override;

    /** Schedule one host-level fault episode (validated). */
    void addHostFault(const HostFaultSpec &spec);

    const std::vector<HostFaultSpec> &hostFaults() const
    {
        return hostFaults_;
    }

    // HostFaultModel
    bool hostCrashed(unsigned host, double start_ns,
                     double end_ns) override;
    double hostSlowdown(unsigned host, double ns) override;
    bool linkDropped(unsigned host, std::uint64_t transfer_id,
                     double ns) override;

    /** The instantaneous event rate (faults/sec) at time `ns`. */
    double rateAt(double ns) const;

    /** Total events generated so far, across all shards. */
    std::uint64_t eventsGenerated() const { return generated_; }

    /** The event times drawn so far for one shard (ascending). */
    const std::vector<double> &events(unsigned shard) const
    {
        return streams_[shard].events;
    }

  private:
    /** Extend `shard`'s event stream to cover [0, until_ns). */
    void extend(unsigned shard, double until_ns);
    /** Extend `channel`'s SDC stream to cover [0, until_ns). */
    void extendSdc(unsigned channel, double until_ns);

    struct Stream
    {
        explicit Stream(std::uint64_t seed) : rng(seed) {}
        Rng rng;
        double candidateNs = 0.0; ///< last thinning candidate drawn
        std::vector<double> events;
    };

    struct SdcStream
    {
        explicit SdcStream(std::uint64_t seed) : rng(seed) {}
        Rng rng;
        double lastNs = 0.0; ///< last exponential arrival drawn
        std::vector<SdcEvent> events;
    };

    ChaosConfig config_;
    double maxRate_; ///< thinning envelope (faults/sec)
    std::vector<Stream> streams_;
    std::vector<SdcStream> sdcStreams_;
    unsigned sdcUnitsPerChannel_ = 0;
    std::vector<HostFaultSpec> hostFaults_;
    std::uint64_t generated_ = 0;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_CHAOS_H
