/**
 * @file
 * The assembled system: one host socket and its (PIM-)HBM stacks.
 *
 * PimSystem owns one MemoryController per pseudo channel (64 for the
 * default four-stack configuration), the global address mapping, and the
 * simulated clock. Callers enqueue requests per channel and pump the
 * event loop; the loop skips dead cycles using the controllers' next-
 * event hints, so large idle gaps cost nothing.
 *
 * Channels are architecturally independent between host barriers (the
 * paper's Section III pseudo-channel model): below PimSystem no channel
 * ever reads another channel's state, and cross-channel interaction
 * happens only through the caller's enqueue/drain between pump calls.
 * step(), advance() and runUntilIdle() therefore execute as *epochs*:
 * each channel in turn replays all of its own events in [now_, target],
 * then the epoch's ECC events are merged into the error log in
 * (cycle, channel) order — the order a target-by-target sweep over all
 * channels would record them in (DESIGN.md §14).
 *
 * The paper drives every pseudo channel with the same lock-step command
 * stream, so a timing-only system whose channels have seen identical
 * requests stays *symmetric*: every channel's state equals channel 0's.
 * A program replicated over all channels of such a system is *replayed*
 * (beginReplay/endReplay): only channel 0 accepts requests and ticks,
 * then its complete state is mirrored into every other channel. Any
 * tryEnqueue outside a replay ends symmetry for the system's lifetime
 * (DESIGN.md §16).
 */

#ifndef PIMSIM_SIM_SYSTEM_H
#define PIMSIM_SIM_SYSTEM_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/stats_registry.h"
#include "dram/address.h"
#include "mem/controller.h"
#include "reliability/mem_error.h"
#include "sim/system_config.h"

namespace pimsim {

class TraceSession;

/** One host + memory system instance. */
class PimSystem
{
  public:
    explicit PimSystem(const SystemConfig &config);
    // Controllers and the stats registry hold pointers into this object.
    PimSystem(const PimSystem &) = delete;
    PimSystem &operator=(const PimSystem &) = delete;

    const SystemConfig &config() const { return config_; }
    const AddressMapping &mapping() const { return mapping_; }

    /**
     * The one check for uses that need operand bytes (fault injection,
     * ABFT, SDC attribution, functional readback): they fail with a
     * clear message on a timing-only system (PimConfig::functional
     * off), whose DRAM rows and registers never hold kernel data.
     * @param what  the rejected use, for the message
     */
    void requireFunctional(const char *what) const
    {
        PIMSIM_ASSERT(config_.pim.functional, what,
                      " needs operand bytes, but this system is timing-only "
                      "(PimConfig::functional is off)");
    }

    unsigned numChannels() const
    {
        return static_cast<unsigned>(controllers_.size());
    }

    MemoryController &controller(unsigned channel)
    {
        PIMSIM_ASSERT(channel < controllers_.size(), "bad channel ", channel);
        return *controllers_[channel];
    }

    /** Current simulated bus cycle. */
    Cycle now() const { return now_; }

    /** Nanoseconds elapsed since construction. */
    double nowNs() const
    {
        return static_cast<double>(now_) * config_.timing.tCKns;
    }

    double nsPerCycle() const { return config_.timing.tCKns; }
    Cycle nsToCycles(double ns) const
    {
        return static_cast<Cycle>(ns / config_.timing.tCKns + 0.5);
    }

    /** Enqueue a request on a channel if the queue has space. Outside a
     *  replay this ends the system's symmetry. */
    bool tryEnqueue(unsigned channel, const MemRequest &request);

    /**
     * Start replaying a program replicated over every channel, if the
     * system allows it: timing-only (PimConfig::functional off) and
     * symmetric, every channel idle, untraced, scrub-free and on channel
     * 0's ordered window, and no staged ECC events. Until endReplay(),
     * only channel 0 accepts requests and the event loop runs channel 0
     * alone. @return false, changing nothing, when replay does not apply.
     */
    bool beginReplay();

    /** Mirror channel 0's state into every other channel and end the
     *  replay; the system stays symmetric. */
    void endReplay();

    /** Replays completed so far (kept out of the stats registry). */
    std::uint64_t replayedRuns() const { return replayedRuns_; }

    /**
     * Advance the clock to the next event and tick every due controller.
     * @return false when every controller is idle (no work remains).
     */
    bool step();

    /** Advance time by exactly `cycles`, ticking controllers as needed. */
    void advance(Cycle cycles);

    /** Run until all controllers are idle. */
    void runUntilIdle();

    /** Drain completed responses from one channel. */
    std::vector<MemResponse> drain(unsigned channel)
    {
        PIMSIM_ASSERT(channel < controllers_.size(), "bad channel ", channel);
        return controllers_[channel]->drainResponses(now_);
    }

    /** True iff every controller is idle. */
    bool allIdle() const;

    /** Sum of a named counter over all channels' device stats. */
    std::uint64_t totalChannelStat(const std::string &stat) const;
    /** Sum of a named counter over all channels' PIM stats. */
    std::uint64_t totalPimStat(const std::string &stat) const;
    /** Sum of a named counter over all channels' controller stats. */
    std::uint64_t totalCtrlStat(const std::string &stat) const;

    /**
     * System-wide machine-check log: every ECC event seen by any channel
     * (demand access or scrub) lands here. The runtime polls it to
     * decide whether a PIM kernel's data can be trusted. The accessor
     * first merges any staged events (e.g. from a driver DataStore
     * access between pump calls), so the log is always current.
     */
    MemErrorLog &errorLog();
    const MemErrorLog &errorLog() const;

    /**
     * Serving-layer statistics (admissions, rejections, completions per
     * tenant). The ServingEngine publishes its counters here so system-
     * level dumps include serving behaviour next to device stats.
     */
    StatGroup &serveStats() { return serveStats_; }
    const StatGroup &serveStats() const { return serveStats_; }

    /**
     * The system-wide stats registry. Every controller ("ch<N>.ctrl"),
     * pseudo channel ("ch<N>.pch"), PIM channel ("ch<N>.pim") and the
     * serving group ("serve") are registered at construction; higher
     * layers (serving engine, benches) add their own entries.
     */
    StatsRegistry &statsRegistry() { return registry_; }
    const StatsRegistry &statsRegistry() const { return registry_; }

    /**
     * Refresh derived scalars (per-channel row-buffer hit rate, bus
     * utilisation against the current clock, mean arrival queue depth)
     * so a following dump reports rates next to raw counters.
     */
    void updateDerivedStats();

    /** updateDerivedStats() + registry JSON dump. */
    void dumpStatsJson(std::ostream &os);

    /**
     * Attach (or detach, with nullptr) a Chrome-trace session: every
     * pseudo channel records its command spans on a per-channel device
     * track. Events land in the session in epoch replay order (channel
     * by channel); write()'s stable timestamp sort orders the file.
     */
    void setTraceSession(TraceSession *session);

  private:
    /**
     * Run one channel's events (and, for advance(), scrub steps) up to
     * and including `target`. Returns the last cycle at which the
     * channel actually did work (now_ if it did none).
     */
    Cycle runChannelEpoch(unsigned ch, Cycle target, bool allow_scrub);
    /** Run every channel's epoch in index order, then merge ECC events.
     *  Returns the last cycle at which any channel did work. */
    Cycle runEpoch(Cycle target, bool allow_scrub);
    /** Replay the staged ECC events into errorLog_ in (cycle, channel)
     *  order. */
    void mergeErrorStaging();
    /** Event-loop invariant: a non-idle channel must have a live
     *  next-tick hint (enqueues must go through tryEnqueue). */
    void assertTickInvariant() const;
    /** Channels the event loop runs: channel 0 alone during a replay. */
    unsigned tickedChannels() const
    {
        return replaying_ ? 1 : numChannels();
    }

    SystemConfig config_;
    AddressMapping mapping_;
    MemErrorLog errorLog_;
    StatsRegistry registry_;
    StatGroup serveStats_{"serve"};
    std::vector<std::unique_ptr<MemoryController>> controllers_;
    std::vector<Cycle> nextTick_;
    Cycle now_ = 0;
    /** ECC events recorded by every controller since the last merge.
     *  Unbounded: the merge must replay every event into errorLog_. */
    MemErrorLog errorStaging_{~std::size_t{0}};
    /** Every channel has seen the same requests (see beginReplay). */
    bool symmetric_ = true;
    bool replaying_ = false;
    std::uint64_t replayedRuns_ = 0;
};

} // namespace pimsim

#endif // PIMSIM_SIM_SYSTEM_H
