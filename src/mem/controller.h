/**
 * @file
 * Per-pseudo-channel memory controller.
 *
 * Implements an FR-FCFS scheduler with an open-page policy (Rixner et
 * al., the scheduling the paper's Section IV-C motivates AAM against),
 * write draining, and all-bank refresh. Ordered (PIM) requests are only
 * reorderable within a configurable window, modelling the AAM tolerance
 * of the GRF depth; window 1 is strict in-order, a huge window models the
 * fence-free in-order-capable controller studied in Section VII-B.
 */

#ifndef PIMSIM_MEM_CONTROLLER_H
#define PIMSIM_MEM_CONTROLLER_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "dram/pseudo_channel.h"
#include "mem/request.h"
#include "pim/pim_channel.h"
#include "reliability/mem_error.h"

namespace pimsim {

/** Scheduler and queue configuration. */
struct ControllerConfig
{
    /** Request queue capacity (>= 1). */
    unsigned queueDepth = 96;
    /** FR-FCFS candidate window for unordered (host) requests (>= 1);
     *  also the window row preparation looks at. */
    unsigned reorderWindow = 48;
    /** Reorder window for ordered (PIM) requests (>= 1); 1 = strict
     *  in-order. The default 8 models FR-FCFS reordering that AAM
     *  tolerates within one GRF window (Section IV-C). */
    unsigned orderedWindow = 8;
    /** Enable periodic all-bank refresh. */
    bool refreshEnabled = true;
    /** Enable the background ECC scrubber (patrol scrub). */
    bool scrubEnabled = false;
    /** Cycles between scrub steps. */
    Cycle scrubInterval = 50000;
    /** Bursts checked per scrub step (when the controller is idle). */
    unsigned scrubBurstsPerStep = 8;
};

/**
 * One pseudo channel's controller, device, and (optionally) PIM logic.
 *
 * The scheduler keeps its inputs incrementally, so a tick costs O(banks)
 * instead of a rescan of the reorder window (DESIGN.md section 4).
 * Queued requests live in a slot array threaded by age, by orderedness
 * and (reads and writes) by bank. Each bank caches its oldest unblocked
 * row hit per column direction, its oldest request at the open row and
 * its oldest unordered request. These change only on enqueue, on
 * removal and when one of this controller's own row commands changes a
 * bank, and the pick is recomputed only after one of those events. So
 * every command to the channel must go through this controller.
 */
class MemoryController
{
  public:
    /**
     * @param with_pim  attach PIM execution units to the channel
     *                  (a PIM-HBM device vs a standard HBM device)
     */
    MemoryController(const HbmGeometry &geom, const HbmTiming &timing,
                     const ControllerConfig &config, bool with_pim,
                     const PimConfig &pim_config);

    // Counter handles and the ECC hook point into this controller.
    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /**
     * Become a copy of `other` (same geometry, timing and PIM presence):
     * queue and slots, scheduler caches, pending responses, refresh and
     * scrub state, config, the device and PIM state below, and every
     * stats value. The identity stays: channel id, error sink and stat
     * handles.
     */
    void copyStateFrom(const MemoryController &other);

    /** True if another request can be accepted. */
    bool canEnqueue() const { return queued_ < config_.queueDepth; }

    /** Enqueue a request; the caller must have checked canEnqueue(). */
    void enqueue(const MemRequest &request);

    /**
     * Advance the controller at cycle `now`: issue at most one command.
     * @return the next cycle at which calling tick could make progress
     *         (kNoCycle when fully idle).
     */
    Cycle tick(Cycle now);

    /** All requests completed on or before `now` (destructive drain). */
    std::vector<MemResponse> drainResponses(Cycle now);

    /**
     * True iff no queued requests remain and every response has reached
     * its completion time (i.e. nothing needs further simulation —
     * completed responses may still await draining by the issuer).
     */
    bool idle(Cycle now) const
    {
        if (queued_ != 0)
            return false;
        for (const auto &r : pendingResponses_) {
            if (r.completion > now)
                return false;
        }
        return true;
    }

    /** Number of requests waiting in the queue. */
    std::size_t queuedRequests() const { return queued_; }

    /** The device. Inspect it, but issue commands only through this
     *  controller: its bank caches follow its own issues alone. */
    PseudoChannel &channel() { return *channel_; }
    const PseudoChannel &channel() const { return *channel_; }

    /** The PIM side of this channel (nullptr on a plain HBM device). */
    PimChannel *pim() { return pimChannel_.get(); }
    const PimChannel *pim() const { return pimChannel_.get(); }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    const ControllerConfig &config() const { return config_; }

    /** Override the ordered-request reorder window (>= 1; fence study). */
    void setOrderedWindow(unsigned window);

    /**
     * Attach the system error log. Installs a DataStore hook so every
     * ECC event on a demand access (host RD or PIM operand fetch) is
     * recorded as a machine-check-style event attributed to `channel`.
     */
    void setErrorSink(MemErrorLog *log, unsigned channel);

    /**
     * Run the patrol scrubber if a scrub step is due at `now`. Walks
     * allocated rows burst by burst, repairing correctable faults in
     * place; runs only while the request queue is empty (idle cycles),
     * deferring one interval otherwise.
     *
     * @return the cycle of the next due scrub step (kNoCycle when
     *         scrubbing is disabled).
     */
    Cycle scrubTick(Cycle now);

    /** Next cycle a scrub step wants to run (kNoCycle when disabled). */
    Cycle nextScrubDue() const
    {
        return config_.scrubEnabled ? nextScrub_ : kNoCycle;
    }

    /** Enable/disable scrubbing at runtime (benchmark sweeps). */
    void setScrubEnabled(bool enabled) { config_.scrubEnabled = enabled; }

  private:
    /** Slot index into slots_; kNil ends a list. */
    static constexpr unsigned kNil = ~0u;
    /** Bank-state arrays are inline (constructing allocates nothing). */
    static constexpr unsigned kMaxBanks = 16;

    /** Membership of one slot in one doubly-linked, oldest-first list. */
    struct Links
    {
        unsigned prev = kNil;
        unsigned next = kNil;
    };

    struct Queued
    {
        MemRequest request;
        /** Arrival stamp: lower is older. */
        std::uint64_t seq = 0;
        /** Set when the request needed a PRE/ACT (row-buffer miss). */
        bool rowMissed = false;
        /** A read/write queued behind an older read/write of the same
         *  burst (full DramCoord): it may not be picked as a row hit. */
        bool blocked = false;
        Links age;  ///< every queued request (the free list when unused)
        Links kind; ///< requests of the same orderedness
        Links bank; ///< reads and writes of the same bank
    };

    /** An oldest-first list threaded through one Links member. */
    struct List
    {
        unsigned head = kNil;
        unsigned tail = kNil;

        void pushBack(std::vector<Queued> &slots, Links Queued::*links,
                      unsigned slot);
        void unlink(std::vector<Queued> &slots, Links Queued::*links,
                    unsigned slot);
    };

    /** The reads and writes of one bank and what the scheduler needs
     *  from them, kept current for the bank's open row. */
    struct BankQueue
    {
        List list;
        /** Oldest unblocked row hit per direction ([0] RD, [1] WR). */
        std::array<unsigned, 2> hit{kNil, kNil};
        /** Oldest request at the open row (the row is still wanted). */
        unsigned rowUser = kNil;
        /** Oldest unordered request (row-preparation candidate). */
        unsigned firstHost = kNil;
        /** The bank state the fields above describe. */
        bool open = false;
        unsigned openRow = 0;
    };

    /** The command a queued request needs next, given bank state. */
    Command nextCommandFor(const Queued &entry) const;

    /** Pick the slot to serve next (FR-FCFS); kNil when empty. */
    unsigned pickCandidate() const;

    Cycle refreshTick(Cycle now);
    /** Opportunistic PRE/ACT for a pending row-miss (host requests). */
    Cycle rowPrepTick(Cycle now, unsigned chosen);
    void completeRequest(const Queued &entry, const IssueResult &result,
                         Cycle now);

    /** Issue on the channel and bring the bank caches up to date. */
    IssueResult issue(const Command &cmd, Cycle now);
    /** Remove a queued request and return its slot to the free list. */
    void remove(unsigned slot);
    /** Re-derive the row-dependent fields of every bank whose open row
     *  differs from what its BankQueue describes. */
    void syncBanks();
    /** Fill the BankQueue fields named by `want` (a kWant* mask) from
     *  the first matching requests at or after slot `from`. */
    void refill(BankQueue &q, unsigned from, unsigned want);
    /** burstCount_ bucket of a burst address. */
    unsigned burstBucket(const DramCoord &c) const;
    /** The slot `size` places behind the oldest request. */
    unsigned slotAt(unsigned size) const;

    std::uint64_t seqOf(unsigned slot) const
    {
        return slot == kNil ? UINT64_MAX : slots_[slot].seq;
    }

    HbmGeometry geom_;
    HbmTiming timing_;
    ControllerConfig config_;
    std::unique_ptr<PseudoChannel> channel_;
    std::unique_ptr<PimChannel> pimChannel_;

    /** queueDepth slots, allocated by the first enqueue. */
    std::vector<Queued> slots_;
    /** Queued reads/writes per burst-address hash bucket (allocated with
     *  slots_): a zero count rules out a same-burst conflict without
     *  walking the bank's list. */
    std::vector<std::uint16_t> burstCount_;
    unsigned burstShift_ = 0;
    unsigned freeSlot_ = kNil;
    unsigned queued_ = 0;
    std::uint64_t nextSeq_ = 0;
    List age_;
    /** Requests by orderedness: [0] unordered, [1] ordered. */
    std::array<List, 2> kinds_;
    std::array<BankQueue, kMaxBanks> banks_;
    /** The first slot past the oldest orderedWindow / reorderWindow
     *  requests (kNil while no more are queued). */
    unsigned orderedEdge_ = kNil;
    unsigned reorderEdge_ = kNil;
    /** The cached pick; recomputed only when pickStale_. */
    unsigned pick_ = kNil;
    bool pickStale_ = true;

    std::vector<MemResponse> pendingResponses_;

    Cycle nextRefresh_;
    bool refreshing_ = false;
    /** Direction of the last issued column command (streak scheduling). */
    bool lastColWasWrite_ = false;

    // Reliability: error reporting and patrol scrub state.
    MemErrorLog *errorLog_ = nullptr;
    unsigned channelId_ = 0;
    /** Cycle stamp applied to error events raised from inside tick(). */
    Cycle lastNow_ = 0;
    Cycle nextScrub_;
    /** Flat (row-index * colsPerRow + col) scrub cursor. */
    std::size_t scrubPos_ = 0;

    StatGroup stats_;
    // Per-command counters of stats_ (cold paths use stats_.add()).
    std::array<StatCounter, kNumCommandTypes> cmdStat_;  ///< cmd.<TYPE>
    std::array<StatCounter, kNumCommandTypes> prepStat_; ///< prep.<TYPE>
    StatCounter enqueuedStat_{&stats_, "enqueued"};
    StatCounter queueDepthSumStat_{&stats_, "queueDepthSum"};
    StatCounter colIssuedStat_{&stats_, "colIssued"};
    StatCounter rowHitStat_{&stats_, "rowHit"};
    StatCounter rowMissStat_{&stats_, "rowMiss"};
    StatCounter pimIssuedStat_{&stats_, "pimIssued"};
    StatCounter rdPimStat_{&stats_, "cmd.RD-PIM"};
    StatCounter refreshPreAStat_{&stats_, "refreshPreA"};
    StatCounter refreshStat_{&stats_, "refresh"};
};

} // namespace pimsim

#endif // PIMSIM_MEM_CONTROLLER_H
