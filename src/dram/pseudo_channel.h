/**
 * @file
 * Cycle-level model of one HBM2 pseudo channel.
 *
 * Owns 16 banks (4 bank groups x 4), enforces JEDEC timing between
 * commands, and moves real bytes through the DataStore. Supports the
 * paper's two access shapes:
 *
 *  - single-bank (SB) mode: standard DRAM; a command targets one bank.
 *  - all-bank (AB) mode: one command is applied to the same row/column of
 *    all banks in lock-step (Section III-B); column commands are paced at
 *    tCCD_L.
 *
 * A ColumnInterceptor hook lets the PIM layer observe/consume commands
 * (PIM-register access, AB-PIM instruction triggering) without the DRAM
 * layer depending on the PIM layer.
 */

#ifndef PIMSIM_DRAM_PSEUDO_CHANNEL_H
#define PIMSIM_DRAM_PSEUDO_CHANNEL_H

#include <array>
#include <iosfwd>
#include <optional>
#include <ranges>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/bank.h"
#include "dram/command.h"
#include "dram/datastore.h"
#include "dram/ecc.h"
#include "dram/geometry.h"
#include "dram/timing.h"

namespace pimsim {

class TraceSession;

/** Result of issuing a command. */
struct IssueResult
{
    /** Cycle at which RD data is valid on the bus (kNoCycle otherwise). */
    Cycle dataCycle = kNoCycle;
    /** RD payload (valid iff dataCycle != kNoCycle and not intercepted). */
    Burst data{};
    /** True if a PIM interceptor consumed the command's data phase. */
    bool intercepted = false;
    /** On-die ECC outcome of a host RD's array access (Ok otherwise). */
    EccStatus ecc = EccStatus::Ok;
};

/**
 * Interface for the PIM layer to observe commands on a pseudo channel.
 */
class ColumnInterceptor
{
  public:
    virtual ~ColumnInterceptor() = default;

    /**
     * Called when a row command (ACT/PRE/PREA) issues.
     * Used by the mode controller to detect PIM_CONF sequences.
     */
    virtual void onRowCommand(const Command &cmd, Cycle cycle) = 0;

    /**
     * Called when a column command (RD/WR) issues, before any bank data
     * movement.
     *
     * @param rd_data  for RD: set to the returned burst if consumed.
     * @return true if the interceptor consumed the command (PIM-register
     *         access or AB-PIM instruction trigger); the channel then
     *         skips its own bank data movement.
     */
    virtual bool onColumnCommand(const Command &cmd, Cycle cycle,
                                 Burst *rd_data) = 0;
};

/** Cycle-accurate pseudo channel with functional data. */
class PseudoChannel
{
  public:
    PseudoChannel(const HbmGeometry &geom, const HbmTiming &timing,
                  std::string stat_name = "pch");

    /**
     * Become a copy of `other` (same geometry and timing): bank and bus
     * timers, mode flags, DataStore contents and every stats value. The
     * identity stays: interceptor, trace hooks and stat handles.
     */
    void copyStateFrom(const PseudoChannel &other);

    /** Earliest cycle >= now at which cmd could legally issue. */
    Cycle earliestIssue(const Command &cmd, Cycle now) const;

    /** True iff cmd may issue exactly at cycle `now`. */
    bool canIssue(const Command &cmd, Cycle now) const
    {
        return earliestIssue(cmd, now) == now;
    }

    /**
     * Issue a command at `now` (must be legal) and apply timing plus
     * functional effects.
     */
    IssueResult issue(const Command &cmd, Cycle now);

    /** Enter/leave all-bank lock-step operation. */
    void setAllBankMode(bool enabled) { allBank_ = enabled; }
    bool allBankMode() const { return allBank_; }

    /**
     * PIM-execution flag for trace annotation: the PIM layer raises it
     * while PIM_OP_MODE=1 so the command trace can distinguish an AB-PIM
     * trigger from a plain AB access (the DRAM layer itself behaves
     * identically either way).
     */
    void setPimModeActive(bool active) { pimModeActive_ = active; }
    bool pimModeActive() const { return pimModeActive_; }

    /** Current access-shape label: "SB", "AB" or "AB-PIM". */
    const char *modeLabel() const
    {
        return allBank_ ? (pimModeActive_ ? "AB-PIM" : "AB") : "SB";
    }

    /** Install the PIM-layer observer (may be nullptr). */
    void setInterceptor(ColumnInterceptor *interceptor)
    {
        interceptor_ = interceptor;
    }

    /** True iff every bank is precharged (required before REF / mode exit). */
    bool allBanksIdle() const;

    /** True iff any bank has an open row. */
    bool anyBankActive() const { return !allBanksIdle(); }

    const Bank &bank(unsigned flat_index) const { return banks_[flat_index]; }

    /** Direct functional access for fast-path loading and verification. */
    DataStore &dataStore() { return data_; }
    const DataStore &dataStore() const { return data_; }

    const HbmGeometry &geometry() const { return geom_; }
    const HbmTiming &timing() const { return timing_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /**
     * Stream a gem5-style command trace ("<cycle>: <CMD> ...") to `os`;
     * nullptr disables tracing (the default).
     */
    void setTrace(std::ostream *os) { trace_ = os; }

    /**
     * Record issued commands as timeline spans on the given track of a
     * Chrome-trace session; nullptr disables (the default).
     */
    void setTraceSession(TraceSession *session, int track_tid)
    {
        traceSession_ = session;
        traceTid_ = track_tid;
    }

    /** True iff a command trace (stream or session) is attached. */
    bool traced() const { return trace_ || traceSession_; }

  private:
    Cycle earliestAct(unsigned flat_bank, Cycle now) const;
    Cycle earliestPre(unsigned flat_bank, Cycle now) const;
    Cycle earliestCol(const Command &cmd, unsigned flat_bank,
                      Cycle now) const;

    void applyAct(unsigned flat_bank, unsigned row, Cycle now);
    void applyPre(unsigned flat_bank, Cycle now);
    void applyCol(const Command &cmd, unsigned flat_bank, Cycle now);

    /** Consecutive flat banks [first, first + count). */
    using BankSpan = std::ranges::iota_view<unsigned, unsigned>;

    /** Banks a command applies to (1 in SB mode, all in AB mode). */
    BankSpan targetBanks(const Command &cmd) const;

    HbmGeometry geom_;
    HbmTiming timing_;
    std::vector<Bank> banks_;
    DataStore data_;

    bool allBank_ = false;
    bool pimModeActive_ = false;
    ColumnInterceptor *interceptor_ = nullptr;
    std::ostream *trace_ = nullptr;
    TraceSession *traceSession_ = nullptr;
    int traceTid_ = 0;

    // Channel-global timing state.
    Cycle busBusyUntil_ = 0;               ///< data-bus occupancy
    Cycle nextRdGlobal_ = 0;               ///< tCCD_S across bank groups
    Cycle nextWrGlobal_ = 0;
    std::vector<Cycle> nextRdPerBg_;       ///< tCCD_L within a bank group
    std::vector<Cycle> nextWrPerBg_;
    std::vector<Cycle> nextActPerBg_;      ///< tRRD_L within a bank group
    Cycle nextActGlobal_ = 0;              ///< tRRD_S
    /** tFAW window: the last four single-bank ACT cycles, a ring whose
     *  oldest entry is at actOldest_ (valid once actCount_ reaches 4). */
    std::array<Cycle, 4> actWindow_{};
    unsigned actOldest_ = 0;
    unsigned actCount_ = 0;
    Cycle lastWrDataEnd_ = 0;              ///< for tWTR
    Cycle lastRdDataEnd_ = 0;              ///< for tRTW accounting

    StatGroup stats_;
    // Per-command counters of stats_.
    StatCounter actStat_{&stats_, "act"};
    StatCounter preStat_{&stats_, "pre"};
    StatCounter rdStat_{&stats_, "rd"};
    StatCounter rdBanksStat_{&stats_, "rdBanks"};
    StatCounter wrStat_{&stats_, "wr"};
    StatCounter wrBanksStat_{&stats_, "wrBanks"};
    StatCounter busCyclesStat_{&stats_, "busCycles"};
    StatCounter pimColStat_{&stats_, "pimCol"};
    StatCounter pimBusCyclesStat_{&stats_, "pimBusCycles"};
    StatCounter refStat_{&stats_, "ref"};
};

} // namespace pimsim

#endif // PIMSIM_DRAM_PSEUDO_CHANNEL_H
