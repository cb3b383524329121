/**
 * @file
 * Per-pseudo-channel PIM logic: mode FSM and register-mapped access.
 *
 * Implements Section III-B's operation modes and transitions with nothing
 * but standard DRAM commands:
 *
 *  - SB -> AB:      ACT + PRE to the ABMR row of the PIM_CONF space.
 *  - AB -> SB:      ACT + PRE to the SBMR row (all rows precharged).
 *  - AB <-> AB-PIM: WR of 0/1 to the PIM_OP_MODE column of the config row.
 *
 * While the config row is open, column commands read/write the
 * register-mapped CRF/GRF/SRF. In AB-PIM mode, column commands to data
 * rows trigger PIM instructions in lock-step across all units.
 */

#ifndef PIMSIM_PIM_PIM_CHANNEL_H
#define PIMSIM_PIM_PIM_CHANNEL_H

#include <memory>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "dram/pseudo_channel.h"
#include "pim/pim_config.h"
#include "pim/pim_unit.h"

namespace pimsim {

/** Operation modes (Fig. 3). */
enum class PimMode
{
    Sb,    ///< single-bank: standard DRAM
    Ab,    ///< all-bank lock-step access
    AbPim, ///< all-bank, column commands trigger PIM instructions
};

const char *pimModeName(PimMode mode);

/** The PIM side of one pseudo channel. */
class PimChannel : public ColumnInterceptor
{
  public:
    PimChannel(const PimConfig &config, PseudoChannel &pch);

    // The units and the counter handles point into this channel.
    PimChannel(const PimChannel &) = delete;
    PimChannel &operator=(const PimChannel &) = delete;

    /**
     * Become a copy of `other` (same config): mode FSM, every unit's
     * state and every stats value. The channel binding stays.
     */
    void copyStateFrom(const PimChannel &other);

    PimMode mode() const { return mode_; }

    unsigned numUnits() const { return static_cast<unsigned>(units_.size()); }
    PimUnit &unit(unsigned index) { return *units_[index]; }
    const PimUnit &unit(unsigned index) const { return *units_[index]; }

    const PimConfMap &confMap() const { return conf_; }
    const PimConfig &config() const { return config_; }

    /** True once every unit has hit EXIT. */
    bool allUnitsHalted() const;

    /** True if any unit raised an illegal-instruction fault. */
    bool anyUnitFaulted() const;

    /** Sum of ground-truth SDC exposures over this channel's units. */
    std::uint64_t sdcExposed() const;

    // Flat column layout of the register map; columns beyond one row's
    // width spill into configRow2. Use configAddr() to get (row, col).
    unsigned crfCol(unsigned crf_index) const { return crf_index / 8; }
    unsigned grfACol(unsigned reg) const { return grfAColBase_ + reg; }
    unsigned grfBCol(unsigned reg) const { return grfBColBase_ + reg; }
    unsigned srfMCol() const { return srfMCol_; }
    unsigned srfACol() const { return srfACol_; }
    unsigned opModeCol() const { return opModeCol_; }

    /** Map a flat register-map column to a (row, DRAM column) pair. */
    std::pair<unsigned, unsigned> configAddr(unsigned flat_col) const
    {
        const unsigned cols = pch_.geometry().colsPerRow;
        return flat_col < cols
                   ? std::make_pair(conf_.configRow, flat_col)
                   : std::make_pair(conf_.configRow2, flat_col - cols);
    }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    // ColumnInterceptor interface.
    void onRowCommand(const Command &cmd, Cycle cycle) override;
    bool onColumnCommand(const Command &cmd, Cycle cycle,
                         Burst *rd_data) override;

  private:
    enum class Pending { None, Ab, Sb };

    bool handleConfigAccess(const Command &cmd, unsigned open_row,
                            Burst *rd_data);
    void setOpMode(bool pim_on);

    PimConfig config_;
    PseudoChannel &pch_;
    PimConfMap conf_;
    std::vector<std::unique_ptr<PimUnit>> units_;

    PimMode mode_ = PimMode::Sb;
    Pending pending_ = Pending::None;

    unsigned grfAColBase_;
    unsigned grfBColBase_;
    unsigned srfMCol_;
    unsigned srfACol_;
    unsigned opModeCol_;

    StatGroup stats_;
    /** The units' pim.* counters, bound once and shared by all units. */
    PimUnitStats unitStats_{&stats_};
    // Per-command counters of stats_ (mode changes use stats_.add()).
    StatCounter triggerStat_{&stats_, "pim.trigger"};
    StatCounter confCrfWrStat_{&stats_, "conf.crfWr"};
    StatCounter confGrfWrStat_{&stats_, "conf.grfWr"};
    StatCounter confSrfWrStat_{&stats_, "conf.srfWr"};
    StatCounter confUnmappedWrStat_{&stats_, "conf.unmappedWr"};
    StatCounter confRdStat_{&stats_, "conf.rd"};
};

} // namespace pimsim

#endif // PIMSIM_PIM_PIM_CHANNEL_H
