#include "pim/pim_channel.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim {

const char *
pimModeName(PimMode mode)
{
    switch (mode) {
      case PimMode::Sb:
        return "SB";
      case PimMode::Ab:
        return "AB";
      case PimMode::AbPim:
        return "AB-PIM";
    }
    return "???";
}

PimChannel::PimChannel(const PimConfig &config, PseudoChannel &pch)
    : config_(config), pch_(pch),
      conf_(PimConfMap::forRows(pch.geometry().rowsPerBank)),
      stats_("pimch")
{
    PIMSIM_ASSERT(config.unitsPerPch * 2 == pch.geometry().banksPerPch(),
                  "one PIM unit per bank pair expected");
    for (unsigned u = 0; u < config.unitsPerPch; ++u) {
        units_.push_back(
            std::make_unique<PimUnit>(config, u, pch, &unitStats_));
    }

    // Register-mapped column layout inside the config row. CRF occupies
    // the first crfEntries/8 bursts, then GRF_A, GRF_B, the two SRF
    // files and the PIM_OP_MODE register.
    const unsigned crf_cols = config.crfEntries / 8;
    grfAColBase_ = crf_cols;
    grfBColBase_ = grfAColBase_ + config.grfPerHalf;
    srfMCol_ = grfBColBase_ + config.grfPerHalf;
    srfACol_ = srfMCol_ + 1;
    opModeCol_ = srfACol_ + 1;
    PIMSIM_ASSERT(opModeCol_ < 2 * pch.geometry().colsPerRow,
                  "config space too small for the register map");

    pch_.setInterceptor(this);
}

void
PimChannel::copyStateFrom(const PimChannel &other)
{
    mode_ = other.mode_;
    pending_ = other.pending_;
    for (std::size_t u = 0; u < units_.size(); ++u)
        units_[u]->copyStateFrom(*other.units_[u]);
    stats_.copyValuesFrom(other.stats_);
}

bool
PimChannel::allUnitsHalted() const
{
    return std::all_of(units_.begin(), units_.end(),
                       [](const auto &u) { return u->halted(); });
}

bool
PimChannel::anyUnitFaulted() const
{
    return std::any_of(units_.begin(), units_.end(),
                       [](const auto &u) { return u->faulted(); });
}

std::uint64_t
PimChannel::sdcExposed() const
{
    std::uint64_t total = 0;
    for (const auto &u : units_)
        total += u->sdcExposed();
    return total;
}

void
PimChannel::onRowCommand(const Command &cmd, Cycle cycle)
{
    (void)cycle;
    if (cmd.type == CommandType::Act) {
        if (cmd.row == conf_.abmrRow)
            pending_ = Pending::Ab;
        else if (cmd.row == conf_.sbmrRow)
            pending_ = Pending::Sb;
        else
            pending_ = Pending::None;
        return;
    }

    // PRE / PREA commits a pending mode-register transition (Fig. 3).
    if (pending_ == Pending::Ab) {
        PIMSIM_ASSERT(mode_ == PimMode::Sb,
                      "ABMR sequence while already in ", pimModeName(mode_));
        PIMSIM_ASSERT(pch_.allBanksIdle(),
                      "SB->AB transition requires all rows precharged");
        mode_ = PimMode::Ab;
        pch_.setAllBankMode(true);
        stats_.add("mode.enterAb");
    } else if (pending_ == Pending::Sb) {
        PIMSIM_ASSERT(mode_ == PimMode::Ab,
                      "SBMR sequence while in ", pimModeName(mode_));
        PIMSIM_ASSERT(pch_.allBanksIdle(),
                      "AB->SB transition requires all rows precharged");
        mode_ = PimMode::Sb;
        pch_.setAllBankMode(false);
        pch_.setPimModeActive(false);
        stats_.add("mode.enterSb");
    }
    pending_ = Pending::None;
}

void
PimChannel::setOpMode(bool pim_on)
{
    if (pim_on) {
        if (config_.fastModeSwitch && mode_ == PimMode::Sb) {
            // HBM3-generation fine-grained interleaving: the register
            // write alone arms AB-PIM (no ABMR sequence required). Only
            // the config row carrying this very write may be open.
            for (unsigned b = 0; b < pch_.geometry().banksPerPch(); ++b) {
                PIMSIM_ASSERT(
                    pch_.bank(b).state == BankState::Idle ||
                        conf_.isConfigRow(pch_.bank(b).openRow),
                    "fast SB->AB-PIM requires data rows precharged");
            }
            pch_.setAllBankMode(true);
            pch_.setPimModeActive(true);
            mode_ = PimMode::AbPim;
            for (auto &u : units_)
                u->resetProgram();
            stats_.add("mode.fastEnterAbPim");
            return;
        }
        PIMSIM_ASSERT(mode_ == PimMode::Ab || mode_ == PimMode::AbPim,
                      "PIM_OP_MODE=1 requires AB mode");
        if (mode_ == PimMode::Ab) {
            mode_ = PimMode::AbPim;
            pch_.setPimModeActive(true);
            for (auto &u : units_)
                u->resetProgram();
            stats_.add("mode.enterAbPim");
        }
    } else if (mode_ == PimMode::AbPim) {
        if (config_.fastModeSwitch) {
            // Drop straight back to standard DRAM operation.
            mode_ = PimMode::Sb;
            pch_.setAllBankMode(false);
            pch_.setPimModeActive(false);
            stats_.add("mode.fastExitAbPim");
            return;
        }
        mode_ = PimMode::Ab;
        pch_.setPimModeActive(false);
        stats_.add("mode.exitAbPim");
    }
}

bool
PimChannel::handleConfigAccess(const Command &cmd, unsigned open_row,
                               Burst *rd_data)
{
    const unsigned flat = cmd.flatBank(pch_.geometry().banksPerBankGroup);
    const unsigned unit_idx =
        std::min(flat / 2, config_.unitsPerPch - 1);
    PimUnit &addressed = *units_[unit_idx];
    // Flat register-map column: configRow2 continues configRow's space.
    const unsigned col = cmd.col + (open_row == conf_.configRow2
                                        ? pch_.geometry().colsPerRow
                                        : 0);

    const unsigned crf_cols = config_.crfEntries / 8;

    if (cmd.type == CommandType::Wr) {
        // Writes broadcast to every unit: the same command reaches every
        // bank in AB mode, which is exactly how one WR loads the same
        // microkernel/scalar state everywhere.
        if (col < crf_cols) {
            for (auto &u : units_) {
                for (unsigned w = 0; w < 8; ++w) {
                    std::uint32_t word = 0;
                    for (unsigned b = 0; b < 4; ++b) {
                        word |= static_cast<std::uint32_t>(
                                    cmd.data[4 * w + b])
                                << (8 * b);
                    }
                    u->regs().setCrf(col * 8 + w, word);
                }
            }
            confCrfWrStat_.add();
        } else if (col >= grfAColBase_ && col < grfBColBase_) {
            const auto lanes = burstToLanes(cmd.data);
            for (auto &u : units_)
                u->regs().setGrf(0, col - grfAColBase_, lanes);
            confGrfWrStat_.add();
        } else if (col >= grfBColBase_ && col < srfMCol_) {
            const auto lanes = burstToLanes(cmd.data);
            for (auto &u : units_)
                u->regs().setGrf(1, col - grfBColBase_, lanes);
            confGrfWrStat_.add();
        } else if (col == srfMCol_) {
            for (auto &u : units_)
                u->regs().loadSrfFile(0, cmd.data);
            confSrfWrStat_.add();
        } else if (col == srfACol_) {
            for (auto &u : units_)
                u->regs().loadSrfFile(1, cmd.data);
            confSrfWrStat_.add();
        } else if (col == opModeCol_) {
            setOpMode(cmd.data[0] != 0);
        } else {
            confUnmappedWrStat_.add();
        }
        return true;
    }

    // Reads return the addressed unit's registers.
    Burst out{};
    if (col < crf_cols) {
        for (unsigned w = 0; w < 8; ++w) {
            const std::uint32_t word = addressed.regs().crf(col * 8 + w);
            for (unsigned b = 0; b < 4; ++b)
                out[4 * w + b] =
                    static_cast<std::uint8_t>((word >> (8 * b)) & 0xff);
        }
    } else if (col >= grfAColBase_ && col < grfBColBase_) {
        out = lanesToBurst(addressed.regs().grf(0, col - grfAColBase_));
    } else if (col >= grfBColBase_ && col < srfMCol_) {
        out = lanesToBurst(addressed.regs().grf(1, col - grfBColBase_));
    } else if (col == srfMCol_) {
        out = addressed.regs().srfFileAsBurst(0);
    } else if (col == srfACol_) {
        out = addressed.regs().srfFileAsBurst(1);
    } else if (col == opModeCol_) {
        out[0] = mode_ == PimMode::AbPim ? 1 : 0;
    }
    *rd_data = out;
    confRdStat_.add();
    return true;
}

bool
PimChannel::onColumnCommand(const Command &cmd, Cycle cycle, Burst *rd_data)
{
    (void)cycle;
    const unsigned flat = cmd.flatBank(pch_.geometry().banksPerBankGroup);
    const Bank &bank = pch_.bank(flat);
    PIMSIM_ASSERT(bank.state == BankState::Active,
                  "column command to idle bank");

    if (conf_.isConfigRow(bank.openRow))
        return handleConfigAccess(cmd, bank.openRow, rd_data);

    if (mode_ != PimMode::AbPim)
        return false;

    // AB-PIM: the command triggers one instruction in every unit, in
    // lock-step. No data crosses the chip I/O boundary.
    const Burst *bus =
        cmd.type == CommandType::Wr ? &cmd.data : nullptr;
    for (auto &u : units_)
        u->trigger(cmd.type, cmd.col, bus);
    triggerStat_.add();
    if (rd_data)
        *rd_data = Burst{};
    return true;
}

} // namespace pimsim
