/**
 * @file
 * One PIM execution unit (Section IV, Fig. 4).
 *
 * A unit sits at the I/O boundary of a pair of banks (EVEN_BANK,
 * ODD_BANK), contains a 16-wide FP16 SIMD FPU, the CRF/GRF/SRF register
 * files, and a sequencer. In AB-PIM mode each DRAM column command
 * triggers exactly one non-control PIM instruction; JUMP and EXIT are
 * resolved at the fetch/decode stage for free ("zero-cycle JUMP",
 * Section III-C).
 */

#ifndef PIMSIM_PIM_PIM_UNIT_H
#define PIMSIM_PIM_PIM_UNIT_H

#include <array>
#include <vector>

#include "common/stats.h"
#include "dram/command.h"
#include "dram/pseudo_channel.h"
#include "pim/isa.h"
#include "pim/pim_config.h"
#include "pim/registers.h"

namespace pimsim {

/**
 * The pim.* counters a PimUnit updates. PimChannel binds one set to its
 * stat group and shares it among its units (see StatCounter).
 */
struct PimUnitStats
{
    explicit PimUnitStats(StatGroup *group);

    /** pim.op.<NAME> by opcode value (unused values are no-ops). */
    std::array<StatCounter, 12> op;
    StatCounter opExec;
    StatCounter bankRead;
    StatCounter bankWrite;
    StatCounter busOperand;
    StatCounter eccCorrected;
    StatCounter eccUncorrectable;
    StatCounter triggerAfterExit;
    StatCounter illegalInst;
    StatCounter sdcExposed;
};

/** Execution state and datapath of one PIM unit. */
class PimUnit
{
  public:
    /**
     * @param config  unit configuration (register depths, DSE flags)
     * @param index   unit index within the pCH; serves flat banks
     *                (2*index, 2*index+1)
     * @param pch     owning pseudo channel (bank state + data)
     * @param stats   shared per-channel counters (may be nullptr)
     */
    PimUnit(const PimConfig &config, unsigned index, PseudoChannel &pch,
            PimUnitStats *stats);

    /**
     * Become a copy of `other` (same config): register files and
     * sequencer state. Bank pair, channel and stats stay this unit's.
     */
    void copyStateFrom(const PimUnit &other);

    /** Restart the microkernel: PPC = 0, loop counters cleared. */
    void resetProgram();

    /** True once EXIT has been fetched. */
    bool halted() const { return halted_; }

    /**
     * True if the sequencer hit an illegal instruction (a corrupted CRF
     * slot). The unit halts rather than executing garbage; the fault is
     * sticky until resetProgram().
     */
    bool faulted() const { return faulted_; }

    /** Current PIM program counter. */
    unsigned ppc() const { return ppc_; }

    /** Instructions executed since the last resetProgram(). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Ground-truth silent-data-corruption exposures: planted register-
     * file faults whose poisoned value the datapath actually consumed
     * (an overwrite before use masks the plant; an illegal-instruction
     * fault is reported, not silent — neither counts). Cumulative over
     * the unit's lifetime, so campaigns can delta across kernels.
     */
    std::uint64_t sdcExposed() const { return sdcExposed_; }

    /**
     * Execute one trigger (a column command in AB-PIM mode).
     *
     * @param type     Rd or Wr
     * @param col      column address of the command (feeds AAM indices and
     *                 bank operand addressing)
     * @param bus_data WR payload (nullptr for RD)
     */
    void trigger(CommandType type, unsigned col, const Burst *bus_data);

    PimRegisterFile &regs() { return regs_; }
    const PimRegisterFile &regs() const { return regs_; }

    unsigned evenBank() const { return evenBank_; }
    unsigned oddBank() const { return oddBank_; }

    const PimConfig &config() const { return config_; }

  private:
    /**
     * Resolve zero-cycle control flow (JUMP/EXIT) at the current PPC.
     * @return the decoded instruction at the resolved PPC (meaningful
     *         only while the unit is not halted)
     */
    PimInst resolveControl();

    /**
     * The instruction at the current PPC: the one resolveControl()
     * decoded ahead of this trigger while the CRF is unchanged since,
     * else a fresh resolveControl(). Each slot is decoded once per
     * trigger.
     */
    PimInst fetch();

    /** Run one non-control instruction on real operands and results. */
    void execute(const PimInst &inst, CommandType type, unsigned col,
                 const Burst *bus_data);

    /**
     * Timing-only execute (PimConfig::functional off): the bank and bus
     * traffic of the instruction's operand fetches and result write,
     * counted and checked exactly as execute() does, without the bytes.
     */
    void countTraffic(const PimInst &inst, CommandType type,
                      const Burst *bus_data);

    /**
     * Count and check one bank-space operand fetch.
     * @return true when the operand comes from the write bus
     */
    bool countBankOperand(OperandSpace space, CommandType type,
                          const Burst *bus_data, bool is_src1);

    /** Count and check one bank-space result write. */
    void countBankResult(OperandSpace space);

    /** Flat bank index of EvenBank/OddBank. */
    unsigned bankOf(OperandSpace space) const
    {
        return space == OperandSpace::EvenBank ? evenBank_ : oddBank_;
    }

    /** Fetch one 16-lane operand. */
    LaneVector fetchOperand(OperandSpace space, unsigned index,
                            CommandType type, unsigned col,
                            const Burst *bus_data, bool is_src1);

    /** Write one 16-lane result. */
    void writeResult(OperandSpace space, unsigned index, unsigned col,
                     const LaneVector &value);

    /** Effective register index under AAM. */
    unsigned effectiveIndex(const PimInst &inst, unsigned encoded,
                            OperandSpace space, unsigned col) const;

    PimConfig config_;
    unsigned evenBank_;
    unsigned oddBank_;
    PseudoChannel &pch_;
    PimRegisterFile regs_;
    PimUnitStats *stats_;

    /** Raise an illegal-instruction fault and halt the unit. */
    void raiseIllegalInst(std::uint32_t word);

    /** Count one consumed register-file plant (see sdcExposed()). */
    void noteExposure();

    unsigned ppc_ = 0;
    bool halted_ = false;
    bool faulted_ = false;
    unsigned nopConsumed_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t sdcExposed_ = 0;
    std::vector<int> jumpRemaining_;
    /** fetch()'s decode-ahead: valid while hasPrefetch_ and the CRF
     *  version still equals prefetchVersion_. */
    PimInst prefetch_;
    std::uint64_t prefetchVersion_ = 0;
    bool hasPrefetch_ = false;
};

} // namespace pimsim

#endif // PIMSIM_PIM_PIM_UNIT_H
