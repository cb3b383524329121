#include "pim/pim_unit.h"

#include "common/bf16.h"
#include "common/logging.h"

namespace pimsim {

namespace {

/**
 * SIMD row math in the configured number format. Lanes are carried as
 * raw 16-bit patterns (Fp16 wrappers); in BF16 mode the same bits are
 * interpreted as bfloat16 (Table I's alternative datapath). Each pass
 * widens the whole row to float once, computes in float and rounds back
 * once. This is bit-identical to the per-lane scalar fp16Add/fp16Mul/
 * fp16Mac (and bf16*) ops: the float add/mul of two 16-bit-significand
 * values is exact, and the MAC keeps the non-fused double rounding by
 * rounding the product row to format precision before the accumulate.
 */
void
lanesWiden(PimNumberFormat fmt, const LaneVector &v, float *out)
{
    Fp16Bits bits[kSimdLanes];
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        bits[i] = v[i].bits();
    if (fmt == PimNumberFormat::Fp16)
        fp16ToFloatN(bits, out, kSimdLanes);
    else
        bf16ToFloatN(bits, out, kSimdLanes);
}

LaneVector
lanesNarrow(PimNumberFormat fmt, const float *in)
{
    Fp16Bits bits[kSimdLanes];
    if (fmt == PimNumberFormat::Fp16)
        floatToFp16N(in, bits, kSimdLanes);
    else
        floatToBf16N(in, bits, kSimdLanes);
    LaneVector r;
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        r[i] = Fp16::fromBits(bits[i]);
    return r;
}

LaneVector
rowAdd(PimNumberFormat fmt, const LaneVector &a, const LaneVector &b)
{
    float fa[kSimdLanes], fb[kSimdLanes];
    lanesWiden(fmt, a, fa);
    lanesWiden(fmt, b, fb);
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        fa[i] += fb[i];
    return lanesNarrow(fmt, fa);
}

LaneVector
rowMul(PimNumberFormat fmt, const LaneVector &a, const LaneVector &b)
{
    float fa[kSimdLanes], fb[kSimdLanes];
    lanesWiden(fmt, a, fa);
    lanesWiden(fmt, b, fb);
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        fa[i] *= fb[i];
    return lanesNarrow(fmt, fa);
}

LaneVector
rowMac(PimNumberFormat fmt, const LaneVector &a, const LaneVector &b,
       const LaneVector &acc)
{
    float fa[kSimdLanes], fb[kSimdLanes], fc[kSimdLanes];
    lanesWiden(fmt, a, fa);
    lanesWiden(fmt, b, fb);
    lanesWiden(fmt, acc, fc);
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        fa[i] *= fb[i];
    // Non-fused datapath: round the product row before accumulating.
    if (fmt == PimNumberFormat::Fp16)
        fp16RoundFloatN(fa, kSimdLanes);
    else
        bf16RoundFloatN(fa, kSimdLanes);
    for (std::size_t i = 0; i < kSimdLanes; ++i)
        fa[i] += fc[i];
    return lanesNarrow(fmt, fa);
}

} // namespace

PimUnit::PimUnit(const PimConfig &config, unsigned index, PseudoChannel &pch,
                 StatGroup *stats)
    : config_(config), evenBank_(2 * index), oddBank_(2 * index + 1),
      pch_(pch), regs_(config), stats_(stats),
      jumpRemaining_(config.crfEntries, -1)
{
    PIMSIM_ASSERT(oddBank_ < pch.geometry().banksPerPch(),
                  "PIM unit index out of range: ", index);
}

void
PimUnit::resetProgram()
{
    ppc_ = 0;
    halted_ = false;
    faulted_ = false;
    nopConsumed_ = 0;
    executed_ = 0;
    std::fill(jumpRemaining_.begin(), jumpRemaining_.end(), -1);
}

void
PimUnit::raiseIllegalInst(std::uint32_t word)
{
    // A corrupted CRF slot (the register files carry no ECC) must not
    // crash the device model: raise a sticky fault and halt. The runtime
    // sees the fault via PimChannel::anyUnitFaulted() and recovers.
    PIMSIM_WARN("PIM unit (banks ", evenBank_, "/", oddBank_,
                ") illegal instruction word ", word, " at CRF[", ppc_,
                "]");
    if (stats_)
        stats_->add("pim.illegalInst");
    faulted_ = true;
    halted_ = true;
}

void
PimUnit::noteExposure()
{
    ++sdcExposed_;
    if (stats_)
        stats_->add("pim.sdcExposed");
}

void
PimUnit::resolveControl()
{
    // JUMP and EXIT are pre-decoded at the fetch stage and consume no
    // trigger. A JUMP with iteration count N makes its loop body run N
    // times in total (the backward branch is taken N-1 times).
    for (;;) {
        if (halted_ || ppc_ >= regs_.crfEntries()) {
            halted_ = true;
            return;
        }
        const std::uint32_t word = regs_.crf(ppc_);
        if (!isValidEncoding(word)) {
            raiseIllegalInst(word);
            return;
        }
        // A corrupted CRF slot that still decodes is about to steer the
        // kernel silently — that is an exposure. (An invalid encoding
        // raises a reported fault above and never counts.)
        if (regs_.crfPoisoned(ppc_)) {
            regs_.consumeCrfPoison(ppc_);
            noteExposure();
        }
        const PimInst inst = PimInst::decode(word);
        if (inst.opcode == PimOpcode::Exit) {
            halted_ = true;
            return;
        }
        if (inst.opcode != PimOpcode::Jump)
            return;
        int &remaining = jumpRemaining_[ppc_];
        if (remaining < 0)
            remaining = static_cast<int>(inst.imm1) - 1;
        if (remaining > 0) {
            --remaining;
            if (inst.imm0 > ppc_) {
                // A corrupted offset would branch before CRF[0]; treat it
                // as an illegal instruction rather than a simulator bug.
                raiseIllegalInst(word);
                return;
            }
            ppc_ -= inst.imm0;
        } else {
            remaining = -1;
            ++ppc_;
        }
    }
}

unsigned
PimUnit::effectiveIndex(const PimInst &inst, unsigned encoded,
                        OperandSpace space, unsigned col) const
{
    if (!inst.aam)
        return encoded;
    // Address-aligned mode (Section IV-C): register indices come from the
    // low bits of the DRAM column address, so consecutive column commands
    // walk the register file regardless of reorder.
    if (isSrfSpace(space))
        return col % config_.srfPerFile;
    return col % config_.grfPerHalf;
}

LaneVector
PimUnit::fetchOperand(OperandSpace space, unsigned index, CommandType type,
                      unsigned col, const Burst *bus_data, bool is_src1)
{
    switch (space) {
      case OperandSpace::GrfA:
      case OperandSpace::GrfB: {
        const unsigned half = space == OperandSpace::GrfA ? 0 : 1;
        if (regs_.grfPoisoned(half, index)) {
            regs_.consumeGrfPoison(half, index);
            noteExposure();
        }
        return regs_.grf(half, index);
      }
      case OperandSpace::SrfM:
      case OperandSpace::SrfA: {
        const unsigned file = space == OperandSpace::SrfM ? 0 : 1;
        if (regs_.srfPoisoned(file, index)) {
            regs_.consumeSrfPoison(file, index);
            noteExposure();
        }
        return broadcast(regs_.srf(file, index));
      }
      case OperandSpace::EvenBank:
      case OperandSpace::OddBank: {
        // A WR trigger carries host data on the write bus; a bank-space
        // source then reads the bus instead of the array. With the SRW
        // variant (Fig. 14), SRC1 still reads the bank so one WR can
        // deliver a vector operand and stream a matrix operand at once.
        const bool from_bus =
            type == CommandType::Wr &&
            !(config_.dse.simultaneousRdWr && is_src1);
        if (from_bus) {
            PIMSIM_ASSERT(bus_data != nullptr, "WR trigger without data");
            if (stats_)
                stats_->add("pim.busOperand");
            return burstToLanes(*bus_data);
        }
        const unsigned bank =
            space == OperandSpace::EvenBank ? evenBank_ : oddBank_;
        PIMSIM_ASSERT(pch_.bank(bank).state == BankState::Active,
                      "bank operand fetch from idle bank ", bank);
        if (stats_)
            stats_->add("pim.bankRead");
        // The bank read passes through the same on-die ECC engine as a
        // host RD (Section VIII); count what it observes. The DataStore
        // hook additionally records the event in the system error log.
        EccStatus ecc = EccStatus::Ok;
        const Burst data =
            pch_.dataStore().read(bank, pch_.bank(bank).openRow, col, &ecc);
        if (stats_ && ecc == EccStatus::Corrected)
            stats_->add("pim.eccCorrected");
        if (stats_ && ecc == EccStatus::Uncorrectable)
            stats_->add("pim.eccUncorrectable");
        return burstToLanes(data);
      }
    }
    PIMSIM_PANIC("bad operand space");
}

void
PimUnit::writeResult(OperandSpace space, unsigned index, unsigned col,
                     const LaneVector &value)
{
    switch (space) {
      case OperandSpace::GrfA:
        regs_.setGrf(0, index, value);
        return;
      case OperandSpace::GrfB:
        regs_.setGrf(1, index, value);
        return;
      case OperandSpace::EvenBank:
      case OperandSpace::OddBank: {
        const unsigned bank =
            space == OperandSpace::EvenBank ? evenBank_ : oddBank_;
        PIMSIM_ASSERT(pch_.bank(bank).state == BankState::Active,
                      "bank result write to idle bank ", bank);
        if (stats_)
            stats_->add("pim.bankWrite");
        pch_.dataStore().write(bank, pch_.bank(bank).openRow, col,
                               lanesToBurst(value));
        return;
      }
      case OperandSpace::SrfM:
      case OperandSpace::SrfA:
        // SRF is loaded through the PIM_CONF register map, not by
        // microkernel results.
        PIMSIM_PANIC("SRF is not a legal result destination");
    }
}

void
PimUnit::trigger(CommandType type, unsigned col, const Burst *bus_data)
{
    resolveControl();
    if (halted_) {
        // Faulted units stay silent; otherwise the host over-issued
        // triggers — harmless but worth counting.
        if (stats_ && !faulted_)
            stats_->add("pim.triggerAfterExit");
        return;
    }

    const PimInst inst = PimInst::decode(regs_.crf(ppc_));

    if (inst.opcode == PimOpcode::Nop) {
        // Multi-cycle NOP: consumes imm0 triggers before advancing.
        if (stats_)
            stats_->add("pim.op.NOP");
        if (++nopConsumed_ >= std::max(1u, inst.imm0)) {
            nopConsumed_ = 0;
            ++ppc_;
        }
        return;
    }

    if (stats_) {
        stats_->add(std::string("pim.op.") + pimOpcodeName(inst.opcode));
        stats_->add("pim.opExec");
    }
    ++executed_;

    const unsigned s0 = effectiveIndex(inst, inst.src0Idx, inst.src0, col);
    const unsigned s1 = effectiveIndex(inst, inst.src1Idx, inst.src1, col);
    const unsigned d = effectiveIndex(inst, inst.dstIdx, inst.dst, col);

    switch (inst.opcode) {
      case PimOpcode::Mov:
      case PimOpcode::Fill: {
        LaneVector v =
            fetchOperand(inst.src0, s0, type, col, bus_data, false);
        if (inst.relu) {
            for (auto &lane : v)
                lane = fp16Relu(lane);
        }
        writeResult(inst.dst, d, col, v);
        break;
      }
      case PimOpcode::Add: {
        const LaneVector a =
            fetchOperand(inst.src0, s0, type, col, bus_data, false);
        const LaneVector b =
            fetchOperand(inst.src1, s1, type, col, bus_data, true);
        writeResult(inst.dst, d, col, rowAdd(config_.format, a, b));
        break;
      }
      case PimOpcode::Mul: {
        const LaneVector a =
            fetchOperand(inst.src0, s0, type, col, bus_data, false);
        const LaneVector b =
            fetchOperand(inst.src1, s1, type, col, bus_data, true);
        writeResult(inst.dst, d, col, rowMul(config_.format, a, b));
        break;
      }
      case PimOpcode::Mac: {
        // DST == SRC2: the destination register accumulates.
        const LaneVector a =
            fetchOperand(inst.src0, s0, type, col, bus_data, false);
        const LaneVector b =
            fetchOperand(inst.src1, s1, type, col, bus_data, true);
        const LaneVector acc =
            fetchOperand(inst.dst, d, type, col, bus_data, false);
        writeResult(inst.dst, d, col, rowMac(config_.format, a, b, acc));
        break;
      }
      case PimOpcode::Mad: {
        // SRC2 comes from SRF_A at the SRC1 index (Section III-C).
        const LaneVector a =
            fetchOperand(inst.src0, s0, type, col, bus_data, false);
        const LaneVector b =
            fetchOperand(inst.src1, s1, type, col, bus_data, true);
        const unsigned addend_idx =
            inst.aam ? col % config_.srfPerFile
                     : inst.src1Idx % config_.srfPerFile;
        if (regs_.srfPoisoned(1, addend_idx)) {
            regs_.consumeSrfPoison(1, addend_idx);
            noteExposure();
        }
        const LaneVector c = broadcast(regs_.srf(1, addend_idx));
        writeResult(inst.dst, d, col, rowMac(config_.format, a, b, c));
        break;
      }
      default:
        PIMSIM_PANIC("control opcode reached execute stage");
    }

    ++ppc_;
    // Pre-decode the next slot so zero-cycle JUMP/EXIT take effect
    // immediately (the fetch stage runs ahead of the next trigger).
    resolveControl();
}

} // namespace pimsim
