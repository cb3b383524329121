/**
 * @file
 * PIM execution unit register files (Section IV-A).
 *
 * CRF: 32 x 32-bit instruction slots (the microkernel buffer).
 * GRF: 16 x 256-bit vector registers, split into GRF_A (even bank) and
 *      GRF_B (odd bank) halves of 8 each.
 * SRF: 16 x 16-bit scalar registers, split into SRF_M (multiplicands)
 *      and SRF_A (addends) of 8 each; a scalar is broadcast to all lanes.
 */

#ifndef PIMSIM_PIM_REGISTERS_H
#define PIMSIM_PIM_REGISTERS_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/fp16.h"
#include "common/types.h"
#include "dram/datastore.h"
#include "pim/pim_config.h"

namespace pimsim {

/** One 256-bit vector value: 16 FP16 lanes. */
using LaneVector = std::array<Fp16, kSimdLanes>;

/** Convert a raw 32-byte burst to 16 FP16 lanes (little-endian). */
LaneVector burstToLanes(const Burst &burst);

/** Convert 16 FP16 lanes to a raw 32-byte burst. */
Burst lanesToBurst(const LaneVector &lanes);

/** Broadcast one scalar to all lanes. */
LaneVector broadcast(Fp16 value);

/** The register state of one PIM execution unit. */
class PimRegisterFile
{
  public:
    explicit PimRegisterFile(const PimConfig &config);

    /** Reset every register to zero. */
    void reset();

    // CRF (instruction) access.
    std::uint32_t crf(unsigned index) const;
    void setCrf(unsigned index, std::uint32_t word);
    unsigned crfEntries() const { return static_cast<unsigned>(crf_.size()); }
    /**
     * Bumped by every CRF change (reset, setCrf, flipCrfBit), so a
     * sequencer can tell whether an instruction it decoded ahead of the
     * next trigger is still the word in the slot.
     */
    std::uint64_t crfVersion() const { return crfVersion_; }

    // GRF access (half: 0 == GRF_A, 1 == GRF_B).
    const LaneVector &grf(unsigned half, unsigned index) const;
    void setGrf(unsigned half, unsigned index, const LaneVector &value);
    unsigned grfPerHalf() const { return grfPerHalf_; }

    // SRF access (file: 0 == SRF_M, 1 == SRF_A).
    Fp16 srf(unsigned file, unsigned index) const;
    void setSrf(unsigned file, unsigned index, Fp16 value);
    unsigned srfPerFile() const { return srfPerFile_; }

    /** Read a whole SRF file as one burst (registers packed low-first). */
    Burst srfFileAsBurst(unsigned file) const;
    /** Load a whole SRF file from one burst. */
    void loadSrfFile(unsigned file, const Burst &data);

    // Fault injection (reliability campaigns). Unlike the DRAM arrays,
    // the register files have no ECC, so a flipped bit persists until the
    // register is next written.
    /** Flip one bit of a 32-bit CRF instruction slot. */
    void flipCrfBit(unsigned index, unsigned bit);
    /** Flip one bit of a GRF register (bit indexes the 256-bit value). */
    void flipGrfBit(unsigned half, unsigned index, unsigned bit);
    /** Flip one bit of a 16-bit SRF register. */
    void flipSrfBit(unsigned file, unsigned index, unsigned bit);

    // Poison tracking (SDC ground truth). A flip marks its register
    // poisoned; an overwrite clears the mark unconsumed (the fault was
    // masked). The datapath consumes the mark on first read of a still-
    // poisoned register — that is the moment a plant becomes a real
    // silent-data-corruption exposure (see PimUnit::sdcExposed()).
    bool grfPoisoned(unsigned half, unsigned index) const;
    bool srfPoisoned(unsigned file, unsigned index) const;
    bool crfPoisoned(unsigned index) const;
    /** Clear the poison mark after counting one exposure. */
    void consumeGrfPoison(unsigned half, unsigned index);
    void consumeSrfPoison(unsigned file, unsigned index);
    void consumeCrfPoison(unsigned index);

  private:
    unsigned grfPerHalf_;
    unsigned srfPerFile_;
    std::vector<std::uint32_t> crf_;
    std::uint64_t crfVersion_ = 0;
    std::vector<LaneVector> grfA_;
    std::vector<LaneVector> grfB_;
    std::vector<Fp16> srfM_;
    std::vector<Fp16> srfA_;
    // One poison flag per register (not per bit): any unconsumed flip
    // taints the whole value until it is overwritten or read.
    std::vector<std::uint8_t> crfPoison_;
    std::vector<std::uint8_t> grfPoisonA_;
    std::vector<std::uint8_t> grfPoisonB_;
    std::vector<std::uint8_t> srfPoisonM_;
    std::vector<std::uint8_t> srfPoisonA_;
};

} // namespace pimsim

#endif // PIMSIM_PIM_REGISTERS_H
