/**
 * @file
 * Static configuration of the PIM execution units (Tables IV and V) and
 * the design-space-exploration variants of Section VII-D.
 */

#ifndef PIMSIM_PIM_PIM_CONFIG_H
#define PIMSIM_PIM_PIM_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace pimsim {

/**
 * Datapath number format. The product ships FP16 (Section III-C), but
 * Table I shows BFLOAT16 would be slightly smaller and more efficient;
 * the simulator supports both so the trade-off can be exercised.
 */
enum class PimNumberFormat
{
    Fp16,
    Bf16,
};

/** Design-space variants evaluated in Fig. 14. */
struct PimDseConfig
{
    /** PIM-HBM-2x: double the GRF/CRF resources (+24% die size). */
    bool doubleResources = false;
    /** PIM-HBM-2BA: one instruction may read EVEN and ODD bank at once. */
    bool twoBankAccess = false;
    /** PIM-HBM-SRW: a WR command delivers bus data and reads the bank. */
    bool simultaneousRdWr = false;

    bool any() const
    {
        return doubleResources || twoBankAccess || simultaneousRdWr;
    }
};

/** Configuration of one PIM execution unit and its per-pCH replication. */
struct PimConfig
{
    /** PIM execution units per pseudo channel (one per bank pair). */
    unsigned unitsPerPch = 8;
    /** CRF entries (32-bit instruction slots). */
    unsigned crfEntries = 32;
    /** GRF registers per half (GRF_A and GRF_B each; 256-bit registers). */
    unsigned grfPerHalf = 8;
    /** SRF registers per file (SRF_M and SRF_A each; 16-bit registers). */
    unsigned srfPerFile = 8;
    /** SIMD lanes (FP16). */
    unsigned lanes = 16;
    /** Execution pipeline depth (Section IV-B). */
    unsigned pipelineStages = 5;

    /** SIMD lane number format (the product uses FP16). */
    PimNumberFormat format = PimNumberFormat::Fp16;

    /**
     * HBM3-generation fine-grained mode interleaving (Section VIII
     * future work): SB <-> AB-PIM transitions through the PIM_OP_MODE
     * register alone, without the ABMR/SBMR ACT+PRE sequences. Cuts the
     * per-kernel-invocation overhead that limits decoder-style layers
     * and enables collaborative host+PIM execution.
     */
    bool fastModeSwitch = false;

    PimConfig withFastModeSwitch() const
    {
        PimConfig c = *this;
        c.fastModeSwitch = true;
        return c;
    }

    PimDseConfig dse;

    PimConfig withBf16() const
    {
        PimConfig c = *this;
        c.format = PimNumberFormat::Bf16;
        return c;
    }

    /** Apply the 2x-resources variant. */
    PimConfig withDoubleResources() const
    {
        PimConfig c = *this;
        c.dse.doubleResources = true;
        c.crfEntries *= 2;
        c.grfPerHalf *= 2;
        c.srfPerFile *= 2;
        return c;
    }

    PimConfig withTwoBankAccess() const
    {
        PimConfig c = *this;
        c.dse.twoBankAccess = true;
        return c;
    }

    PimConfig withSimultaneousRdWr() const
    {
        PimConfig c = *this;
        c.dse.simultaneousRdWr = true;
        return c;
    }

    /**
     * AAM reorder window: the number of consecutive column commands that
     * may execute out of order (Section IV-C: limited by the GRF depth;
     * the host fences every `aamWindow` commands).
     */
    unsigned aamWindow() const { return grfPerHalf; }

    // ----- Table IV published constants (for the spec benches) -----

    /** Logic gate count of one execution unit. */
    static constexpr unsigned kGateCount = 200000;
    /** Area of one execution unit in mm^2 (20 nm DRAM process). */
    static constexpr double kAreaMm2 = 0.712;
    /** Peak throughput of one unit at the given core frequency. */
    static double unitGflops(double core_ghz, unsigned lanes)
    {
        // One FP16 multiply + one FP16 add per lane per core cycle.
        return core_ghz * lanes * 2.0;
    }
};

/**
 * Reserved rows inside every bank used as the PIM_CONF space (Fig. 3).
 *
 * The register map (CRF words, GRF, SRF files, PIM_OP_MODE) occupies a
 * flat column space spread over configRow and, when the 2x-resources
 * variant needs more than 32 columns, configRow2.
 */
struct PimConfMap
{
    unsigned configRow;  ///< register-mapped row (CRF/GRF/SRF/PIM_OP_MODE)
    unsigned abmrRow;    ///< ACT+PRE here enters AB mode
    unsigned sbmrRow;    ///< ACT+PRE here returns to SB mode
    unsigned configRow2; ///< overflow register-map row (2x variant)

    static PimConfMap forRows(unsigned rows_per_bank)
    {
        return {rows_per_bank - 1, rows_per_bank - 2, rows_per_bank - 3,
                rows_per_bank - 4};
    }

    bool isConfigRow(unsigned row) const
    {
        return row == configRow || row == configRow2;
    }

    /** First row index reserved for PIM configuration. */
    unsigned firstReservedRow() const { return configRow2; }
};

} // namespace pimsim

#endif // PIMSIM_PIM_PIM_CONFIG_H
