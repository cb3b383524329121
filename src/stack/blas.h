/**
 * @file
 * PIM BLAS (Section V-A): the user-facing linear-algebra library.
 *
 * Each function places operands in the PIM region with a PIM-friendly
 * layout (Section VIII, Fig. 15), generates the per-channel microkernel
 * and command program, runs it on the simulated system (cycle-accurate,
 * functionally exact), and returns both the numerical result and the
 * measured execution time. Users call gemv()/add()/... without knowing
 * anything about banks, rows or PIM instructions — exactly the role the
 * paper assigns to PIM BLAS on top of the PIM runtime.
 */

#ifndef PIMSIM_STACK_BLAS_H
#define PIMSIM_STACK_BLAS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fp16.h"
#include "dram/datastore.h"
#include "pim/isa.h"
#include "stack/driver.h"
#include "stack/pim_program.h"

namespace pimsim {

class SdcMonitor;
class TraceSession;

/** Timing and traffic results of one PIM BLAS call. */
struct BlasTiming
{
    double ns = 0.0;            ///< kernel execution time (command stream)
    double readbackNs = 0.0;    ///< host result readback / reduction time
    std::uint64_t commands = 0; ///< DRAM column/row requests issued
    std::uint64_t fences = 0;   ///< barriers executed

    // Device activity during the kernel (energy-model inputs).
    std::uint64_t acts = 0;          ///< bank activations
    std::uint64_t pimTriggers = 0;   ///< AB-PIM column commands
    std::uint64_t pimBankAccesses = 0;
    std::uint64_t pimOps = 0;        ///< executed PIM instructions

    // Reliability outcome of the call.
    unsigned retries = 0;        ///< PIM re-executions after reported errors
    bool hostFallback = false;   ///< result came from the host golden path
    std::uint64_t eccCorrected = 0;     ///< ECC corrections observed
    std::uint64_t eccUncorrectable = 0; ///< uncorrectable ECC events seen

    // ABFT outcome of the call (GEMV with setAbft(true) only).
    std::uint64_t abftChecks = 0;     ///< checksum-verified (ch, unit) tiles
    std::uint64_t abftMismatches = 0; ///< tiles whose checksum band tripped
    std::uint64_t abftUnverifiable = 0; ///< tiles with saturated partials
    std::uint64_t sdcConfirmed = 0;   ///< tiles golden-confirmed corrupted
    std::uint64_t sdcFalseAlarms = 0; ///< tripped tiles golden found clean
    double abftNs = 0.0;              ///< checksum verification time

    double totalNs() const { return ns + readbackNs + abftNs; }
};

/** Vector of FP16 values (host-side view of a tensor). */
using Fp16Vector = std::vector<Fp16>;

/**
 * The PIM BLAS library bound to one PIM-HBM system.
 *
 * Calls are synchronous: on return the result vector holds the values
 * the PIM units produced (read back from simulated DRAM), and timing
 * reflects the full command-level execution including mode transitions,
 * CRF setup and fences.
 *
 * On a timing-only system (PimConfig::functional off) every call issues
 * the same commands and returns the same BlasTiming, but stages no
 * operands and reads nothing back: gemv/add/mul/relu/bn return
 * zero-filled outputs, and gemv also accepts empty w and x (only m and
 * n matter). ABFT and an SdcMonitor need real values and are rejected.
 */
class PimBlas
{
  public:
    explicit PimBlas(PimSystem &system);

    /** out[i] = a[i] + b[i] (element-wise; Fig. 15 layout). */
    BlasTiming add(const Fp16Vector &a, const Fp16Vector &b, Fp16Vector &out);

    /** out[i] = a[i] * b[i] (element-wise). */
    BlasTiming mul(const Fp16Vector &a, const Fp16Vector &b, Fp16Vector &out);

    /** out[i] = max(a[i], 0) via MOV(ReLU). */
    BlasTiming relu(const Fp16Vector &a, Fp16Vector &out);

    /**
     * Batch-norm inference: out[i] = a[i] * gamma[g] + beta[g] where g
     * cycles through groups of 8 scalars held in SRF_M/SRF_A (MAD path).
     */
    BlasTiming bn(const Fp16Vector &a, const Fp16Vector &gamma,
                  const Fp16Vector &beta, Fp16Vector &out);

    /**
     * General matrix-vector product: y = W x with W row-major (M x N).
     * Weights are resident in the PIM region (preloaded untimed, like an
     * inference-time weight map); x streams in over the write bus; y
     * partial sums are reduced on the host.
     */
    BlasTiming gemv(const Fp16Vector &w, unsigned m, unsigned n,
                    const Fp16Vector &x, Fp16Vector &y);

    PimDriver &driver() { return driver_; }
    PimSystem &system() { return system_; }

    /**
     * Disable the per-window barriers (the Section VII-B study of a
     * controller that guarantees DRAM command order in PIM mode). The
     * prologue/epilogue synchronisation fences are kept.
     */
    void setUseFences(bool use) { useFences_ = use; }
    bool useFences() const { return useFences_; }

    /**
     * PIM re-execution budget when a kernel's output is suspect (a unit
     * faulted on a corrupted CRF, or uncorrectable ECC errors were
     * reported during execution). After this many retries the call
     * recomputes on the host golden path and flags hostFallback.
     */
    void setMaxRetries(unsigned retries) { maxRetries_ = retries; }
    unsigned maxRetries() const { return maxRetries_; }

    /**
     * Record each BLAS call as a kernel span on the runtime track of a
     * Chrome-trace session (nullptr disables). Spans sit on the
     * system's real device clock, so they line up with the per-channel
     * command spans.
     */
    void setTrace(TraceSession *session) { trace_ = session; }

    /**
     * Enable algorithm-based fault tolerance on GEMV: every (channel,
     * unit) tile's output sum is verified against the tile's checksum
     * row dotted with x inside an fp16-derived tolerance band. A tripped
     * tile is re-run on the host golden path to confirm; confirmed SDCs
     * replace the result with the golden values (the call never returns
     * a silently wrong result beyond the band) and are attributed to
     * their (channel, unit) at the attached SdcMonitor.
     */
    void setAbft(bool on);
    bool abft() const { return abft_; }

    /** Attribution sink for verified tile outcomes (nullptr detaches;
     *  not owned, must outlive the BLAS instance or be detached). */
    void setSdcMonitor(SdcMonitor *monitor);

  private:
    /** Emit a kernel span [start_ns, now) if tracing is on. */
    void traceKernel(const std::string &name, double start_ns);
    /** Element-wise kernels share one engine (op selects the ALU). */
    BlasTiming elementwise(PimOpcode op, bool relu_move, const Fp16Vector &a,
                           const Fp16Vector *b, Fp16Vector &out);

    /** Common program prologue: SB -> AB, load CRF/SRF, PIM_OP_MODE=1. */
    void appendPrologue(ProgramBuilder &builder,
                        const std::vector<PimInst> &microkernel,
                        const Burst *srf_m, const Burst *srf_a);

    /** Common epilogue: PIM_OP_MODE=0, AB -> SB. */
    void appendEpilogue(ProgramBuilder &builder);

    /** Host golden computation for an element-wise call (fallback). */
    void elementwiseGolden(PimOpcode op, bool relu_move, const Fp16Vector &a,
                           const Fp16Vector *b, Fp16Vector &out) const;

    /** True if any channel's PIM logic reports a faulted unit. */
    bool anyUnitFaulted() const;

    /**
     * ABFT verification of a GEMV result: per-tile checksum compare,
     * golden confirmation of tripped tiles, correction of confirmed
     * SDCs in `y`, outcome attribution at the SdcMonitor.
     */
    void abftVerifyGemv(const Fp16Vector &w, unsigned m, unsigned n,
                        const Fp16Vector &x, Fp16Vector &y,
                        unsigned blocks, BlasTiming &timing);

    PimSystem &system_;
    PimDriver driver_;
    bool useFences_ = true;
    unsigned maxRetries_ = 2;
    bool abft_ = false;
    SdcMonitor *sdcMonitor_ = nullptr;
    TraceSession *trace_ = nullptr;

    /** SRF file payloads staged for the next kernel prologue (BN). */
    std::optional<Burst> srfM_;
    std::optional<Burst> srfA_;

    // Cached channel-0 PIM layout (identical on every channel).
    unsigned configRow_;
    unsigned abmrRow_;
    unsigned sbmrRow_;
};

} // namespace pimsim

#endif // PIMSIM_STACK_BLAS_H
