/**
 * @file
 * Evaluation workloads: the Table VI microbenchmarks and the five
 * end-to-end applications of Section VII-A, described as layer graphs.
 */

#ifndef PIMSIM_STACK_WORKLOADS_H
#define PIMSIM_STACK_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pimsim {

/** Microbenchmark kinds. */
enum class MicroKind
{
    Gemv, ///< vector-matrix multiplication
    Add,  ///< element-wise addition (residual connections)
    Bn,   ///< batch normalisation (Fig. 14 only)
};

/** One Table VI microbenchmark. */
struct MicroSpec
{
    std::string name;
    MicroKind kind;
    unsigned m = 0;            ///< GEMV rows
    unsigned n = 0;            ///< GEMV cols
    std::uint64_t elements = 0; ///< element-wise length
};

/** GEMV1-4 and ADD1-4 exactly as in Table VI. */
std::vector<MicroSpec> table6Microbenchmarks();

/** The BN microbenchmarks used by Fig. 14 (same sizes as ADD). */
std::vector<MicroSpec> bnMicrobenchmarks();

// ---------------------------------------------------------------------
// Application layer graphs (Section VII-A).
// ---------------------------------------------------------------------

/** One layer invocation pattern. */
struct LayerSpec
{
    enum class Kind
    {
        Conv,      ///< compute-bound convolution (host only)
        Lstm,      ///< LSTM layer: gate GEMVs + element-wise ops
        Fc,        ///< fully connected (GEMV)
        Residual,  ///< element-wise addition (skip connection)
        BatchNorm, ///< element-wise scale+shift
    };

    Kind kind;
    /** Conv: MAC count (per sample). */
    double flops = 0.0;
    /** Lstm/Fc: weight shape. Lstm uses hidden/input sizes. */
    unsigned hidden = 0;
    unsigned input = 0;
    /** Lstm: timesteps; others: invocation count. */
    unsigned steps = 1;
    /**
     * Lstm: inputs to all steps available up-front (encoder-style), so
     * the input-side GEMM batches across steps into a single kernel
     * call. Decoder-style layers (GNMT) must launch per step.
     */
    bool inputsAvailable = true;
    /** Element-wise length per invocation. */
    std::uint64_t elements = 0;
    /** True if the paper's system accelerates this layer on PIM. */
    bool pimEligible = true;

    bool operator==(const LayerSpec &) const = default;
};

/** An application: ordered layers plus bookkeeping. */
struct AppSpec
{
    std::string name;
    std::vector<LayerSpec> layers;
};

/** Baidu DeepSpeech2: 2 conv + 6 bidirectional LSTM + FC (VII-A). */
AppSpec ds2App();
/** Google RNN-Transducer (MLPerf variant): 5+2 LSTM + 2 FC joint. */
AppSpec rnntApp();
/** GNMT: 8 LSTM encoders + 8 LSTM decoders + attention. */
AppSpec gnmtApp();
/** AlexNet: 5 conv + 3 FC. */
AppSpec alexnetApp();
/** ResNet-50: convolution-dominated; PIM not applied (Fig. 10). */
AppSpec resnet50App();

/** All five applications in the paper's presentation order. */
std::vector<AppSpec> allApps();

} // namespace pimsim

#endif // PIMSIM_STACK_WORKLOADS_H
