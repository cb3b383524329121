/**
 * @file
 * PIM kernel programs and their execution against the simulated system.
 *
 * A PimProgram is, per channel, the ordered list of memory requests the
 * host's thread groups emit (Section V-B: one thread group per channel,
 * lock-step, barriers between ordered windows). The runner executes all
 * channels concurrently with fence semantics: after a step marked
 * `fenceAfter`, the channel stalls until every outstanding request has
 * completed plus the fence overhead, modelling the per-8-command barriers
 * that Section VII-B identifies as the main PIM overhead.
 */

#ifndef PIMSIM_STACK_PIM_PROGRAM_H
#define PIMSIM_STACK_PIM_PROGRAM_H

#include <cstdint>
#include <vector>

#include "mem/request.h"
#include "sim/system.h"

namespace pimsim {

/** One host-issued request plus an optional trailing barrier. */
struct PimStep
{
    MemRequest request;
    bool fenceAfter = false;
};

/** One channel's ordered request stream. */
using ChannelProgram = std::vector<PimStep>;

/** A whole-kernel program across every channel. */
struct PimProgram
{
    std::vector<ChannelProgram> perChannel;

    explicit PimProgram(unsigned channels = 0) : perChannel(channels) {}

    std::uint64_t totalSteps() const
    {
        std::uint64_t total = 0;
        for (const auto &p : perChannel)
            total += p.size();
        return total;
    }

    std::uint64_t totalFences() const
    {
        std::uint64_t total = 0;
        for (const auto &p : perChannel)
            for (const auto &s : p)
                total += s.fenceAfter ? 1 : 0;
        return total;
    }
};

/** Result of running a program. */
struct PimRunResult
{
    Cycle cycles = 0;          ///< start-to-drain bus cycles
    double ns = 0.0;           ///< same, in nanoseconds
    std::uint64_t commands = 0;
    std::uint64_t fences = 0;
    /** Read responses per channel, in completion order. */
    std::vector<std::vector<MemResponse>> reads;
};

/** Execute a program on the system; advances the system clock. */
PimRunResult runPimProgram(PimSystem &system, const PimProgram &program,
                           bool collect_reads = false);

/**
 * Execute the same channel program on the first `channels` channels
 * (the common case: every channel runs an identical command structure,
 * differing only in resident bank data). Avoids materialising N copies.
 * Covering every channel of a symmetric timing-only system, the run is
 * simulated on channel 0 alone and mirrored (PimSystem::beginReplay);
 * the result is the same either way.
 */
PimRunResult runPimProgramReplicated(PimSystem &system,
                                     const ChannelProgram &program,
                                     unsigned channels,
                                     bool collect_reads = false);

/** Helpers for building channel programs. */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(ChannelProgram &program) : program_(program) {}

    void activate(unsigned row, unsigned bg = 0, unsigned bank = 0);
    void precharge(unsigned bg = 0, unsigned bank = 0);
    void prechargeAll();
    void read(unsigned row, unsigned col, unsigned bg = 0,
              unsigned bank = 0);
    void write(unsigned row, unsigned col, const Burst &data,
               unsigned bg = 0, unsigned bank = 0);
    /** Mark a barrier after the most recent step. */
    void fence();

  private:
    void push(const MemRequest &request);

    ChannelProgram &program_;
    std::uint64_t nextId_ = 0;
};

} // namespace pimsim

#endif // PIMSIM_STACK_PIM_PROGRAM_H
