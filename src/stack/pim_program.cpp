#include "stack/pim_program.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim {

void
ProgramBuilder::push(const MemRequest &request)
{
    MemRequest r = request;
    r.id = nextId_++;
    r.ordered = true;
    program_.push_back(PimStep{r, false});
}

void
ProgramBuilder::activate(unsigned row, unsigned bg, unsigned bank)
{
    MemRequest r;
    r.type = RequestType::Activate;
    r.coord.bankGroup = bg;
    r.coord.bank = bank;
    r.coord.row = row;
    push(r);
}

void
ProgramBuilder::precharge(unsigned bg, unsigned bank)
{
    MemRequest r;
    r.type = RequestType::Precharge;
    r.coord.bankGroup = bg;
    r.coord.bank = bank;
    push(r);
}

void
ProgramBuilder::prechargeAll()
{
    MemRequest r;
    r.type = RequestType::PrechargeAll;
    push(r);
}

void
ProgramBuilder::read(unsigned row, unsigned col, unsigned bg, unsigned bank)
{
    MemRequest r;
    r.type = RequestType::Read;
    r.coord.bankGroup = bg;
    r.coord.bank = bank;
    r.coord.row = row;
    r.coord.col = col;
    push(r);
}

void
ProgramBuilder::write(unsigned row, unsigned col, const Burst &data,
                      unsigned bg, unsigned bank)
{
    MemRequest r;
    r.type = RequestType::Write;
    r.coord.bankGroup = bg;
    r.coord.bank = bank;
    r.coord.row = row;
    r.coord.col = col;
    r.data = data;
    push(r);
}

void
ProgramBuilder::fence()
{
    PIMSIM_ASSERT(!program_.empty(), "fence on empty program");
    program_.back().fenceAfter = true;
}

namespace {

/** Per-channel issue state during a run. */
struct ChannelState
{
    std::size_t cursor = 0;        ///< next step to enqueue
    std::uint64_t inflight = 0;    ///< enqueued, not yet completed
    bool fencePending = false;     ///< stop enqueueing until drained
    Cycle fenceRelease = kNoCycle; ///< cycle the fence lifts
};

} // namespace

static PimRunResult
runChannelPrograms(PimSystem &system,
                   const std::vector<const ChannelProgram *> &programs,
                   bool collect_reads)
{
    const unsigned channels = static_cast<unsigned>(programs.size());
    PIMSIM_ASSERT(channels <= system.numChannels(),
                  "program spans more channels than the system has");

    const Cycle start = system.now();
    const Cycle fence_cycles =
        system.nsToCycles(system.config().host.fenceNs);

    PimRunResult result;
    for (const auto *p : programs) {
        result.commands += p->size();
        for (const auto &s : *p)
            result.fences += s.fenceAfter ? 1 : 0;
    }
    if (collect_reads)
        result.reads.resize(channels);

    std::vector<ChannelState> state(channels);

    auto all_done = [&]() {
        for (unsigned ch = 0; ch < channels; ++ch) {
            const auto &s = state[ch];
            if (s.cursor < programs[ch]->size() || s.inflight > 0 ||
                s.fencePending) {
                return false;
            }
        }
        return true;
    };

    while (!all_done()) {
        // Drain completions and release fences.
        for (unsigned ch = 0; ch < channels; ++ch) {
            auto &s = state[ch];
            auto responses = system.drain(ch);
            for (auto &r : responses) {
                PIMSIM_ASSERT(s.inflight > 0, "stray response");
                --s.inflight;
                if (collect_reads && r.type == RequestType::Read)
                    result.reads[ch].push_back(std::move(r));
            }
            if (s.fencePending) {
                if (s.fenceRelease == kNoCycle && s.inflight == 0)
                    s.fenceRelease = system.now() + fence_cycles;
                if (s.fenceRelease != kNoCycle &&
                    system.now() >= s.fenceRelease) {
                    s.fencePending = false;
                    s.fenceRelease = kNoCycle;
                }
            }
        }

        // Enqueue as much as backpressure and fences allow.
        for (unsigned ch = 0; ch < channels; ++ch) {
            auto &s = state[ch];
            const auto &prog = *programs[ch];
            while (!s.fencePending && s.cursor < prog.size()) {
                const PimStep &step = prog[s.cursor];
                if (!system.tryEnqueue(ch, step.request))
                    break;
                ++s.cursor;
                ++s.inflight;
                if (step.fenceAfter)
                    s.fencePending = true;
            }
        }

        if (system.allIdle()) {
            // Everything in flight has completed; we are waiting on a
            // fence release (or the final drain). Jump the clock.
            Cycle target = kNoCycle;
            for (const auto &s : state) {
                if (s.fencePending && s.fenceRelease != kNoCycle)
                    target = std::min(target, s.fenceRelease);
            }
            if (target == kNoCycle) {
                // Completion cycles can trail the controllers going idle
                // by the read latency; nudge time forward.
                bool anything_left = false;
                for (const auto &s : state)
                    anything_left |= s.inflight > 0;
                if (!anything_left)
                    continue; // cursors blocked on fences resolved above
                system.advance(1);
            } else {
                system.advance(target - system.now());
            }
        } else {
            system.step();
        }
    }

    result.cycles = system.now() - start;
    result.ns = static_cast<double>(result.cycles) * system.nsPerCycle();
    return result;
}

PimRunResult
runPimProgram(PimSystem &system, const PimProgram &program,
              bool collect_reads)
{
    std::vector<const ChannelProgram *> programs;
    programs.reserve(program.perChannel.size());
    for (const auto &p : program.perChannel)
        programs.push_back(&p);
    return runChannelPrograms(system, programs, collect_reads);
}

PimRunResult
runPimProgramReplicated(PimSystem &system, const ChannelProgram &program,
                        unsigned channels, bool collect_reads)
{
    // Every channel of a symmetric system would step through exactly
    // channel 0's states: simulate channel 0 and mirror it (DESIGN.md
    // §16).
    if (channels == system.numChannels() && system.beginReplay()) {
        PimRunResult result =
            runChannelPrograms(system, {&program}, collect_reads);
        system.endReplay();
        result.commands *= channels;
        result.fences *= channels;
        if (collect_reads) {
            const std::vector<MemResponse> channel0 = result.reads.front();
            result.reads.assign(channels, channel0);
        }
        return result;
    }
    std::vector<const ChannelProgram *> programs(channels, &program);
    return runChannelPrograms(system, programs, collect_reads);
}

} // namespace pimsim
