/**
 * @file
 * Timing-only tier (PimConfig::functional off): the equivalence gate
 * against the functional datapath, and the uses it rejects.
 *
 * PIM latency depends only on the command stream, so a timing-only
 * system must report exactly what a functional one does: every
 * AppRunResult field and every stats counter of every channel, for
 * every application and microbenchmark under every PIM variant.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/trace.h"
#include "host/host_model.h"
#include "reliability/fault_injector.h"
#include "reliability/sdc_monitor.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"
#include "stack/pim_program.h"
#include "stack/workloads.h"

namespace pimsim {
namespace {

/** A shard-sized (one stack, 16 pseudo channels) PIM-HBM system. */
SystemConfig
shardConfig(const PimConfig &pim, bool functional)
{
    SystemConfig c = SystemConfig::pimHbmSystem();
    c.numStacks = 1;
    c.pim = pim;
    c.pim.functional = functional;
    return c;
}

struct Variant
{
    std::string name;
    PimConfig pim;
};

void
PrintTo(const Variant &variant, std::ostream *os)
{
    *os << variant.name;
}

std::vector<Variant>
variants()
{
    const PimConfig base;
    return {
        {"Default", base},
        {"DoubleResources", base.withDoubleResources()},
        {"TwoBankAccess", base.withTwoBankAccess()},
        {"SimultaneousRdWr", base.withSimultaneousRdWr()},
        {"Bf16", base.withBf16()},
        {"FastModeSwitch", base.withFastModeSwitch()},
    };
}

/** Everything one pass over the workloads reports. */
struct Outcome
{
    std::vector<std::string> labels;
    std::vector<AppRunResult> results;
    std::string statsJson;
};

Outcome
runWorkloads(const SystemConfig &config)
{
    PimSystem system(config);
    HostModel host(system);
    PimBlas blas(system);
    AppRunner runner(host, &blas);
    Outcome out;
    for (const AppSpec &app : allApps()) {
        for (unsigned batch : {1u, 2u, 4u, 8u}) {
            out.labels.push_back(app.name + " b" + std::to_string(batch));
            out.results.push_back(runner.runApp(app, batch));
        }
    }
    std::vector<MicroSpec> micros = table6Microbenchmarks();
    for (const MicroSpec &bn : bnMicrobenchmarks())
        micros.push_back(bn);
    for (const MicroSpec &micro : micros) {
        out.labels.push_back(micro.name);
        out.results.push_back(runner.runMicro(micro, 1));
    }
    std::ostringstream os;
    system.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

void
expectSame(const AppRunResult &a, const AppRunResult &b,
           const std::string &where)
{
    SCOPED_TRACE(where);
    // Bit-exact: the same commands must give the same doubles.
    EXPECT_EQ(a.ns, b.ns);
    EXPECT_EQ(a.hostNs, b.hostNs);
    EXPECT_EQ(a.pimNs, b.pimNs);
    EXPECT_EQ(a.launchNs, b.launchNs);
    EXPECT_EQ(a.kernelLaunches, b.kernelLaunches);
    EXPECT_EQ(a.avgLlcMissRate, b.avgLlcMissRate);
    EXPECT_EQ(a.hostDramBytes, b.hostDramBytes);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.pimTriggers, b.pimTriggers);
    EXPECT_EQ(a.pimBankAccesses, b.pimBankAccesses);
    EXPECT_EQ(a.pimOps, b.pimOps);
    EXPECT_EQ(a.pimRetries, b.pimRetries);
    EXPECT_EQ(a.hostFallbacks, b.hostFallbacks);
    EXPECT_EQ(a.eccCorrected, b.eccCorrected);
    EXPECT_EQ(a.eccUncorrectable, b.eccUncorrectable);
}

class TimingOnlyEquivalence : public ::testing::TestWithParam<Variant>
{
};

TEST_P(TimingOnlyEquivalence, EveryResultAndCounterMatchesFunctional)
{
    const Outcome functional = runWorkloads(shardConfig(GetParam().pim, true));
    const Outcome timing = runWorkloads(shardConfig(GetParam().pim, false));
    ASSERT_EQ(functional.results.size(), timing.results.size());
    for (std::size_t i = 0; i < functional.results.size(); ++i)
        expectSame(functional.results[i], timing.results[i],
                   functional.labels[i]);
    // The JSON dump holds every channel's ctrl/pch/pim counter group.
    EXPECT_EQ(functional.statsJson, timing.statsJson);
    EXPECT_NE(functional.statsJson.find("\"pim.bankRead\""),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Fig14Variants, TimingOnlyEquivalence, ::testing::ValuesIn(variants()),
    [](const ::testing::TestParamInfo<Variant> &info) {
        return info.param.name;
    });

// ---------- Replay: channel 0 simulated, mirrored to the others ----------

/**
 * One workload on a fresh shard: an application at batches 1, 2, 4 and
 * 8, or one microbenchmark at batch 1.
 */
struct ReplayCase
{
    std::string name;
    const AppSpec *app = nullptr;
    MicroSpec micro;
};

void
PrintTo(const ReplayCase &c, std::ostream *os)
{
    *os << c.name;
}

/** True iff every layer that moves DRAM data runs on PIM. */
bool
pimOnly(const AppSpec &app)
{
    for (const LayerSpec &layer : app.layers) {
        if (layer.kind != LayerSpec::Kind::Conv && !layer.pimEligible)
            return false;
    }
    return true;
}

std::vector<ReplayCase>
replayCases()
{
    static const std::vector<AppSpec> apps = allApps();
    std::vector<ReplayCase> cases;
    for (const AppSpec &app : apps) {
        if (pimOnly(app))
            cases.push_back({app.name, &app, {}});
    }
    std::vector<MicroSpec> micros = table6Microbenchmarks();
    for (const MicroSpec &bn : bnMicrobenchmarks())
        micros.push_back(bn);
    for (const MicroSpec &micro : micros)
        cases.push_back({micro.name, nullptr, micro});
    return cases;
}

/** What one shard reports, and how many of its runs were replayed. */
struct ShardOutcome
{
    std::vector<AppRunResult> results;
    double streamNs = 0.0;
    std::string statsJson;
    std::uint64_t replayed = 0;
};

/** Run `c` on a fresh shard, then a host stream over every channel. */
ShardOutcome
runCase(const SystemConfig &config, const ReplayCase &c,
        TraceSession *trace = nullptr, bool stream_first = false)
{
    PimSystem system(config);
    system.setTraceSession(trace);
    HostModel host(system);
    PimBlas blas(system);
    AppRunner runner(host, &blas);
    ShardOutcome out;
    if (stream_first)
        out.streamNs += host.elementwise(1 << 16, 1 << 15).ns;
    if (c.app) {
        for (unsigned batch : {1u, 2u, 4u, 8u})
            out.results.push_back(runner.runApp(*c.app, batch));
    } else {
        out.results.push_back(runner.runMicro(c.micro, 1));
    }
    // The stream runs channels 1..N-1 on the full path from the state a
    // replay mirrored into them.
    out.streamNs += host.elementwise(1 << 20, 1 << 19).ns;
    out.replayed = system.replayedRuns();
    std::ostringstream os;
    system.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

void
expectSame(const ShardOutcome &functional, const ShardOutcome &timing,
           const std::string &where)
{
    ASSERT_EQ(functional.results.size(), timing.results.size());
    for (std::size_t i = 0; i < functional.results.size(); ++i)
        expectSame(functional.results[i], timing.results[i],
                   where + " run " + std::to_string(i));
    EXPECT_EQ(functional.streamNs, timing.streamNs) << where;
    EXPECT_EQ(functional.statsJson, timing.statsJson) << where;
}

class TimingOnlyReplay
    : public ::testing::TestWithParam<std::tuple<Variant, ReplayCase>>
{
};

TEST_P(TimingOnlyReplay, ReplayedRunsMatchFunctional)
{
    const auto &[variant, c] = GetParam();
    const ShardOutcome functional = runCase(shardConfig(variant.pim, true), c);
    const ShardOutcome timing = runCase(shardConfig(variant.pim, false), c);
    EXPECT_EQ(functional.replayed, 0u);
    EXPECT_GT(timing.replayed, 0u);
    expectSame(functional, timing, c.name);
}

INSTANTIATE_TEST_SUITE_P(
    Fig14Variants, TimingOnlyReplay,
    ::testing::Combine(::testing::ValuesIn(variants()),
                       ::testing::ValuesIn(replayCases())),
    [](const auto &info) {
        std::string name = std::get<0>(info.param).name + "_" +
                           std::get<1>(info.param).name;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

// A kernel's trailing precharge and SB exit leave every channel at rest,
// where stale bank rows, bank timers or PIM mode behave like the current
// ones. Programs that stop mid-kernel make each of them observable.

/**
 * Host-style reads over every bank: long enough to cross refreshes, and
 * ending with a row open in each bank.
 */
ChannelProgram
openRowsProgram()
{
    ChannelProgram prog;
    ProgramBuilder b(prog);
    for (unsigned i = 0; i < 4096; ++i) {
        const unsigned bank = i % 16;
        b.read(1 + (i / 256) % 8, i % 32, bank / 4, bank % 4);
    }
    return prog;
}

/** Enter AB-PIM mode and stop there, with the config row open. */
ChannelProgram
enterPimProgram(const PimChannel &pim)
{
    ChannelProgram prog;
    ProgramBuilder b(prog);
    b.prechargeAll();
    if (!pim.config().fastModeSwitch) {
        b.activate(pim.confMap().abmrRow);
        b.precharge();
        b.fence();
    }
    const auto [row, col] = pim.configAddr(pim.opModeCol());
    Burst on{};
    on[0] = 1;
    b.write(row, col, on);
    return prog;
}

/** A short continuation in AB-PIM mode: triggers on two data rows,
 *  then PIM_OP_MODE=0. It stops short of the SB exit, whose mode check
 *  would abort on a channel left in the wrong mode. */
ChannelProgram
continuationProgram(const PimChannel &pim)
{
    ChannelProgram prog;
    ProgramBuilder b(prog);
    for (unsigned i = 0; i < 32; ++i)
        b.read(i < 24 ? 8 : 9, i % 32, (i % 16) / 4, i % 4);
    const auto [row, col] = pim.configAddr(pim.opModeCol());
    b.write(row, col, Burst{});
    b.prechargeAll();
    b.fence();
    return prog;
}

/** Every channel's state as its public accessors show it. */
std::vector<std::string>
channelStates(PimSystem &system)
{
    std::vector<std::string> states;
    for (unsigned ch = 0; ch < system.numChannels(); ++ch) {
        const MemoryController &ctrl = system.controller(ch);
        const PseudoChannel &pch = ctrl.channel();
        std::ostringstream os;
        os << ctrl.queuedRequests() << ' ' << pch.modeLabel() << ' '
           << pimModeName(ctrl.pim()->mode());
        for (unsigned b = 0; b < pch.geometry().banksPerPch(); ++b) {
            const Bank &bank = pch.bank(b);
            os << " b" << static_cast<int>(bank.state) << ':'
               << bank.openRow << ':' << bank.nextAct << ':'
               << bank.nextPre << ':' << bank.nextRd << ':' << bank.nextWr;
        }
        for (unsigned u = 0; u < ctrl.pim()->numUnits(); ++u) {
            const PimUnit &unit = ctrl.pim()->unit(u);
            os << " u" << unit.ppc() << ':' << unit.halted() << ':'
               << unit.executedCount();
        }
        states.push_back(os.str());
    }
    return states;
}

/** Replicated programs that stop mid-kernel, each followed by a
 *  per-channel continuation on the full path. */
struct MidKernelOutcome
{
    std::vector<Cycle> cycles;
    std::vector<std::vector<std::string>> states;
    std::string statsJson;
    std::uint64_t replayed = 0;
};

MidKernelOutcome
runMidKernel(const SystemConfig &config)
{
    PimSystem system(config);
    const PimChannel &pim = *system.controller(0).pim();
    MidKernelOutcome out;
    auto replicated = [&](const ChannelProgram &prog) {
        out.cycles.push_back(
            runPimProgramReplicated(system, prog, system.numChannels())
                .cycles);
        out.states.push_back(channelStates(system));
    };
    auto per_channel = [&](const ChannelProgram &prog) {
        PimProgram program(system.numChannels());
        for (auto &p : program.perChannel)
            p = prog;
        out.cycles.push_back(runPimProgram(system, program).cycles);
        out.states.push_back(channelStates(system));
    };
    replicated(openRowsProgram());
    replicated(enterPimProgram(pim));
    out.replayed = system.replayedRuns();
    per_channel(continuationProgram(pim));
    std::ostringstream os;
    system.dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

class TimingOnlyReplayState : public ::testing::TestWithParam<Variant>
{
};

TEST_P(TimingOnlyReplayState, MidKernelStateIsMirrored)
{
    const MidKernelOutcome functional =
        runMidKernel(shardConfig(GetParam().pim, true));
    const MidKernelOutcome timing =
        runMidKernel(shardConfig(GetParam().pim, false));
    EXPECT_EQ(timing.replayed, 2u);
    EXPECT_EQ(functional.cycles, timing.cycles);
    ASSERT_EQ(functional.states.size(), timing.states.size());
    for (std::size_t i = 0; i < functional.states.size(); ++i)
        EXPECT_EQ(functional.states[i], timing.states[i]) << "after run " << i;
    EXPECT_EQ(functional.statsJson, timing.statsJson);
}

INSTANTIATE_TEST_SUITE_P(
    Fig14Variants, TimingOnlyReplayState, ::testing::ValuesIn(variants()),
    [](const ::testing::TestParamInfo<Variant> &info) {
        return info.param.name;
    });

/** The smallest Table VI GEMV: a cheap case for the fallback paths. */
ReplayCase
gemv1Case()
{
    for (const ReplayCase &c : replayCases()) {
        if (c.name == "GEMV1")
            return c;
    }
    PIMSIM_PANIC("no GEMV1 microbenchmark");
}

TEST(TimingOnlyReplayFallback, HostStreamBeforeTheFirstGemv)
{
    const ReplayCase c = gemv1Case();
    const ShardOutcome functional =
        runCase(shardConfig(PimConfig{}, true), c, nullptr, true);
    const ShardOutcome timing =
        runCase(shardConfig(PimConfig{}, false), c, nullptr, true);
    EXPECT_EQ(timing.replayed, 0u);
    expectSame(functional, timing, c.name);
}

TEST(TimingOnlyReplayFallback, TraceSessionAttached)
{
    const ReplayCase c = gemv1Case();
    TraceSession functional_trace, timing_trace;
    const ShardOutcome functional =
        runCase(shardConfig(PimConfig{}, true), c, &functional_trace);
    const ShardOutcome timing =
        runCase(shardConfig(PimConfig{}, false), c, &timing_trace);
    EXPECT_EQ(timing.replayed, 0u);
    expectSame(functional, timing, c.name);
    std::ostringstream f, t;
    functional_trace.write(f);
    timing_trace.write(t);
    EXPECT_EQ(f.str(), t.str());
}

TEST(TimingOnlyReplayFallback, ScrubEnabled)
{
    const ReplayCase c = gemv1Case();
    SystemConfig functional_config = shardConfig(PimConfig{}, true);
    SystemConfig timing_config = shardConfig(PimConfig{}, false);
    functional_config.controller.scrubEnabled = true;
    timing_config.controller.scrubEnabled = true;
    const ShardOutcome functional = runCase(functional_config, c);
    const ShardOutcome timing = runCase(timing_config, c);
    EXPECT_EQ(timing.replayed, 0u);
    expectSame(functional, timing, c.name);
}

// ---------- What a timing-only system returns ----------

TEST(TimingOnly, BlasReturnsZeroFilledOutputsWithFunctionalTiming)
{
    PimSystem functional_system(shardConfig(PimConfig{}, true));
    PimSystem timing_system(shardConfig(PimConfig{}, false));
    PimBlas functional(functional_system);
    PimBlas timing(timing_system);

    Fp16Vector w(256 * 512, Fp16(0.5f)), x(512, Fp16(1.0f)), y;
    const BlasTiming f = functional.gemv(w, 256, 512, x, y);
    EXPECT_NE(y[0].bits(), Fp16().bits());
    // Shape only: empty w and x stand in for the operands.
    const BlasTiming t = timing.gemv({}, 256, 512, {}, y);
    EXPECT_EQ(t.ns, f.ns);
    EXPECT_EQ(t.commands, f.commands);
    EXPECT_EQ(t.pimOps, f.pimOps);
    ASSERT_EQ(y.size(), 256u);
    for (const Fp16 &v : y)
        EXPECT_EQ(v.bits(), Fp16().bits());

    const Fp16Vector a(4096, Fp16(1.0f));
    Fp16Vector out;
    const BlasTiming fa = functional.add(a, a, out);
    const BlasTiming ta = timing.add(a, a, out);
    EXPECT_EQ(ta.ns, fa.ns);
    ASSERT_EQ(out.size(), a.size());
    for (const Fp16 &v : out)
        EXPECT_EQ(v.bits(), Fp16().bits());
}

// ---------- Uses that need operand bytes ----------

using TimingOnlyDeathTest = ::testing::Test;

TEST_F(TimingOnlyDeathTest, AbftIsRejected)
{
    EXPECT_DEATH(
        {
            PimSystem system(shardConfig(PimConfig{}, false));
            PimBlas blas(system);
            blas.setAbft(true);
        },
        "PimBlas ABFT needs operand bytes.*timing-only");
}

TEST_F(TimingOnlyDeathTest, FaultInjectorIsRejected)
{
    EXPECT_DEATH(
        {
            PimSystem system(shardConfig(PimConfig{}, false));
            FaultInjector injector(system, FaultRates{}, 1);
        },
        "a FaultInjector needs operand bytes.*timing-only");
}

TEST_F(TimingOnlyDeathTest, SdcMonitorIsRejected)
{
    EXPECT_DEATH(
        {
            PimSystem system(shardConfig(PimConfig{}, false));
            PimBlas blas(system);
            SdcMonitor monitor(system.numChannels(), 8, SdcMonitorConfig{});
            blas.setSdcMonitor(&monitor);
        },
        "an SdcMonitor needs operand bytes.*timing-only");
}

TEST_F(TimingOnlyDeathTest, PeekIsRejected)
{
    EXPECT_DEATH(
        {
            PimSystem system(shardConfig(PimConfig{}, false));
            PimDriver(system).peek(0, 0, 0, 0);
        },
        "PimDriver::peek needs operand bytes.*timing-only");
    EXPECT_DEATH(
        {
            PimSystem system(shardConfig(PimConfig{}, false));
            EccStatus ecc;
            PimDriver(system).peekChecked(0, 0, 0, 0, &ecc);
        },
        "PimDriver::peekChecked needs operand bytes.*timing-only");
}

TEST(TimingOnly, FunctionalSystemsAcceptTheSameUses)
{
    PimSystem system(shardConfig(PimConfig{}, true));
    PimBlas blas(system);
    blas.setAbft(true);
    SdcMonitor monitor(system.numChannels(), 8, SdcMonitorConfig{});
    blas.setSdcMonitor(&monitor);
    blas.setSdcMonitor(nullptr);
    FaultInjector injector(system, FaultRates{}, 1);
    EXPECT_EQ(blas.driver().peek(0, 0, 0, 0), Burst{});
}

} // namespace
} // namespace pimsim
