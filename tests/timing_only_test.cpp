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

#include <sstream>
#include <string>
#include <vector>

#include "host/host_model.h"
#include "reliability/fault_injector.h"
#include "reliability/sdc_monitor.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"
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
