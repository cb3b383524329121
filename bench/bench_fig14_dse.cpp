/**
 * @file
 * Fig. 14: design-space exploration of three enhanced PIM
 * microarchitectures that did not fit the product constraints
 * (Section VII-D), evaluated like the paper with a DRAMSim2-style
 * upper-bound methodology (no host compute/launch costs modelled):
 *
 *  - PIM-HBM-2x:  double CRF/GRF/SRF resources (+24% die size)
 *  - PIM-HBM-2BA: one instruction reads EVEN and ODD bank at once
 *  - PIM-HBM-SRW: simultaneous column RD and WR (write-bus operand)
 *
 * Paper: ~40% / ~20% / ~10% geo-mean gain over PIM-HBM respectively;
 * 2BA helps ADD most, SRW helps GEMV (~25%).
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>

#include "bench_common.h"
#include "stack/workloads.h"

using namespace pimsim;
using namespace pimsim::bench;

namespace {

struct DseRow
{
    std::string workload;
    // variant name -> speedup over the HBM baseline
    std::map<std::string, double> speedup;
};

std::vector<DseRow> g_rows;
std::map<std::string, double> g_geomean; // variant -> gain over base PIM

/**
 * Upper-bound PIM kernel time: no host compute or launch overheads are
 * charged (the paper's DRAMSim2 methodology), but the AAM-window
 * synchronisation stays — it is an architectural property of driving
 * PIM through an unmodified host, and it is exactly what the 2x
 * variant's deeper GRF relaxes. The setups are timing-only, so the
 * operands carry only their shapes (zero values, empty GEMV inputs).
 */
double
pimUpperBoundNs(Setup &setup, const MicroSpec &micro)
{
    Fp16Vector out;
    if (micro.kind == MicroKind::Gemv)
        return setup.blas->gemv({}, micro.m, micro.n, {}, out).ns;
    const Fp16Vector a(micro.elements);
    if (micro.kind == MicroKind::Add)
        return setup.blas->add(a, a, out).ns;
    const Fp16Vector scalars(8);
    return setup.blas->bn(a, scalars, scalars, out).ns;
}

void
runFig14()
{
    setQuiet(true);
    Setup hbm = makeSetup(SystemConfig::hbmSystem());

    std::map<std::string, SystemConfig> variants;
    variants["PIM-HBM"] = SystemConfig::pimHbmSystem();
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withDoubleResources();
        variants["PIM-HBM-2x"] = c;
    }
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withTwoBankAccess();
        variants["PIM-HBM-2BA"] = c;
    }
    {
        SystemConfig c = SystemConfig::pimHbmSystem();
        c.pim = c.pim.withSimultaneousRdWr();
        variants["PIM-HBM-SRW"] = c;
    }

    std::vector<MicroSpec> workloads = table6Microbenchmarks();
    for (const auto &bn : bnMicrobenchmarks())
        workloads.push_back(bn);

    std::map<std::string, Setup> setups;
    for (const auto &[name, cfg] : variants)
        setups.emplace(name, makeSetup(cfg));

    std::map<std::string, std::vector<double>> gains;
    for (const auto &micro : workloads) {
        DseRow row;
        row.workload = micro.name;
        const auto h = hbm.runner->runMicro(micro, 1);
        double base_ns = 0.0;
        for (const auto &[name, cfg] : variants) {
            const double ns = pimUpperBoundNs(setups.at(name), micro);
            row.speedup[name] = h.ns / ns;
            if (name == "PIM-HBM")
                base_ns = ns;
        }
        for (const auto &[name, cfg] : variants) {
            if (name != "PIM-HBM")
                gains[name].push_back(row.speedup[name] /
                                      row.speedup["PIM-HBM"]);
        }
        (void)base_ns;
        g_rows.push_back(row);
    }
    for (const auto &[name, gs] : gains) {
        double log_sum = 0;
        for (double g : gs)
            log_sum += std::log(g);
        g_geomean[name] = std::exp(log_sum / gs.size());
    }
}

void
printFig14()
{
    printHeader("Fig. 14: DSE speedups over HBM (upper-bound: no host "
                "compute/launch costs)");
    printRow({"workload", "PIM-HBM", "PIM-HBM-2x", "PIM-HBM-2BA",
              "PIM-HBM-SRW"},
             14);
    for (const auto &row : g_rows) {
        printRow({row.workload, fmt(row.speedup.at("PIM-HBM")),
                  fmt(row.speedup.at("PIM-HBM-2x")),
                  fmt(row.speedup.at("PIM-HBM-2BA")),
                  fmt(row.speedup.at("PIM-HBM-SRW"))},
                 14);
    }
    printHeader("Geo-mean gain over base PIM-HBM");
    for (const auto &[name, g] : g_geomean)
        printRow({name, fmt(g)}, 16);
    std::printf("\npaper: 2x ~1.4x geo-mean (+24%% die), 2BA ~1.2x (+60%% "
                "power, biggest on ADD),\nSRW ~1.1x (~1.25x on GEMV).\n");
}

void
BM_Fig14(benchmark::State &state)
{
    for (auto _ : state) {
        if (g_rows.empty())
            runFig14();
    }
    const auto &row = g_rows.at(static_cast<std::size_t>(state.range(0)));
    state.counters["pim"] = row.speedup.at("PIM-HBM");
    state.counters["pim_2x"] = row.speedup.at("PIM-HBM-2x");
    state.counters["pim_2ba"] = row.speedup.at("PIM-HBM-2BA");
    state.counters["pim_srw"] = row.speedup.at("PIM-HBM-SRW");
    state.SetLabel(row.workload);
}

} // namespace

int
main(int argc, char **argv)
{
    runFig14();
    for (std::size_t i = 0; i < g_rows.size(); ++i) {
        benchmark::RegisterBenchmark(
            ("Fig14/" + g_rows[i].workload).c_str(), BM_Fig14)
            ->Arg(static_cast<int>(i))
            ->Iterations(1);
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    printFig14();
    return 0;
}
