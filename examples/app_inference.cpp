/**
 * @file
 * End-to-end application inference: run any of the paper's five
 * applications (Section VII-A) on the HBM baseline and the PIM-HBM
 * system, at a chosen batch size, and print the layer-level breakdown.
 *
 *   $ ./app_inference            # all apps, batch 1
 *   $ ./app_inference GNMT 2     # one app at batch 2
 *   $ ./app_inference GNMT 1 2.0 # ... with fault injection (rate 2.0):
 *                                # on-die ECC + scrubbing are enabled and
 *                                # a deterministic campaign corrupts the
 *                                # device before the PIM run; the stack
 *                                # must finish with correct results.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/trace.h"
#include "host/host_model.h"
#include "reliability/fault_injector.h"
#include "stack/app_runner.h"
#include "stack/preprocessor.h"
#include "stack/workloads.h"

using namespace pimsim;

namespace {

void
runOne(const AppSpec &app, unsigned batch, double inject_rate,
       TraceSession *trace, const std::string &stats_json)
{
    PimSystem hbm_sys(SystemConfig::hbmSystem());
    HostModel hbm_host(hbm_sys);
    AppRunner hbm(hbm_host, nullptr);

    SystemConfig pim_cfg = SystemConfig::pimHbmSystem();
    if (inject_rate > 0) {
        pim_cfg.geometry.onDieEcc = true;
        pim_cfg.controller.scrubEnabled = true;
        pim_cfg.controller.scrubInterval = 2000;
        pim_cfg.controller.scrubBurstsPerStep = 64;
    }
    PimSystem pim_sys(pim_cfg);
    HostModel pim_host(pim_sys);
    PimBlas blas(pim_sys);
    AppRunner pim(pim_host, &blas);
    pim_sys.setTraceSession(trace);
    blas.setTrace(trace);
    pim.setTrace(trace);

    if (inject_rate > 0) {
        // Seed the PIM region with one small kernel so DRAM faults have
        // touched rows to land on, then run a deterministic campaign.
        // Stuck-at cells planted here persist into the timed run below;
        // the runtime must scrub/correct/retry its way through them.
        Fp16Vector warm(256, Fp16(1.0f)), out;
        blas.relu(warm, out);
        FaultRates rates;
        rates.dramTransient = inject_rate;
        rates.dramStuck = inject_rate / 4;
        rates.dramBurst = inject_rate / 8;
        rates.pimCrf = inject_rate / 16;
        FaultInjector injector(pim_sys, rates, /*seed=*/0x7a11);
        injector.runCampaign(/*interval=*/2000, /*steps=*/8);
        std::printf("injected %llu faults into the PIM-HBM device "
                    "(rate %.2f, seed 0x7a11)\n",
                    static_cast<unsigned long long>(
                        injector.counts().total()),
                    inject_rate);
    }

    const AppRunResult h = hbm.runApp(app, batch);
    const AppRunResult p = pim.runApp(app, batch);

    std::printf("%-8s batch %u\n", app.name.c_str(), batch);
    std::printf("  HBM baseline: %10.2f ms  (LLC miss %.0f%%)\n",
                h.ns / 1e6, 100 * h.avgLlcMissRate);
    std::printf("  PIM-HBM:      %10.2f ms  (PIM kernels %.2f ms, host "
                "%.2f ms, launches %.2f ms over %llu calls)\n",
                p.ns / 1e6, p.pimNs / 1e6, p.hostNs / 1e6,
                p.launchNs / 1e6,
                static_cast<unsigned long long>(p.kernelLaunches));
    if (inject_rate > 0) {
        std::printf("  reliability:  ECC corrected %llu (scrub %llu), "
                    "uncorrectable %llu, kernel retries %llu, host "
                    "fallbacks %llu\n",
                    static_cast<unsigned long long>(
                        pim_sys.errorLog().corrected()),
                    static_cast<unsigned long long>(
                        pim_sys.totalCtrlStat("scrub.corrected")),
                    static_cast<unsigned long long>(
                        pim_sys.errorLog().uncorrectable()),
                    static_cast<unsigned long long>(p.pimRetries),
                    static_cast<unsigned long long>(p.hostFallbacks));
    }
    std::printf("  speedup: %.2fx\n\n", h.ns / p.ns);

    if (!stats_json.empty()) {
        std::ofstream os(stats_json);
        if (!os) {
            PIMSIM_FATAL("cannot open stats output '", stats_json, "'");
        }
        pim_sys.dumpStatsJson(os);
    }
}

void
printOffloadPlan(const AppSpec &app, unsigned batch)
{
    // What the runtime preprocessor (Section V-A) decides per layer.
    const PimPreprocessor pre(SystemConfig::pimHbmSystem());
    std::printf("offload plan for %s at batch %u:\n", app.name.c_str(),
                batch);
    unsigned idx = 0;
    for (const auto &layer : app.layers) {
        OffloadDecision d;
        const char *kind = "";
        switch (layer.kind) {
          case LayerSpec::Kind::Conv:
            d = pre.conv(layer.flops);
            kind = "conv";
            break;
          case LayerSpec::Kind::Lstm:
            d = pre.gemv(4 * layer.hidden, layer.input + layer.hidden,
                         batch);
            kind = "lstm";
            break;
          case LayerSpec::Kind::Fc:
            d = pre.gemv(layer.hidden, layer.input, batch);
            kind = "fc";
            break;
          case LayerSpec::Kind::Residual:
            d = pre.elementwise(layer.elements, 2);
            kind = "residual";
            break;
          case LayerSpec::Kind::BatchNorm:
            d = pre.elementwise(layer.elements, 1);
            kind = "bn";
            break;
        }
        std::printf("  layer %2u %-9s -> %s (est. PIM %.1f us, host "
                    "%.1f us)\n",
                    idx++, kind, d.usePim ? "PIM " : "host",
                    d.estimatedPimNs / 1e3, d.estimatedHostNs / 1e3);
    }
    std::printf("\n");
}

} // namespace

void
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s [OPTIONS] [APP [BATCH [INJECT_RATE]]]\n"
                 "  APP          application name (e.g. GNMT, DS2)\n"
                 "  BATCH        positive integer batch size (default 1)\n"
                 "  INJECT_RATE  non-negative fault-injection rate "
                 "(default 0)\n"
                 "  --stats-json=PATH  dump PIM-system stats registry as "
                 "JSON (last app run)\n"
                 "  --trace-out=PATH   write a Chrome-trace timeline "
                 "(chrome://tracing, ui.perfetto.dev)\n",
                 prog);
}

int
main(int argc, char **argv)
{
    setQuiet(true);

    std::string stats_json;
    std::string trace_out;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--stats-json=", 13) == 0) {
            stats_json = arg + 13;
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            trace_out = arg + 12;
        } else if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg);
            usage(argv[0]);
            return 2;
        } else {
            positional.push_back(arg);
        }
    }

    const char *which = !positional.empty() ? positional[0] : nullptr;

    unsigned batch = 1;
    if (positional.size() > 1) {
        char *end = nullptr;
        const unsigned long parsed = std::strtoul(positional[1], &end, 10);
        if (end == positional[1] || *end != '\0' || positional[1][0] == '-' ||
            parsed == 0 || parsed > 4096) {
            std::fprintf(stderr, "%s: bad BATCH '%s': expected an integer "
                         "in [1, 4096]\n", argv[0], positional[1]);
            usage(argv[0]);
            return 2;
        }
        batch = static_cast<unsigned>(parsed);
    }

    double inject_rate = 0.0;
    if (positional.size() > 2) {
        char *end = nullptr;
        inject_rate = std::strtod(positional[2], &end);
        if (end == positional[2] || *end != '\0' || !(inject_rate >= 0.0)) {
            std::fprintf(stderr, "%s: bad INJECT_RATE '%s': expected a "
                         "non-negative number\n", argv[0], positional[2]);
            usage(argv[0]);
            return 2;
        }
    }

    TraceSession trace;
    for (const auto &app : allApps()) {
        if (which && std::strcmp(which, app.name.c_str()) != 0)
            continue;
        if (which)
            printOffloadPlan(app, batch);
        runOne(app, batch, inject_rate, trace_out.empty() ? nullptr : &trace,
               stats_json);
    }
    if (!trace_out.empty() && !trace.writeFile(trace_out))
        return 1;
    return 0;
}
