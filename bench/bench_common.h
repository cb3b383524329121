/**
 * @file
 * Shared helpers for the benchmark harnesses: system construction and
 * paper-style table printing.
 */

#ifndef PIMSIM_BENCH_BENCH_COMMON_H
#define PIMSIM_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "host/host_model.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"

namespace pimsim::bench {

/** A complete evaluation setup: system + host model (+ PIM BLAS). */
struct Setup
{
    std::unique_ptr<PimSystem> system;
    std::unique_ptr<HostModel> host;
    std::unique_ptr<PimBlas> blas;
    std::unique_ptr<AppRunner> runner;
};

/**
 * The paper-figure benches report times and activity only, so their
 * PIM systems are timing-only (PimConfig::functional off): identical
 * commands and counters, no operand bytes or lane math.
 */
inline Setup
makeSetup(SystemConfig config)
{
    config.pim.functional = false;
    Setup s;
    s.system = std::make_unique<PimSystem>(config);
    s.host = std::make_unique<HostModel>(*s.system);
    if (config.withPim())
        s.blas = std::make_unique<PimBlas>(*s.system);
    s.runner = std::make_unique<AppRunner>(*s.host, s.blas.get());
    return s;
}

/** Fixed-width row printer for paper-style tables. */
inline void
printRow(const std::vector<std::string> &cells, int width = 12)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double value, int precision = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

inline std::string
fmtNs(double ns)
{
    char buf[64];
    if (ns >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
    return buf;
}

inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

} // namespace pimsim::bench

#endif // PIMSIM_BENCH_BENCH_COMMON_H
