/**
 * @file
 * perfbench_main: run one benchmark workload, single-threaded.
 *
 *   perfbench_main --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--spans-out FILE]
 *
 * Prints notes, the first-round simulated fingerprint, and as its last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}.
 * Exit status: 0 when every operation succeeded, 1 when any failed,
 * 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "stats.h"
#include "workloads.h"

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_main --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE]\n"
                 "workloads:");
    for (const auto &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
}

bool
parseUnsigned(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 0);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

/** JSON number with every digit a double carries. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage();
            return 2;
        }
        const char *value = argv[++i];
        std::uint64_t n = 0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed" && parseUnsigned(value, n)) {
            options.seed = n;
        } else if (arg == "--seconds") {
            char *end = nullptr;
            options.seconds = std::strtod(value, &end);
            if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 600.0) {
                usage();
                return 2;
            }
        } else if (arg == "--trace" && parseUnsigned(value, n) && n <= 1) {
            options.trace = n == 1;
        } else if (arg == "--spans-out") {
            options.spansOut = value;
        } else {
            usage();
            return 2;
        }
    }

    perfbench::Result result;
    try {
        result = perfbench::runWorkload(options);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        usage();
        return 2;
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    for (const auto &note : result.notes)
        std::printf("%s\n", note.c_str());
    for (const auto &m : result.fingerprint)
        std::printf("fingerprint %s %s\n", m.name.c_str(),
                    number(m.value).c_str());
    std::printf("failed %llu of %llu operations (share %.6g)\n",
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted),
                perfbench::failureShare(result.failed, result.attempted));
    for (const auto &f : result.failures)
        std::printf("FAILED %s\n", f.c_str());

    std::string line = "{\"correct\": ";
    line += result.correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const auto &m = result.metrics[i];
        line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return result.correct() ? 0 : 1;
}
