/**
 * @file
 * The benchmark's four workloads and the harness that times them.
 *
 * Every workload follows one shape: make the fixed inputs, then run
 * whole rounds until the timed phase has lasted the requested seconds,
 * and finish with the stats dump a user pays at the end of every run.
 * Input generation, output checks, the throwaway constructions behind
 * setup_s and the reference loops behind the slow factor run between
 * the program calls and are subtracted from the timed phase. The rates
 * are those of a typical round (roundCostS()) over the slow factor
 * (reference.h).
 *
 * Simulated counts (the fingerprint) are those of the first round,
 * which the seed alone determines; host times and per-call rates are
 * those of the whole (traced) phase.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** The seed a run uses when none is given. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome-trace file for the kept spans (traced runs; "" = none). */
    std::string spansOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure descriptions (all are counted in `failed`). */
    std::vector<std::string> failures;
    /** Every end-to-end metric (trace off) or per-layer one (trace on). */
    std::vector<Metric> metrics;
    /** First-round simulated counts, printed on every run. */
    std::vector<Metric> fingerprint;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;

    bool correct() const { return failed == 0 && failures.empty(); }
};

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; throws std::invalid_argument on a bad name. */
Result runWorkload(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
