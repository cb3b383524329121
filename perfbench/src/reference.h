/**
 * @file
 * Reference loops that measure how fast the machine runs right now.
 *
 * The machine the benchmark shares with other tenants changes speed for
 * minutes at a time: when neighbours thrash the shared last-level
 * cache, code that depends on it slows 2-3x and plain arithmetic by
 * 10-25%. The program's workloads sit in between (1.15-1.8x in the slow
 * period measured). Two fixed loops, timed between the workload's
 * rounds, follow both effects:
 *
 *  - `chase`: a dependent random walk over a 6 MB cycle, which lives in
 *    the last-level cache on a quiet machine;
 *  - `compute`: a dependent xorshift chain in registers.
 *
 * The slow factor the rates are divided by is the weighted geometric
 * mean of their times over their quiet times, chase weighted 1/3 and
 * compute 2/3: in the slow period measured this matched the four
 * workloads' own slow-down within -15%..+18%, where either loop alone
 * was off by up to 2.5x. The loops never change, so a change to the
 * program moves the rates and not the factor.
 *
 * The quiet times are those of one pass on the 4-vCPU Sapphire Rapids
 * VM the benchmark was tuned on, in a quiet period. They only scale
 * the rates; any fixed values would do.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "span.h"
#include "stats.h"

namespace perfbench {

/** CPU seconds of one reference pass on a quiet machine; see below. */
inline constexpr double kQuietChaseS = 0.0187;
inline constexpr double kQuietComputeS = 0.0170;

/**
 * How many times slower than quiet the machine ran, from one time of
 * each reference loop: the weighted geometric mean of their times over
 * their quiet times, chase weighted 1/3 and compute 2/3.
 */
inline double
slowFactor(double chase_s, double compute_s)
{
    return std::pow(chase_s / kQuietChaseS, 1.0 / 3.0) *
           std::pow(compute_s / kQuietComputeS, 2.0 / 3.0);
}

class ReferenceLoops
{
  public:
    /** Steps of each loop per pass. */
    static constexpr std::uint32_t kChaseSteps = 400'000;
    static constexpr std::uint32_t kComputeSteps = 8'000'000;
    /** 6 MB of 32-bit links: past a core's L2, inside the shared L3. */
    static constexpr std::uint32_t kChaseLinks = 3u << 19;

    ReferenceLoops()
    {
        // One random cycle through every link (Sattolo's shuffle of a
        // fixed SplitMix64 stream), so the walk visits all of them.
        next_.resize(kChaseLinks);
        std::iota(next_.begin(), next_.end(), 0u);
        std::uint64_t state = 0x5eed;
        for (std::uint32_t i = kChaseLinks - 1; i > 0; --i) {
            std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            z ^= z >> 31;
            std::swap(next_[i], next_[z % i]);
        }
    }

    /** Time one pass of both loops. */
    void pass()
    {
        std::int64_t start = cpuNowNs();
        std::uint32_t at = 0;
        for (std::uint32_t i = 0; i < kChaseSteps; ++i)
            at = next_[at];
        chaseS_.push_back(static_cast<double>(cpuNowNs() - start) / 1e9);

        start = cpuNowNs();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + at;
        for (std::uint32_t i = 0; i < kComputeSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        computeS_.push_back(static_cast<double>(cpuNowNs() - start) / 1e9);
        sink_ = x;
    }

    /** slowFactor() of the loops' q-quantile times (1 before any pass). */
    double slowFactor(double q) const
    {
        if (chaseS_.empty())
            return 1.0;
        return perfbench::slowFactor(quantile(chaseS_, q),
                                     quantile(computeS_, q));
    }

    const std::vector<double> &chaseS() const { return chaseS_; }
    const std::vector<double> &computeS() const { return computeS_; }

  private:
    std::vector<std::uint32_t> next_;
    std::vector<double> chaseS_, computeS_;
    /** Keeps the compute chain's result alive. */
    volatile std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
