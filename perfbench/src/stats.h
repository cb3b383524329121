/**
 * @file
 * The benchmark's own arithmetic: order statistics and shares.
 *
 * quartiles() reproduces Python's statistics.quantiles(data, n=4) with
 * its default "exclusive" method, so the spread a run prints is the
 * spread a Python comparison of runs computes.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/** Q1, median, Q3 as statistics.quantiles(values, n=4) gives them. */
inline std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.size() < 2)
        throw std::invalid_argument("quartiles need at least two values");
    std::sort(values.begin(), values.end());
    const std::size_t m = values.size() + 1;
    std::array<double, 3> out{};
    for (std::size_t i = 1; i <= 3; ++i) {
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1,
                                                      values.size() - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        out[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) /
                     4.0;
    }
    return out;
}

/**
 * Nearest-rank percentile (p in (0, 100]) of a sample: the smallest
 * value with at least p% of the sample at or below it.
 */
inline double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const std::size_t k = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
    std::nth_element(values.begin(), values.begin() + k, values.end());
    return values[k];
}

/**
 * Quantile q in [0, 1] by linear interpolation between order statistics
 * (numpy's default). It never leaves the sample's range, so it is
 * meaningful on two or three values.
 */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

/** The quantile of a position's times that roundCostS() takes. */
inline constexpr double kRoundCostQuantile = 0.1;

/**
 * Host seconds of one typical round. Every round makes the same
 * sequence of program calls; `by_position[k]` holds the seconds that
 * position k of the sequence took in each round. A round's cost is the
 * sum over positions of each position's low (kRoundCostQuantile) time:
 * noise from other tenants only ever adds time and comes in bursts
 * shorter than a round, so it is left out position by position.
 */
inline double
roundCostS(const std::vector<std::vector<double>> &by_position)
{
    double sum = 0.0;
    for (const auto &seconds : by_position)
        sum += quantile(seconds, kRoundCostQuantile);
    return sum;
}

/** Failed operations as a share of those attempted (0 when none ran). */
inline double
failureShare(std::uint64_t failed, std::uint64_t attempted)
{
    if (attempted == 0)
        return 0.0;
    return static_cast<double>(std::min(failed, attempted)) /
           static_cast<double>(attempted);
}

/** numerator / denominator, 0 when the denominator is 0. */
inline double
ratio(double numerator, double denominator)
{
    return denominator == 0.0 ? 0.0 : numerator / denominator;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
