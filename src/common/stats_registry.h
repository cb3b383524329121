/**
 * @file
 * Hierarchical registry of every StatGroup / Histogram in a system.
 *
 * Components keep owning their StatGroups (the registry stores
 * non-owning pointers); what the registry adds is one place where a
 * whole system's statistics can be enumerated, cross-summed, reset
 * between measurement windows, and dumped as human-readable text or
 * machine-readable JSON. PimSystem builds one per instance and
 * registers every controller, pseudo channel and PIM channel under
 * dotted paths ("ch3.ctrl", "ch3.pch", "ch3.pim", "serve", ...); the
 * serving engine adds its latency histograms.
 */

#ifndef PIMSIM_COMMON_STATS_REGISTRY_H
#define PIMSIM_COMMON_STATS_REGISTRY_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace pimsim {

/** Non-owning, ordered registry of named stat groups and histograms. */
class StatsRegistry
{
  public:
    /** Register a group under `path`; replaces an existing entry. */
    void addGroup(const std::string &path, StatGroup *group);

    /** Register a histogram under `path`; replaces an existing entry. */
    void addHistogram(const std::string &path, Histogram *histogram);

    /** The group registered at exactly `path` (nullptr if absent). */
    const StatGroup *group(const std::string &path) const;

    /** The histogram registered at exactly `path` (nullptr if absent). */
    const Histogram *histogram(const std::string &path) const;

    /**
     * Sum of counter `stat` over every group whose path equals
     * `path_suffix` or ends with ".<path_suffix>" — e.g.
     * counterTotal("pch", "rd") sums the device RD count over all
     * channels.
     */
    std::uint64_t counterTotal(const std::string &path_suffix,
                               const std::string &stat) const;

    /** Reset every registered group and histogram (new window). */
    void reset();

    /**
     * Prune histogram exemplars to trace ids in `kept` — called after
     * tail-based sampling so a stats dump never links to a discarded
     * trace (see Histogram::retainExemplars).
     */
    void retainExemplars(const std::unordered_set<std::uint64_t> &kept);

    /** "path.stat value" lines, groups in registration order. */
    void dumpText(std::ostream &os) const;

    /**
     * JSON object:
     * {"groups": {path: {"counters": {...}, "scalars": {...}}},
     *  "histograms": {path: {"count": ..., "mean": ..., "p50": ...}}}
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::vector<std::pair<std::string, StatGroup *>> groups_;
    std::vector<std::pair<std::string, Histogram *>> histograms_;
};

} // namespace pimsim

#endif // PIMSIM_COMMON_STATS_REGISTRY_H
