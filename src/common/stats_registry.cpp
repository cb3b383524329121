#include "common/stats_registry.h"

#include <ostream>

#include "common/json.h"
#include "common/logging.h"

namespace pimsim {

namespace {

bool
suffixMatches(const std::string &path, const std::string &suffix)
{
    if (path == suffix)
        return true;
    return path.size() > suffix.size() + 1 &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0 &&
           path[path.size() - suffix.size() - 1] == '.';
}

} // namespace

void
StatsRegistry::addGroup(const std::string &path, StatGroup *group)
{
    PIMSIM_ASSERT(group != nullptr, "null StatGroup for ", path);
    for (auto &entry : groups_) {
        if (entry.first == path) {
            entry.second = group;
            return;
        }
    }
    groups_.emplace_back(path, group);
}

void
StatsRegistry::addHistogram(const std::string &path, Histogram *histogram)
{
    PIMSIM_ASSERT(histogram != nullptr, "null Histogram for ", path);
    for (auto &entry : histograms_) {
        if (entry.first == path) {
            entry.second = histogram;
            return;
        }
    }
    histograms_.emplace_back(path, histogram);
}

const StatGroup *
StatsRegistry::group(const std::string &path) const
{
    for (const auto &entry : groups_) {
        if (entry.first == path)
            return entry.second;
    }
    return nullptr;
}

const Histogram *
StatsRegistry::histogram(const std::string &path) const
{
    for (const auto &entry : histograms_) {
        if (entry.first == path)
            return entry.second;
    }
    return nullptr;
}

std::uint64_t
StatsRegistry::counterTotal(const std::string &path_suffix,
                            const std::string &stat) const
{
    std::uint64_t total = 0;
    for (const auto &entry : groups_) {
        if (suffixMatches(entry.first, path_suffix))
            total += entry.second->counter(stat);
    }
    return total;
}

void
StatsRegistry::reset()
{
    for (auto &entry : groups_)
        entry.second->reset();
    for (auto &entry : histograms_)
        entry.second->reset();
}

void
StatsRegistry::retainExemplars(
    const std::unordered_set<std::uint64_t> &kept)
{
    for (auto &entry : histograms_)
        entry.second->retainExemplars(kept);
    for (auto &entry : groups_) {
        for (const auto &kv : entry.second->histograms()) {
            if (kv.second)
                kv.second->retainExemplars(kept);
        }
    }
}

void
StatsRegistry::dumpText(std::ostream &os) const
{
    for (const auto &[path, group] : groups_) {
        for (const auto &kv : group->counters())
            os << path << "." << kv.first << " " << kv.second << "\n";
        for (const auto &kv : group->scalars())
            os << path << "." << kv.first << " " << kv.second << "\n";
    }
    for (const auto &[path, hist] : histograms_) {
        os << path << ".count " << hist->count() << "\n";
        os << path << ".mean " << hist->mean() << "\n";
        os << path << ".p50 " << hist->p50() << "\n";
        os << path << ".p95 " << hist->p95() << "\n";
        os << path << ".p99 " << hist->p99() << "\n";
        os << path << ".max " << hist->max() << "\n";
    }
}

void
StatsRegistry::dumpJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.key("groups").beginObject();
    for (const auto &[path, group] : groups_) {
        w.key(path).beginObject();
        w.key("counters").beginObject();
        for (const auto &kv : group->counters())
            w.field(kv.first, kv.second);
        w.endObject();
        if (!group->scalars().empty()) {
            w.key("scalars").beginObject();
            for (const auto &kv : group->scalars())
                w.field(kv.first, kv.second);
            w.endObject();
        }
        w.endObject();
    }
    w.endObject();
    w.key("histograms").beginObject();
    for (const auto &[path, hist] : histograms_) {
        w.key(path).beginObject();
        w.field("count", hist->count());
        w.field("mean", hist->mean());
        w.field("min", hist->min());
        w.field("p50", hist->p50());
        w.field("p95", hist->p95());
        w.field("p99", hist->p99());
        w.field("max", hist->max());
        w.field("overflow", hist->overflow());
        if (!hist->exemplars().empty()) {
            // Trace ids as strings: they pair with the "trace" args in
            // the Chrome trace file, which are strings too.
            w.key("exemplars").beginArray();
            for (const auto &[bucket, slot] : hist->exemplars()) {
                for (const auto &ex : slot) {
                    w.beginObject();
                    w.field("bucket_lo", bucket * hist->bucketWidth());
                    w.field("value", ex.value);
                    w.field("trace_id", std::to_string(ex.traceId));
                    w.endObject();
                }
            }
            w.endArray();
        }
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << "\n";
}

} // namespace pimsim
