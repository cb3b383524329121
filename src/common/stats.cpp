#include "common/stats.h"

#include <algorithm>
#include <ostream>

#include "common/logging.h"

namespace pimsim {

void
StatGroup::registerHistogram(const std::string &stat, Histogram *hist)
{
    histograms_[stat] = hist;
}

Histogram *
StatGroup::histogram(const std::string &stat) const
{
    auto it = histograms_.find(stat);
    return it == histograms_.end() ? nullptr : it->second;
}

void
StatGroup::reset()
{
    for (auto &kv : counters_)
        kv.second = 0;
    for (auto &kv : scalars_)
        kv.second = 0.0;
    for (auto &kv : histograms_) {
        if (kv.second)
            kv.second->reset();
    }
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] += kv.second;
    for (const auto &kv : other.scalars_)
        scalars_[kv.first] += kv.second;
}

void
StatGroup::copyValuesFrom(const StatGroup &other)
{
    for (const auto &kv : other.counters_)
        counters_[kv.first] = kv.second;
    for (const auto &kv : other.scalars_)
        scalars_[kv.first] = kv.second;
}

void
StatGroup::dump(std::ostream &os) const
{
    const std::string prefix = name_.empty() ? "" : name_ + ".";
    for (const auto &kv : counters_)
        os << prefix << kv.first << " " << kv.second << "\n";
    for (const auto &kv : scalars_)
        os << prefix << kv.first << " " << kv.second << "\n";
}

Histogram::Histogram(std::uint64_t bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width ? bucket_width : 1), buckets_(num_buckets, 0)
{
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    exemplars_.clear();
    overflow_ = 0;
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
}

void
Histogram::sample(std::uint64_t value)
{
    const std::size_t idx = value / bucketWidth_;
    if (idx < buckets_.size())
        ++buckets_[idx];
    else
        ++overflow_;
    ++count_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

void
Histogram::sample(std::uint64_t value, std::uint64_t trace_id)
{
    sample(value);
    if (trace_id == 0)
        return;
    const std::size_t idx =
        std::min(static_cast<std::size_t>(value / bucketWidth_),
                 buckets_.size()); // buckets_.size() = overflow bucket
    auto &slot = exemplars_[idx];
    if (slot.size() >= kExemplarsPerBucket)
        slot.erase(slot.begin());
    slot.push_back(Exemplar{value, trace_id});
}

void
Histogram::retainExemplars(const std::unordered_set<std::uint64_t> &kept)
{
    for (auto it = exemplars_.begin(); it != exemplars_.end();) {
        auto &slot = it->second;
        slot.erase(std::remove_if(slot.begin(), slot.end(),
                                  [&](const Exemplar &e) {
                                      return kept.count(e.traceId) == 0;
                                  }),
                   slot.end());
        if (slot.empty())
            it = exemplars_.erase(it);
        else
            ++it;
    }
}

void
Histogram::merge(const Histogram &other)
{
    PIMSIM_ASSERT(bucketWidth_ == other.bucketWidth_ &&
                      buckets_.size() == other.buckets_.size(),
                  "merging histograms of different shapes");
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 1.0);
    // Rank of the percentile sample, 1-based (nearest-rank definition).
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(p * static_cast<double>(count_) + 0.5));

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        if (buckets_[i] == 0)
            continue;
        if (cumulative + buckets_[i] >= rank) {
            // Interpolate the rank's position within this bucket.
            const double within =
                static_cast<double>(rank - cumulative) /
                static_cast<double>(buckets_[i]);
            const double value =
                static_cast<double>(i * bucketWidth_) +
                within * static_cast<double>(bucketWidth_);
            return std::min(std::max(value, static_cast<double>(min())),
                            static_cast<double>(max_));
        }
        cumulative += buckets_[i];
    }
    // The rank fell into the overflow bucket.
    return static_cast<double>(max_);
}

} // namespace pimsim
