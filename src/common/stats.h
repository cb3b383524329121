/**
 * @file
 * Lightweight statistics collection.
 *
 * Every simulated object owns a StatGroup; stats are named counters or
 * scalars that can be dumped in a stable order. Histograms support the
 * latency distributions used by the benches.
 */

#ifndef PIMSIM_COMMON_STATS_H
#define PIMSIM_COMMON_STATS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace pimsim {

/** A named set of counters/scalars with hierarchical dotted names. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = {}) : name_(std::move(name)) {}

    /** Add delta to a counter, creating it at zero on first use. */
    void add(const std::string &stat, std::uint64_t delta = 1)
    {
        counters_[stat] += delta;
    }

    /** Set a floating-point scalar stat. */
    void set(const std::string &stat, double value) { scalars_[stat] = value; }

    /** Add delta to a floating-point scalar stat. */
    void addScalar(const std::string &stat, double delta)
    {
        scalars_[stat] += delta;
    }

    /** Current value of a counter (0 if never touched). */
    std::uint64_t counter(const std::string &stat) const
    {
        auto it = counters_.find(stat);
        return it == counters_.end() ? 0 : it->second;
    }

    /** Current value of a scalar (0.0 if never touched). */
    double scalar(const std::string &stat) const
    {
        auto it = scalars_.find(stat);
        return it == scalars_.end() ? 0.0 : it->second;
    }

    /**
     * Register a histogram the group reports alongside its counters.
     * Non-owning: the histogram must outlive the group (or be
     * re-registered). reset() clears registered histograms too, so a
     * long-lived engine can reuse one group across measurement windows.
     */
    void registerHistogram(const std::string &stat, class Histogram *hist);

    /** A registered histogram by name (nullptr if absent). */
    class Histogram *histogram(const std::string &stat) const;

    /**
     * Reset all counters and scalars to zero and clear every registered
     * histogram (names are kept).
     */
    void reset();

    /** Merge another group's stats into this one (sums). */
    void merge(const StatGroup &other);

    /**
     * Overwrite every counter and scalar with `other`'s value, creating
     * the entries this group lacks. Entries are updated in place, never
     * removed, so bound StatCounter handles stay valid (a channel mirror,
     * PimSystem replay).
     */
    void copyValuesFrom(const StatGroup &other);

    const std::string &name() const { return name_; }
    const std::map<std::string, std::uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &scalars() const { return scalars_; }
    const std::map<std::string, class Histogram *> &histograms() const
    {
        return histograms_;
    }

    /** Print "group.stat value" lines in sorted order. */
    void dump(std::ostream &os) const;

  private:
    friend class StatCounter;

    std::string name_;
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> scalars_;
    std::map<std::string, class Histogram *> histograms_;
};

/**
 * A handle on one counter of a StatGroup, for per-command paths. The
 * first add() creates the entry exactly as StatGroup::add() does, so an
 * untouched counter still never appears in a dump; later adds update
 * the stored value without a name lookup. The name must outlive the
 * handle (a string literal), and the group must outlive it too (reset()
 * keeps the entry). A handle on a null group does nothing.
 */
class StatCounter
{
  public:
    StatCounter() : slot_(nullptr) {}
    StatCounter(StatGroup *group, const char *name) : group_(group)
    {
        if (group)
            name_ = name;
        else
            slot_ = nullptr;
    }

    void add(std::uint64_t delta = 1)
    {
        if (group_) {
            slot_ = &group_->counters_[name_];
            group_ = nullptr;
        }
        if (slot_)
            *slot_ += delta;
    }

  private:
    /** Set until the first add(), which binds the slot. */
    StatGroup *group_ = nullptr;
    // One word: owner objects hold dozens of handles, and their size is
    // part of every system construction.
    union
    {
        const char *name_;    ///< while group_ is set
        std::uint64_t *slot_; ///< once bound (nullptr: a no-op handle)
    };
};

/** Simple fixed-bucket histogram for latency distributions. */
class Histogram
{
  public:
    /**
     * A sampled value annotated with the trace id of the request that
     * produced it — the OpenMetrics "exemplar" idea: a histogram bucket
     * links to a concrete trace showing *why* a sample landed there.
     */
    struct Exemplar
    {
        std::uint64_t value = 0;
        std::uint64_t traceId = 0;
    };

    /** Buckets [0,width), [width,2*width), ...; overflow collects the rest. */
    Histogram(std::uint64_t bucket_width, std::size_t num_buckets);

    void sample(std::uint64_t value);

    /**
     * sample() plus an exemplar: remember up to kExemplarsPerBucket
     * recent (value, trace_id) pairs for the bucket the value lands in
     * (newest overwrites oldest). trace_id 0 records no exemplar.
     */
    void sample(std::uint64_t value, std::uint64_t trace_id);

    /**
     * Drop every exemplar whose trace id is not in `kept` — called
     * after tail-based sampling decides which traces survive, so a
     * stats dump never links to a trace that was discarded.
     */
    void retainExemplars(const std::unordered_set<std::uint64_t> &kept);

    /**
     * Exemplars by bucket index (buckets().size() = the overflow
     * bucket), insertion-ordered oldest first within a bucket.
     */
    const std::map<std::size_t, std::vector<Exemplar>> &exemplars() const
    {
        return exemplars_;
    }

    static constexpr std::size_t kExemplarsPerBucket = 2;

    /**
     * Forget every sample (bucket counts, overflow, min/max/sum); the
     * bucket shape is kept. Long-lived engines reuse histograms across
     * measurement windows — without this, stale samples accumulate.
     */
    void reset();

    /**
     * Add every sample of `other`, which must have the same bucket shape
     * (asserted): bucket counts, overflow, count, sum, min and max.
     * Exemplars are not merged. The result equals one histogram fed both
     * sample sets, so its percentiles are the pooled ones.
     */
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    double mean() const;

    /**
     * Approximate p-th percentile (p in (0, 1], e.g. 0.99) by linear
     * interpolation inside the owning bucket, clamped to [min, max].
     * Samples that landed in the overflow bucket resolve to max().
     * An empty histogram reports 0.
     */
    double percentile(double p) const;

    double p50() const { return percentile(0.50); }
    double p95() const { return percentile(0.95); }
    double p99() const { return percentile(0.99); }


    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::map<std::size_t, std::vector<Exemplar>> exemplars_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

} // namespace pimsim

#endif // PIMSIM_COMMON_STATS_H
