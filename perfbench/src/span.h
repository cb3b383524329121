/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one call from the benchmark into a layer of the program:
 * name, start, end and the span that was open when it began (its
 * parent). Spans nest strictly (the benchmark is single-threaded), so
 * a span's self time is its duration minus the summed durations of its
 * direct children. Per-name totals (calls, busy, self) are kept exactly
 * for every span; individual spans are kept up to a cap and written out
 * as a Chrome trace when the run ends.
 *
 * A disabled recorder does nothing and reads no clock, so the metric
 * runs pay nothing for the spans compiled into the workloads.
 */

#ifndef PERFBENCH_SPAN_H
#define PERFBENCH_SPAN_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the monotonic host clock. */
inline std::int64_t
hostNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Nanoseconds of CPU time this thread has used. Time the thread spends
 * descheduled (other processes, a preempted virtual CPU) does not count.
 */
inline std::int64_t
cpuNowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Exact per-name totals over every span ever closed. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    std::int64_t busyNs = 0; ///< summed durations
    std::int64_t selfNs = 0; ///< durations minus direct children
};

class SpanRecorder
{
  public:
    using Id = std::uint32_t;

    /** One kept span; parent indexes spans() (-1: top level or dropped). */
    struct Span
    {
        Id name = 0;
        std::int32_t parent = -1;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    explicit SpanRecorder(bool enabled, std::size_t keep = 1u << 18)
        : enabled_(enabled), keep_(keep)
    {
    }

    bool enabled() const { return enabled_; }

    /** Switch recording on or off between spans (names are kept). */
    void setEnabled(bool enabled) { enabled_ = enabled; }

    /** Intern a span name (stable id for begin/end). */
    Id intern(const std::string &name)
    {
        for (Id i = 0; i < names_.size(); ++i) {
            if (names_[i] == name)
                return i;
        }
        names_.push_back(name);
        totals_.emplace_back();
        return static_cast<Id>(names_.size() - 1);
    }

    /** Open a span at the current clock. */
    void begin(Id name) { beginAt(name, enabled_ ? hostNowNs() : 0); }

    /**
     * Close the innermost open span at the current clock. `rename`
     * (when not kKeepName) re-labels it, for spans whose layer is only
     * known once the call returns.
     */
    void end(Id rename = kKeepName)
    {
        endAt(enabled_ ? hostNowNs() : 0, rename);
    }

    /** begin/end with explicit timestamps (tests and replays). */
    void beginAt(Id name, std::int64_t start_ns)
    {
        if (!enabled_)
            return;
        Open open;
        open.name = name;
        open.startNs = start_ns;
        open.kept = -1;
        if (spans_.size() < keep_) {
            open.kept = static_cast<std::int32_t>(spans_.size());
            Span span;
            span.name = name;
            span.parent = stack_.empty() ? -1 : stack_.back().kept;
            span.startNs = start_ns;
            spans_.push_back(span);
        } else {
            ++dropped_;
        }
        stack_.push_back(open);
    }

    void endAt(std::int64_t end_ns, Id rename = kKeepName)
    {
        if (!enabled_ || stack_.empty())
            return;
        const Open open = stack_.back();
        stack_.pop_back();
        const Id name = rename == kKeepName ? open.name : rename;
        const std::int64_t dur = end_ns - open.startNs;
        SpanTotals &t = totals_[name];
        ++t.calls;
        t.busyNs += dur;
        t.selfNs += dur - open.childNs;
        if (open.kept >= 0) {
            spans_[open.kept].name = name;
            spans_[open.kept].endNs = end_ns;
        }
        if (!stack_.empty())
            stack_.back().childNs += dur;
    }

    const SpanTotals &totals(Id name) const { return totals_[name]; }

    /** Totals by name, for every interned name. */
    std::map<std::string, SpanTotals> totalsByName() const
    {
        std::map<std::string, SpanTotals> out;
        for (Id i = 0; i < names_.size(); ++i)
            out[names_[i]] = totals_[i];
        return out;
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

    /** Kept spans as a Chrome trace ("X" events, microseconds). */
    void writeChromeTrace(std::ostream &os) const
    {
        const std::int64_t origin = spans_.empty() ? 0 : spans_[0].startNs;
        os << "{\"displayTimeUnit\":\"ns\",\"droppedSpans\":" << dropped_
           << ",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << names_[s.name]
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << static_cast<double>(s.startNs - origin) / 1e3
               << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << "}}";
        }
        os << "\n]}\n";
    }

    static constexpr Id kKeepName = ~Id{0};

  private:
    struct Open
    {
        Id name = 0;
        std::int32_t kept = -1;
        std::int64_t startNs = 0;
        std::int64_t childNs = 0;
    };

    bool enabled_;
    std::size_t keep_;
    std::vector<std::string> names_;
    std::vector<SpanTotals> totals_;
    std::vector<Span> spans_;
    std::vector<Open> stack_;
    std::uint64_t dropped_ = 0;
};

/** RAII span: opens on construction, closes on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, SpanRecorder::Id name) : rec_(rec)
    {
        rec_.begin(name);
    }
    ~ScopedSpan() { rec_.end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_H
