/**
 * @file
 * Per-tenant request accounting shared by the three request engines.
 *
 * ServingEngine, LlmEngine and ClusterEngine each keep one ledger. It
 * owns what every engine must know about a request's life, and nothing
 * else: per-tenant submissions and terminal states, the tenant latency
 * histograms, and the close of a request (SLO observation, terminal
 * instant, root span, TraceOutcome). Counters only one engine has
 * (retries, tokens, hedges, ...) stay in that engine. A terminal
 * transition is checked where it happens, and totals merge the tenant
 * histograms, so a total percentile is the pooled samples' percentile.
 */

#ifndef PIMSIM_SERVE_REQUEST_LEDGER_H
#define PIMSIM_SERVE_REQUEST_LEDGER_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/reqtrace.h"
#include "common/slo.h"
#include "common/stats.h"

namespace pimsim {
class StatsRegistry;
}

namespace pimsim::serve {

/** Latency distribution summary extracted from a Histogram. */
struct LatencySummary
{
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    double maxNs = 0.0;

    static LatencySummary of(const Histogram &h); ///< zeros when empty
};

/** The states a request can end in (indexes TerminalCounts). */
enum class Terminal : std::uint8_t
{
    Completed,
    Shed,     ///< refused at admission: deadline unreachable
    TimedOut, ///< expired in a queue
    Rejected, ///< refused at admission: no room, or infeasible
    Failed,   ///< every dispatch attempt failed
};

/** One tenant's submissions and how they ended. */
struct TerminalCounts
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failed = 0;

    std::uint64_t ended() const
    {
        return completed + shed + timedOut + rejected + failed;
    }
};

/** PIMSIM_ASSERT that each of `who`'s submissions ended exactly once. */
void assertBalanced(const std::string &who, const TerminalCounts &c);

/** How one request ended, and where its trace is drawn. */
struct RequestEnd
{
    unsigned tenant = 0;
    Terminal terminal = Terminal::Completed;
    double arrivalNs = 0.0;
    double deadlineNs = 0.0; ///< absolute; <= 0: none
    double endNs = 0.0;
    RequestTraceContext trace;
    int pid = 0; ///< track of the terminal instant and root span
    int tid = 0;
    const char *span = "request";  ///< root-span name
    const char *instant = nullptr; ///< terminal instant (nullptr: none)
    bool wrong = false; ///< completed with a wrong answer: an SLO error
    bool hedged = false;
    bool failedOver = false;
};

/** The `name` of every tenant spec in `specs`, in order. */
template <typename Spec>
std::vector<std::string>
namesOf(const std::vector<Spec> &specs)
{
    std::vector<std::string> names;
    for (const Spec &s : specs)
        names.push_back(s.name);
    return names;
}

/** Terminal accounting, latency histograms and request close. */
class RequestLedger
{
  public:
    /** Per tenant, one histogram (`buckets` x `bucket_ns`) per metric,
     *  indexed in the order given. */
    RequestLedger(std::vector<std::string> tenants,
                  std::vector<std::string> metrics, std::uint64_t bucket_ns,
                  std::size_t buckets);

    /** Register the histograms as "<prefix><tenant>.<metric>". */
    void registerHistograms(StatsRegistry &registry,
                            const std::string &prefix);

    void setTracer(RequestTracer *tracer) { tracer_ = tracer; }

    void submit(unsigned tenant) { ++counts_[tenant].submitted; }

    /** One latency sample; `trace_id` becomes its exemplar. */
    void sample(unsigned tenant, unsigned metric, std::uint64_t value,
                std::uint64_t trace_id)
    {
        hists_[tenant * metrics_.size() + metric].sample(value, trace_id);
    }

    /**
     * Count the terminal state (asserting the tenant has a submission
     * outstanding) and record the SLO observation: good when completed
     * right and by the deadline. With a tracer and an active context,
     * also draw the terminal instant and the root span, and end the
     * trace with its TraceOutcome.
     */
    void close(const RequestEnd &end);

    /** Assert every submission ended (once the engine is idle). */
    void assertDrained() const;

    /** SLO observations since the last call, in close order. */
    std::vector<SloObservation> takeSloObservations();

    const TerminalCounts &counts(unsigned tenant) const
    {
        return counts_[tenant];
    }
    const Histogram &histogram(unsigned tenant, unsigned metric) const
    {
        return hists_[tenant * metrics_.size() + metric];
    }
    LatencySummary summary(unsigned tenant, unsigned metric) const
    {
        return LatencySummary::of(histogram(tenant, metric));
    }
    /** The summary of every tenant's samples of `metric`, merged. */
    LatencySummary pooledSummary(unsigned metric) const;

  private:
    std::vector<std::string> tenants_;
    std::vector<std::string> metrics_;
    std::vector<Histogram> hists_; ///< tenant-major, sized once
    std::vector<TerminalCounts> counts_;
    std::vector<SloObservation> sloObs_;
    RequestTracer *tracer_ = nullptr;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_REQUEST_LEDGER_H
