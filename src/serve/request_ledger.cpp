#include "serve/request_ledger.h"

#include <utility>

#include "common/logging.h"
#include "common/stats_registry.h"

namespace pimsim::serve {

LatencySummary
LatencySummary::of(const Histogram &h)
{
    LatencySummary s;
    if (h.count() == 0)
        return s;
    s.meanNs = h.mean();
    s.p50Ns = h.p50();
    s.p95Ns = h.p95();
    s.p99Ns = h.p99();
    s.maxNs = static_cast<double>(h.max());
    return s;
}

RequestLedger::RequestLedger(std::vector<std::string> tenants,
                             std::vector<std::string> metrics,
                             std::uint64_t bucket_ns, std::size_t buckets)
    : tenants_(std::move(tenants)), metrics_(std::move(metrics)),
      counts_(tenants_.size())
{
    PIMSIM_ASSERT(!tenants_.empty() && !metrics_.empty(),
                  "a request ledger needs tenants and metrics");
    // Built in place: copying one prototype would free a bucket array
    // at once, and glibc then serves later large blocks (completion
    // buffers) from the heap instead of mmap, raising peak RSS.
    const std::size_t n = tenants_.size() * metrics_.size();
    hists_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        hists_.emplace_back(bucket_ns, buckets);
}

void
RequestLedger::registerHistograms(StatsRegistry &registry,
                                  const std::string &prefix)
{
    for (unsigned t = 0; t < tenants_.size(); ++t) {
        for (unsigned m = 0; m < metrics_.size(); ++m) {
            registry.addHistogram(prefix + tenants_[t] + "." + metrics_[m],
                                  &hists_[t * metrics_.size() + m]);
        }
    }
}

void
RequestLedger::close(const RequestEnd &end)
{
    // Indexed by Terminal.
    static constexpr std::uint64_t TerminalCounts::*kCount[] = {
        &TerminalCounts::completed, &TerminalCounts::shed,
        &TerminalCounts::timedOut, &TerminalCounts::rejected,
        &TerminalCounts::failed};
    TerminalCounts &c = counts_[end.tenant];
    PIMSIM_ASSERT(c.ended() < c.submitted, "tenant '",
                  tenants_[end.tenant],
                  "' ended a request it has not submitted (",
                  c.submitted, " submitted, ", c.ended(), " ended)");
    ++(c.*kCount[static_cast<unsigned>(end.terminal)]);

    const bool erred = end.terminal != Terminal::Completed || end.wrong;
    const bool missed =
        !erred && end.deadlineNs > 0.0 && end.endNs > end.deadlineNs;
    sloObs_.push_back(SloObservation{end.endNs, !erred && !missed});
    if (tracer_ == nullptr || !end.trace.active())
        return;
    if (end.instant != nullptr) {
        tracer_->instant(end.trace, end.pid, end.tid, end.instant,
                         "terminal", end.endNs);
    }
    tracer_->span(end.trace, end.pid, end.tid, end.span, "request",
                  end.arrivalNs, end.endNs - end.arrivalNs);
    TraceOutcome outcome;
    outcome.latencyNs = end.endNs - end.arrivalNs;
    outcome.erred = erred;
    outcome.deadlineMissed = missed;
    outcome.hedged = end.hedged;
    outcome.failedOver = end.failedOver;
    tracer_->end(end.trace, outcome);
}

void
assertBalanced(const std::string &who, const TerminalCounts &c)
{
    PIMSIM_ASSERT(c.ended() == c.submitted, "accounting leak for '", who,
                  "': ", c.completed, " completed + ", c.shed, " shed + ",
                  c.timedOut, " timed out + ", c.rejected, " rejected + ",
                  c.failed, " failed != ", c.submitted, " submitted");
}

void
RequestLedger::assertDrained() const
{
    for (unsigned t = 0; t < tenants_.size(); ++t)
        assertBalanced(tenants_[t], counts_[t]);
}

std::vector<SloObservation>
RequestLedger::takeSloObservations()
{
    return std::exchange(sloObs_, {});
}

LatencySummary
RequestLedger::pooledSummary(unsigned metric) const
{
    const Histogram &first = histogram(0, metric);
    Histogram pooled(first.bucketWidth(), first.buckets().size());
    for (unsigned t = 0; t < tenants_.size(); ++t)
        pooled.merge(histogram(t, metric));
    return LatencySummary::of(pooled);
}

} // namespace pimsim::serve
