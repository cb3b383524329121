/**
 * @file
 * Chrome trace-event timeline recording.
 *
 * TraceSession collects duration ("X"), instant ("i") and flow
 * ("s"/"t"/"f") events on (pid, tid) tracks and serialises them in the
 * Chrome trace-event JSON format, loadable in chrome://tracing and
 * https://ui.perfetto.dev. Recording is opt-in: components hold a
 * TraceSession pointer that is nullptr by default, so the simulator
 * pays nothing when tracing is off.
 *
 * Track convention (kept stable so traces from different tools line up):
 *   pid 1 "device"   — one tid per pseudo channel (DRAM command spans)
 *   pid 2 "runtime"  — tid 0: application layers, tid 1: PIM BLAS
 *                      kernels
 *   pid 3 "serving"  — one tid per shard (batch occupancy spans)
 *   pid 4 "resilience" — one tid per shard (circuit-breaker open /
 *                      half-open spans, batch-fault instants)
 *   pid 5 "cluster"  — one tid per host (health-state spans, hedge /
 *                      failover / probe instants)
 *   pid 6 "llm"      — tid 0: decode iterations (one span per
 *                      iteration, batch-size args), tid 1: KV-cache
 *                      occupancy spans between iteration boundaries,
 *                      tid 2: sampled per-request span trees
 *   pid 7 "slo"      — SLO monitor burn-rate alert fire/resolve
 *                      instants (one tid per alert rule)
 *   pid 8 "sdc"      — one tid per channel (unit health-state spans,
 *                      ABFT detect / confirm / quarantine / re-admit
 *                      instants)
 *
 * Flow events (flowStart/flowStep/flowEnd) draw arrows between spans on
 * different tracks — e.g. a cluster failover links the timed-out RPC on
 * the dead host to its retry on the survivor. Events sharing a flow id
 * form one chain; RequestTracer mints ids from a session-unique counter.
 */

#ifndef PIMSIM_COMMON_TRACE_H
#define PIMSIM_COMMON_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"

namespace pimsim {

class StatsRegistry;

/** Stable pids for the standard tracks (see file comment). */
inline constexpr int kTracePidDevice = 1;
inline constexpr int kTracePidRuntime = 2;
inline constexpr int kTracePidServing = 3;
inline constexpr int kTracePidResilience = 4;
inline constexpr int kTracePidCluster = 5;
inline constexpr int kTracePidLlm = 6;
inline constexpr int kTracePidSlo = 7;
inline constexpr int kTracePidSdc = 8;

/** One recorded trace event. */
struct TraceEvent
{
    enum class Phase
    {
        Complete,  ///< "X": a span with a duration
        Instant,   ///< "i": a point event
        FlowStart, ///< "s": start of a flow arrow
        FlowStep,  ///< "t": intermediate flow point
        FlowEnd,   ///< "f": end of a flow arrow (binds to enclosing slice)
    };

    Phase phase = Phase::Complete;
    int pid = 0;
    int tid = 0;
    double tsUs = 0.0;  ///< start timestamp, microseconds
    double durUs = 0.0; ///< duration, microseconds (Complete only)
    std::uint64_t flowId = 0; ///< flow-chain id (flow phases only)
    std::string name;
    std::string cat;
    /** Optional flat string args rendered as the event's "args" object. */
    std::vector<std::pair<std::string, std::string>> args;
};

/** An opt-in recording of one simulation's timeline. */
class TraceSession
{
  public:
    /**
     * @param max_events  hard cap on recorded events; recording beyond
     *                    it increments droppedEvents() instead of
     *                    growing without bound.
     */
    explicit TraceSession(std::size_t max_events = 4'000'000)
        : maxEvents_(max_events)
    {
    }

    /** Record a duration span. Times are nanoseconds of simulated time. */
    void span(int pid, int tid, const std::string &name,
              const std::string &cat, double start_ns, double dur_ns);

    /** Record a duration span with one "args" annotation. */
    void span(int pid, int tid, const std::string &name,
              const std::string &cat, double start_ns, double dur_ns,
              const std::string &arg_key, const std::string &arg_value);

    /** Record a duration span with an arbitrary "args" object. */
    void span(int pid, int tid, const std::string &name,
              const std::string &cat, double start_ns, double dur_ns,
              std::vector<std::pair<std::string, std::string>> args);

    /** Record a point event. */
    void instant(int pid, int tid, const std::string &name,
                 const std::string &cat, double ts_ns);

    /** Record a point event with an arbitrary "args" object. */
    void instant(int pid, int tid, const std::string &name,
                 const std::string &cat, double ts_ns,
                 std::vector<std::pair<std::string, std::string>> args);

    /**
     * Record one point of a flow chain. Events sharing `flow_id` are
     * drawn as arrows between their enclosing slices; a chain needs a
     * FlowStart and a FlowEnd (FlowStep for intermediate hops). Use
     * nextFlowId() for a session-unique id.
     */
    void flowStart(int pid, int tid, const std::string &name,
                   const std::string &cat, double ts_ns,
                   std::uint64_t flow_id);
    void flowStep(int pid, int tid, const std::string &name,
                  const std::string &cat, double ts_ns,
                  std::uint64_t flow_id);
    void flowEnd(int pid, int tid, const std::string &name,
                 const std::string &cat, double ts_ns,
                 std::uint64_t flow_id);

    /** Mint a flow id unique within this session (starts at 1). */
    std::uint64_t nextFlowId() { return nextFlowId_++; }

    /** Name a process / thread track (emitted as metadata events). */
    void setProcessName(int pid, const std::string &name);
    void setThreadName(int pid, int tid, const std::string &name);

    const std::vector<TraceEvent> &events() const { return events_; }
    std::uint64_t droppedEvents() const { return dropped_; }
    std::uint64_t recordedEvents() const { return events_.size(); }

    /**
     * Register the session's self-accounting counters (recorded /
     * dropped events) in `registry` under group "trace". The counters
     * are kept current as events are recorded, so a stats dump taken at
     * any point reflects them. Non-owning on both sides: this session
     * must outlive the registry's use of the group.
     */
    void registerStats(StatsRegistry &registry);

    /**
     * Serialise as a Chrome trace-event JSON object:
     * {"traceEvents": [...], "displayTimeUnit": "ns",
     *  "droppedEvents": N}. droppedEvents is always present so
     * truncation is visible (0 means the recording is complete).
     */
    void write(std::ostream &os) const;

    /** write() to a file; returns false (and warns) on I/O failure.
     *  Also warns when droppedEvents() is nonzero: the file is valid
     *  but truncated. */
    bool writeFile(const std::string &path) const;

  private:
    bool admit();
    void flow(TraceEvent::Phase phase, int pid, int tid,
              const std::string &name, const std::string &cat,
              double ts_ns, std::uint64_t flow_id);

    std::size_t maxEvents_;
    std::uint64_t dropped_ = 0;
    std::uint64_t nextFlowId_ = 1;
    std::vector<TraceEvent> events_;
    std::map<int, std::string> processNames_;
    std::map<std::pair<int, int>, std::string> threadNames_;
    StatGroup selfStats_{"trace"};
};

} // namespace pimsim

#endif // PIMSIM_COMMON_TRACE_H
