#include "common/trace.h"

#include <algorithm>
#include <fstream>
#include <numeric>
#include <ostream>

#include "common/json.h"
#include "common/logging.h"
#include "common/stats_registry.h"

namespace pimsim {

bool
TraceSession::admit()
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        selfStats_.add("eventsDropped");
        return false;
    }
    selfStats_.add("eventsRecorded");
    return true;
}

void
TraceSession::span(int pid, int tid, const std::string &name,
                   const std::string &cat, double start_ns, double dur_ns)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = TraceEvent::Phase::Complete;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.cat = cat;
    e.tsUs = start_ns / 1e3;
    e.durUs = dur_ns / 1e3;
    events_.push_back(std::move(e));
}

void
TraceSession::span(int pid, int tid, const std::string &name,
                   const std::string &cat, double start_ns, double dur_ns,
                   const std::string &arg_key, const std::string &arg_value)
{
    span(pid, tid, name, cat, start_ns, dur_ns,
         {{arg_key, arg_value}});
}

void
TraceSession::span(int pid, int tid, const std::string &name,
                   const std::string &cat, double start_ns, double dur_ns,
                   std::vector<std::pair<std::string, std::string>> args)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = TraceEvent::Phase::Complete;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.cat = cat;
    e.tsUs = start_ns / 1e3;
    e.durUs = dur_ns / 1e3;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceSession::instant(int pid, int tid, const std::string &name,
                      const std::string &cat, double ts_ns)
{
    instant(pid, tid, name, cat, ts_ns, {});
}

void
TraceSession::instant(int pid, int tid, const std::string &name,
                      const std::string &cat, double ts_ns,
                      std::vector<std::pair<std::string, std::string>> args)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = TraceEvent::Phase::Instant;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.cat = cat;
    e.tsUs = ts_ns / 1e3;
    e.args = std::move(args);
    events_.push_back(std::move(e));
}

void
TraceSession::flow(TraceEvent::Phase phase, int pid, int tid,
                   const std::string &name, const std::string &cat,
                   double ts_ns, std::uint64_t flow_id)
{
    if (!admit())
        return;
    TraceEvent e;
    e.phase = phase;
    e.pid = pid;
    e.tid = tid;
    e.name = name;
    e.cat = cat;
    e.tsUs = ts_ns / 1e3;
    e.flowId = flow_id;
    events_.push_back(std::move(e));
}

void
TraceSession::flowStart(int pid, int tid, const std::string &name,
                        const std::string &cat, double ts_ns,
                        std::uint64_t flow_id)
{
    flow(TraceEvent::Phase::FlowStart, pid, tid, name, cat, ts_ns, flow_id);
}

void
TraceSession::flowStep(int pid, int tid, const std::string &name,
                       const std::string &cat, double ts_ns,
                       std::uint64_t flow_id)
{
    flow(TraceEvent::Phase::FlowStep, pid, tid, name, cat, ts_ns, flow_id);
}

void
TraceSession::flowEnd(int pid, int tid, const std::string &name,
                      const std::string &cat, double ts_ns,
                      std::uint64_t flow_id)
{
    flow(TraceEvent::Phase::FlowEnd, pid, tid, name, cat, ts_ns, flow_id);
}

void
TraceSession::setProcessName(int pid, const std::string &name)
{
    processNames_[pid] = name;
}

void
TraceSession::setThreadName(int pid, int tid, const std::string &name)
{
    threadNames_[{pid, tid}] = name;
}

void
TraceSession::registerStats(StatsRegistry &registry)
{
    registry.addGroup("trace", &selfStats_);
}

namespace {

const char *
phaseString(TraceEvent::Phase phase)
{
    switch (phase) {
      case TraceEvent::Phase::Complete:
        return "X";
      case TraceEvent::Phase::Instant:
        return "i";
      case TraceEvent::Phase::FlowStart:
        return "s";
      case TraceEvent::Phase::FlowStep:
        return "t";
      case TraceEvent::Phase::FlowEnd:
        return "f";
    }
    return "X";
}

} // namespace

void
TraceSession::write(std::ostream &os) const
{
    JsonWriter w(os, /*pretty=*/false);
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Metadata events first: they name the tracks in the viewer.
    for (const auto &[pid, name] : processNames_) {
        w.beginObject();
        w.field("name", "process_name");
        w.field("ph", "M");
        w.field("pid", pid);
        w.field("tid", 0);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
    }
    for (const auto &[key, name] : threadNames_) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", key.first);
        w.field("tid", key.second);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
    }

    // Serialise in timestamp order so every track reads monotonically.
    // Layered recorders emit enclosing spans after their children (the
    // duration is only known at the end), so recording order is not
    // time order; the stable sort keeps nesting ties deterministic.
    std::vector<std::size_t> order(events_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                         return events_[a].tsUs < events_[b].tsUs;
                     });

    for (const std::size_t i : order) {
        const TraceEvent &e = events_[i];
        w.beginObject();
        w.field("name", e.name);
        if (!e.cat.empty())
            w.field("cat", e.cat);
        w.field("ph", phaseString(e.phase));
        w.field("pid", e.pid);
        w.field("tid", e.tid);
        w.field("ts", e.tsUs);
        switch (e.phase) {
          case TraceEvent::Phase::Complete:
            w.field("dur", e.durUs);
            break;
          case TraceEvent::Phase::Instant:
            w.field("s", "t"); // thread-scoped instant
            break;
          case TraceEvent::Phase::FlowStart:
          case TraceEvent::Phase::FlowStep:
            w.field("id", e.flowId);
            break;
          case TraceEvent::Phase::FlowEnd:
            w.field("id", e.flowId);
            w.field("bp", "e"); // bind to the enclosing slice
            break;
        }
        if (!e.args.empty()) {
            w.key("args").beginObject();
            for (const auto &[k, v] : e.args)
                w.field(k, v);
            w.endObject();
        }
        w.endObject();
    }

    w.endArray();
    w.field("displayTimeUnit", "ns");
    w.field("droppedEvents", dropped_);
    w.endObject();
    os << "\n";
}

bool
TraceSession::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        PIMSIM_WARN("cannot open trace output '", path, "'");
        return false;
    }
    if (dropped_ > 0) {
        PIMSIM_WARN("trace '", path, "' is truncated: ", dropped_,
                    " events dropped past the ", maxEvents_,
                    "-event cap");
    }
    write(os);
    return static_cast<bool>(os);
}

} // namespace pimsim
