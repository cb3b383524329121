/**
 * @file
 * Minimal JSON emission and validation.
 *
 * The observability layer (stats dumps, Chrome traces, bench result
 * files) emits machine-readable JSON; JsonWriter keeps that emission
 * structurally correct (balanced containers, comma placement, string
 * escaping) without pulling in an external dependency. validateJson()
 * is a strict syntax checker used by tests and smoke runs to prove an
 * emitted file parses.
 */

#ifndef PIMSIM_COMMON_JSON_H
#define PIMSIM_COMMON_JSON_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pimsim {

/** Escape a string for inclusion in a JSON document (adds no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * Streaming JSON writer with automatic comma/indent management.
 *
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("counters").beginObject();
 *   w.field("rd", 42);
 *   w.endObject();
 *   w.endObject();
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os, bool pretty = true)
        : os_(os), pretty_(pretty)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by exactly one value. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v) { return value(std::string(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v) { return value(std::uint64_t{v}); }
    JsonWriter &value(int v) { return value(std::int64_t{v}); }
    JsonWriter &value(bool v);

    template <typename T>
    JsonWriter &
    field(const std::string &name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    void prepareValue();
    void newline();

    struct Level
    {
        bool isObject = false;
        bool hasItems = false;
    };

    std::ostream &os_;
    bool pretty_;
    bool pendingKey_ = false;
    std::vector<Level> stack_;
};

/**
 * Strict JSON syntax check (RFC 8259 grammar; no extensions).
 * On failure returns false and, if `error` is non-null, a message with
 * the byte offset of the first violation.
 */
bool validateJson(const std::string &text, std::string *error = nullptr);

/** `unix_seconds` as an ISO-8601 UTC timestamp ("2026-01-31T08:15:00Z"). */
std::string iso8601Utc(std::int64_t unix_seconds);

/** The current wall clock as an ISO-8601 UTC timestamp. */
std::string iso8601UtcNow();

/**
 * Self-metrics of one bench run: how expensive the run itself was.
 * The benches measure themselves so a simulator slowdown shows up in
 * the same artifacts as a modeled-system regression.
 */
struct RunSelfMetrics
{
    double wallMs = 0.0;       ///< wall-clock time of the experiments
    double simulatedNs = 0.0;  ///< virtual time covered by the run
    std::uint64_t traceEventsRecorded = 0;
    std::uint64_t traceEventsDropped = 0;

    /** Simulated nanoseconds advanced per wall-clock second. */
    double simNsPerWallSec() const
    {
        return wallMs > 0.0 ? simulatedNs * 1e3 / wallMs : 0.0;
    }
};

/**
 * Emit the standard BENCH_*.json metadata preamble into an open object:
 * bench name, campaign seed, smoke flag, one-line config summary, and
 * the ISO-8601 generation timestamp. Every bench result writer uses
 * this so downstream tooling can rely on one schema. When `self` is
 * non-null a "self" object records the run's own cost (wall-clock ms,
 * simulated-ns-per-wall-second, trace events recorded/dropped).
 */
void writeBenchPreamble(JsonWriter &w, const std::string &bench,
                        std::uint64_t seed, bool smoke,
                        const std::string &config_summary,
                        const RunSelfMetrics *self = nullptr);

} // namespace pimsim

#endif // PIMSIM_COMMON_JSON_H
