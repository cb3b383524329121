/**
 * @file
 * Per-shard service-time model.
 *
 * The serving engines need serviceNs(app, batch) for work pinned to a
 * g-channel shard, and for the host golden path a tripped shard falls
 * back to. PIM latency is deterministic (the architecture's core
 * property), so each distinct (app, batch) is executed once on a
 * shard-sized system through the real AppRunner/PimBlas command-level
 * path and memoised; the queueing simulation then replays the measured
 * number. Latency never depends on the data, so that system is
 * timing-only (PimConfig::functional off). A cross-engine cache lets
 * benchmark sweeps share measurements between policy/rate cells instead
 * of re-simulating identical kernels.
 */

#ifndef PIMSIM_SERVE_SERVICE_MODEL_H
#define PIMSIM_SERVE_SERVICE_MODEL_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host/host_model.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"

namespace pimsim::serve {

/**
 * Measured service ns per (app, batch), shared by every model built on
 * it. Apps are interned once by name into dense ids that are valid on
 * all of those models; interning never measures. Each measurement
 * system (shard channel count and memory kind, so a PIM shard and the
 * host path never alias) keeps its own id x batch table.
 */
class ServiceTimeCache
{
  public:
    using AppId = std::uint32_t;

    /**
     * The id of `app`, registered on first sight. A name seen before
     * must carry the same layers: two shapes under one name would
     * silently share a memo entry.
     */
    AppId intern(const AppSpec &app);

    /** Measured (app, batch) entries across all tables. */
    std::size_t size() const { return measured_; }

  private:
    friend class ShardServiceModel;

    struct Table
    {
        unsigned channels;
        MemoryKind kind;
        /** ns[app][batch]; negative = not measured yet. */
        std::vector<std::vector<double>> ns;
    };

    /** Index of the table for one measurement system (made on demand). */
    std::size_t tableOf(unsigned channels, MemoryKind kind);

    std::map<std::string, AppId> ids_;
    std::vector<AppSpec> apps_;
    std::vector<Table> tables_;
    std::size_t measured_ = 0;
};

/** Timing oracle for one shard size (PIM) or for the host path (HBM). */
class ShardServiceModel
{
  public:
    /**
     * @param base      the system configuration; geometry, timing and
     *                  memory kind are inherited, only the channel
     *                  count is replaced by the shard's. An HBM `base`
     *                  prices the host golden path (AppRunner without
     *                  PIM BLAS).
     * @param channels  pseudo channels in the shard (power of two)
     * @param cache     cross-engine memo; nullptr gives the model a
     *                  private one
     */
    ShardServiceModel(const SystemConfig &base, unsigned channels,
                      std::shared_ptr<ServiceTimeCache> cache);

    /** Id of `app` in this model's cache (see ServiceTimeCache). */
    ServiceTimeCache::AppId intern(const AppSpec &app)
    {
        return cache_->intern(app);
    }

    /** End-to-end service time of one dispatch of `app` at `batch`,
     *  measured on first use. */
    double serviceNs(ServiceTimeCache::AppId app, unsigned batch);

    double serviceNs(const AppSpec &app, unsigned batch)
    {
        return serviceNs(intern(app), batch);
    }

    unsigned channels() const { return channels_; }

  private:
    /** The measurement system is built on first miss only. */
    void ensureRunner();

    SystemConfig config_;
    unsigned channels_;
    std::shared_ptr<ServiceTimeCache> cache_;
    std::size_t table_;

    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<HostModel> host_;
    std::unique_ptr<PimBlas> blas_;
    std::unique_ptr<AppRunner> runner_;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_SERVICE_MODEL_H
