/**
 * @file
 * Per-shard service-time model.
 *
 * The serving engine needs serviceNs(app, batch) for a tenant pinned to
 * a g-channel shard. PIM latency is deterministic (the architecture's
 * core property), so each distinct (app, batch) is executed once on a
 * shard-sized system through the real AppRunner/PimBlas command-level
 * path and memoised; the queueing simulation then replays the measured
 * number. A cross-engine cache lets benchmark sweeps share measurements
 * between policy/rate cells instead of re-simulating identical kernels.
 */

#ifndef PIMSIM_SERVE_SERVICE_MODEL_H
#define PIMSIM_SERVE_SERVICE_MODEL_H

#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "host/host_model.h"
#include "sim/system.h"
#include "stack/app_runner.h"
#include "stack/blas.h"

namespace pimsim::serve {

/**
 * Shared (shard channels, app name, batch) -> service ns memo. Host
 * fallback timings share the map under the reserved channel count 0
 * (no real shard has zero channels).
 */
class ServiceTimeCache
{
  public:
    using Key = std::tuple<unsigned, std::string, unsigned>;

    /** Reserved channel-count key for host-fallback measurements. */
    static constexpr unsigned kHostChannels = 0;

    const double *find(const Key &key) const
    {
        const auto it = memo_.find(key);
        return it == memo_.end() ? nullptr : &it->second;
    }

    void insert(const Key &key, double ns) { memo_[key] = ns; }

    std::size_t size() const { return memo_.size(); }

  private:
    std::map<Key, double> memo_;
};

/** Timing oracle for one shard size. */
class ShardServiceModel
{
  public:
    /**
     * @param base      the serving system's configuration; geometry and
     *                  timing are inherited, only the channel count is
     *                  replaced by the shard's
     * @param channels  pseudo channels in the shard (power of two)
     * @param cache     optional cross-engine memo (may be nullptr)
     */
    ShardServiceModel(const SystemConfig &base, unsigned channels,
                      std::shared_ptr<ServiceTimeCache> cache);

    /** End-to-end service time of one dispatch of `app` at `batch`. */
    double serviceNs(const AppSpec &app, unsigned batch);

    unsigned channels() const { return channels_; }

  private:
    /** The measurement system is built on first miss only. */
    void ensureRunner();

    SystemConfig config_;
    unsigned channels_;
    std::shared_ptr<ServiceTimeCache> cache_;

    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<HostModel> host_;
    std::unique_ptr<PimBlas> blas_;
    std::unique_ptr<AppRunner> runner_;
};

/**
 * Timing oracle for the host-fallback path: the same AppSpec executed
 * entirely on the host baseline (AppRunner without PIM BLAS — the
 * golden path PimBlas itself falls back to). Used by the serving
 * engine to price batches whose shard is tripped or whose retry budget
 * is exhausted; the host path is assumed fault-immune, exactly like
 * PimBlas's hostFallback recomputation.
 */
class HostFallbackModel
{
  public:
    /**
     * @param base   the serving system's configuration (host model
     *               parameters and memory geometry are inherited)
     * @param cache  optional cross-engine memo (may be nullptr); host
     *               entries use ServiceTimeCache::kHostChannels
     */
    HostFallbackModel(const SystemConfig &base,
                      std::shared_ptr<ServiceTimeCache> cache);

    /** Host execution time of one dispatch of `app` at `batch`. */
    double serviceNs(const AppSpec &app, unsigned batch);

  private:
    /** The measurement system is built on first miss only. */
    void ensureRunner();

    SystemConfig config_;
    std::shared_ptr<ServiceTimeCache> cache_;

    std::unique_ptr<PimSystem> system_;
    std::unique_ptr<HostModel> host_;
    std::unique_ptr<AppRunner> runner_;
};

} // namespace pimsim::serve

#endif // PIMSIM_SERVE_SERVICE_MODEL_H
