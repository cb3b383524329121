#include "serve/service_model.h"

#include "common/logging.h"

namespace pimsim::serve {

ShardServiceModel::ShardServiceModel(const SystemConfig &base,
                                     unsigned channels,
                                     std::shared_ptr<ServiceTimeCache> cache)
    : config_(base), channels_(channels), cache_(std::move(cache))
{
    PIMSIM_ASSERT(channels_ >= 1, "shard needs at least one channel");
    // The memo only needs latencies, which never depend on the data:
    // measure on a timing-only system (no operand bytes or lane math).
    config_.pim.functional = false;
    // Rebuild the stack/channel split for the shard's channel count; the
    // per-channel geometry, timing and host model stay the base's.
    if (channels_ >= config_.geometry.pchPerStack) {
        // A truncating divide here would silently model a smaller shard
        // (e.g. 24 channels on 16-pch stacks would drop 8 channels).
        PIMSIM_ASSERT(channels_ % config_.geometry.pchPerStack == 0,
                      "shard channel count ", channels_,
                      " is not a multiple of pchPerStack ",
                      config_.geometry.pchPerStack);
        config_.numStacks = channels_ / config_.geometry.pchPerStack;
    } else {
        config_.numStacks = 1;
        config_.geometry.pchPerStack = channels_;
    }
}

void
ShardServiceModel::ensureRunner()
{
    if (runner_)
        return;
    system_ = std::make_unique<PimSystem>(config_);
    host_ = std::make_unique<HostModel>(*system_);
    blas_ = config_.withPim() ? std::make_unique<PimBlas>(*system_) : nullptr;
    runner_ = std::make_unique<AppRunner>(*host_, blas_.get());
}

double
ShardServiceModel::serviceNs(const AppSpec &app, unsigned batch)
{
    PIMSIM_ASSERT(batch >= 1, "batch must be >= 1");
    const ServiceTimeCache::Key key{channels_, app.name, batch};
    if (cache_) {
        if (const double *hit = cache_->find(key))
            return *hit;
    }
    ensureRunner();
    const double ns = runner_->runApp(app, batch).ns;
    if (cache_)
        cache_->insert(key, ns);
    return ns;
}

HostFallbackModel::HostFallbackModel(const SystemConfig &base,
                                     std::shared_ptr<ServiceTimeCache> cache)
    : config_(base), cache_(std::move(cache))
{
    // The host path never issues PIM commands; measuring on a plain-HBM
    // system keeps the lazily-built measurement stack minimal.
    config_.kind = MemoryKind::Hbm;
}

void
HostFallbackModel::ensureRunner()
{
    if (runner_)
        return;
    system_ = std::make_unique<PimSystem>(config_);
    host_ = std::make_unique<HostModel>(*system_);
    runner_ = std::make_unique<AppRunner>(*host_, nullptr);
}

double
HostFallbackModel::serviceNs(const AppSpec &app, unsigned batch)
{
    PIMSIM_ASSERT(batch >= 1, "batch must be >= 1");
    const ServiceTimeCache::Key key{ServiceTimeCache::kHostChannels, app.name,
                                    batch};
    if (cache_) {
        if (const double *hit = cache_->find(key))
            return *hit;
    }
    ensureRunner();
    const double ns = runner_->runApp(app, batch).ns;
    if (cache_)
        cache_->insert(key, ns);
    return ns;
}

} // namespace pimsim::serve
