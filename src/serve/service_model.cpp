#include "serve/service_model.h"

#include "common/logging.h"

namespace pimsim::serve {

ServiceTimeCache::AppId
ServiceTimeCache::intern(const AppSpec &app)
{
    const auto [it, added] =
        ids_.try_emplace(app.name, static_cast<AppId>(apps_.size()));
    if (added) {
        apps_.push_back(app);
    } else {
        PIMSIM_ASSERT(apps_[it->second].layers == app.layers, "app '",
                      app.name,
                      "' is already interned with different layers");
    }
    return it->second;
}

std::size_t
ServiceTimeCache::tableOf(unsigned channels, MemoryKind kind)
{
    for (std::size_t i = 0; i < tables_.size(); ++i) {
        if (tables_[i].channels == channels && tables_[i].kind == kind)
            return i;
    }
    tables_.push_back(Table{channels, kind, {}});
    return tables_.size() - 1;
}

ShardServiceModel::ShardServiceModel(const SystemConfig &base,
                                     unsigned channels,
                                     std::shared_ptr<ServiceTimeCache> cache)
    : config_(base), channels_(channels),
      cache_(cache ? std::move(cache) : std::make_shared<ServiceTimeCache>())
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
    table_ = cache_->tableOf(channels_, config_.kind);
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
ShardServiceModel::serviceNs(ServiceTimeCache::AppId app, unsigned batch)
{
    PIMSIM_ASSERT(batch >= 1, "batch must be >= 1");
    PIMSIM_ASSERT(app < cache_->apps_.size(), "app id ", app,
                  " was not interned in this model's cache");
    auto &rows = cache_->tables_[table_].ns;
    if (app >= rows.size())
        rows.resize(app + 1);
    auto &row = rows[app];
    if (batch >= row.size())
        row.resize(batch + 1, -1.0);
    double &ns = row[batch];
    if (ns < 0.0) {
        ensureRunner();
        ns = runner_->runApp(cache_->apps_[app], batch).ns;
        ++cache_->measured_;
    }
    return ns;
}

} // namespace pimsim::serve
