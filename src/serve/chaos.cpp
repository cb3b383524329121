#include "serve/chaos.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace pimsim::serve {

namespace {

/** Decorrelate per-shard streams under one campaign seed. */
std::uint64_t
shardSeed(std::uint64_t seed, unsigned shard)
{
    return seed ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{shard} + 1));
}

} // namespace

ChaosCampaign::ChaosCampaign(const ChaosConfig &config, unsigned num_shards)
    : config_(config),
      maxRate_(std::max(config.faultsPerSec, config.burstFaultsPerSec))
{
    PIMSIM_ASSERT(config.faultsPerSec >= 0.0 &&
                      config.burstFaultsPerSec >= 0.0,
                  "fault rates must be non-negative");
    PIMSIM_ASSERT(config.burstEndNs >= config.burstStartNs,
                  "burst window ends before it starts");
    streams_.reserve(num_shards);
    for (unsigned s = 0; s < num_shards; ++s)
        streams_.emplace_back(shardSeed(config.seed, s));
}

double
ChaosCampaign::rateAt(double ns) const
{
    if (ns >= config_.burstStartNs && ns < config_.burstEndNs)
        return config_.burstFaultsPerSec;
    return config_.faultsPerSec;
}

void
ChaosCampaign::extend(unsigned shard, double until_ns)
{
    if (maxRate_ <= 0.0)
        return;
    Stream &stream = streams_[shard];
    const double mean_gap_ns = 1e9 / maxRate_;
    while (stream.candidateNs < until_ns) {
        // Thinning: draw a homogeneous process at the envelope rate and
        // accept each candidate with probability rate(t) / maxRate —
        // yields the piecewise-constant inhomogeneous process exactly.
        const double u = stream.rng.nextDouble();
        stream.candidateNs += -std::log(1.0 - u) * mean_gap_ns;
        const double accept = rateAt(stream.candidateNs) / maxRate_;
        if (stream.rng.nextDouble() < accept) {
            stream.events.push_back(stream.candidateNs);
            ++generated_;
        }
    }
}

unsigned
ChaosCampaign::faultEvents(unsigned shard, double start_ns, double end_ns)
{
    PIMSIM_ASSERT(shard < streams_.size(), "bad shard id ", shard);
    if (end_ns <= start_ns)
        return 0;
    extend(shard, end_ns);
    const auto &ev = streams_[shard].events;
    const auto lo = std::lower_bound(ev.begin(), ev.end(), start_ns);
    const auto hi = std::lower_bound(lo, ev.end(), end_ns);
    return static_cast<unsigned>(hi - lo);
}

void
ChaosCampaign::configureSdc(unsigned num_channels,
                            unsigned units_per_channel)
{
    PIMSIM_ASSERT(num_channels > 0 && units_per_channel > 0,
                  "SDC process needs a device shape");
    PIMSIM_ASSERT(config_.sdcPerSec >= 0.0 && config_.sdcHotFactor >= 0.0,
                  "SDC rates must be non-negative");
    sdcUnitsPerChannel_ = units_per_channel;
    sdcStreams_.clear();
    sdcStreams_.reserve(num_channels);
    // A different decorrelation constant keeps the SDC streams
    // independent of the shard fault streams under the same seed.
    for (unsigned ch = 0; ch < num_channels; ++ch) {
        sdcStreams_.emplace_back(
            config_.seed ^
            (0xd1b54a32d192ed03ULL * (std::uint64_t{ch} + 1)));
    }
}

void
ChaosCampaign::extendSdc(unsigned channel, double until_ns)
{
    double rate = config_.sdcPerSec;
    if (config_.sdcHotChannel >= 0 &&
        channel == static_cast<unsigned>(config_.sdcHotChannel))
        rate *= config_.sdcHotFactor;
    if (rate <= 0.0)
        return;
    SdcStream &stream = sdcStreams_[channel];
    const double mean_gap_ns = 1e9 / rate;
    while (stream.lastNs < until_ns) {
        const double u = stream.rng.nextDouble();
        stream.lastNs += -std::log(1.0 - u) * mean_gap_ns;
        SdcEvent event;
        event.ns = stream.lastNs;
        event.channel = channel;
        event.unit = static_cast<unsigned>(
            stream.rng.nextBelow(sdcUnitsPerChannel_));
        stream.events.push_back(event);
    }
}

std::vector<SdcEvent>
ChaosCampaign::sdcEvents(unsigned channel, double start_ns, double end_ns)
{
    PIMSIM_ASSERT(channel < sdcStreams_.size(),
                  "SDC query for channel ", channel,
                  " outside the configured device (",
                  sdcStreams_.size(), " channels; call configureSdc)");
    if (end_ns <= start_ns)
        return {};
    extendSdc(channel, end_ns);
    const auto &ev = sdcStreams_[channel].events;
    const auto lo = std::lower_bound(
        ev.begin(), ev.end(), start_ns,
        [](const SdcEvent &e, double t) { return e.ns < t; });
    const auto hi = std::lower_bound(
        lo, ev.end(), end_ns,
        [](const SdcEvent &e, double t) { return e.ns < t; });
    return {lo, hi};
}

const char *
hostFaultKindName(HostFaultSpec::Kind kind)
{
    switch (kind) {
      case HostFaultSpec::Kind::Crash:
        return "crash";
      case HostFaultSpec::Kind::Straggler:
        return "straggler";
      case HostFaultSpec::Kind::FlakyLink:
        return "flaky-link";
    }
    return "?";
}

void
ChaosCampaign::addHostFault(const HostFaultSpec &spec)
{
    PIMSIM_ASSERT(spec.endNs >= spec.startNs,
                  "host-fault window ends before it starts");
    PIMSIM_ASSERT(spec.factor >= 1.0,
                  "straggler factor must be >= 1, got ", spec.factor);
    PIMSIM_ASSERT(spec.lossProb >= 0.0 && spec.lossProb <= 1.0,
                  "link loss probability must be in [0, 1], got ",
                  spec.lossProb);
    hostFaults_.push_back(spec);
}

bool
ChaosCampaign::hostCrashed(unsigned host, double start_ns, double end_ns)
{
    for (const auto &f : hostFaults_) {
        if (f.kind != HostFaultSpec::Kind::Crash || f.host != host)
            continue;
        // The crash window [s, e) intersects the closed query interval.
        if (f.startNs <= end_ns && start_ns < f.endNs)
            return true;
    }
    return false;
}

double
ChaosCampaign::hostSlowdown(unsigned host, double ns)
{
    double factor = 1.0;
    for (const auto &f : hostFaults_) {
        if (f.kind == HostFaultSpec::Kind::Straggler && f.host == host &&
            ns >= f.startNs && ns < f.endNs)
            factor *= f.factor;
    }
    return factor;
}

bool
ChaosCampaign::linkDropped(unsigned host, std::uint64_t transfer_id,
                           double ns)
{
    for (const auto &f : hostFaults_) {
        if (f.kind != HostFaultSpec::Kind::FlakyLink || f.host != host ||
            ns < f.startNs || ns >= f.endNs || f.lossProb <= 0.0)
            continue;
        // One hash draw per (campaign, host, transfer): query-order
        // independent, distinct across retries and hedged copies.
        SplitMix64 mix(config_.seed ^
                       (0xf1a4ba1e5eedULL * (std::uint64_t{host} + 1)) ^
                       transfer_id);
        const double u =
            static_cast<double>(mix.next() >> 11) * 0x1.0p-53;
        if (u < f.lossProb)
            return true;
    }
    return false;
}

} // namespace pimsim::serve
