#include "serve/shard.h"

#include <algorithm>

#include "common/logging.h"

namespace pimsim::serve {

void
assertDisjointRowRanges(const std::vector<ShardSpec> &shards)
{
    // Sort the non-empty slices by start; disjointness then reduces to
    // each slice ending before the next begins.
    std::vector<ShardSpec> sorted;
    for (const ShardSpec &s : shards) {
        if (s.numRows > 0)
            sorted.push_back(s);
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const ShardSpec &a, const ShardSpec &b) {
                  return a.firstRow < b.firstRow;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
        const unsigned prev_end =
            sorted[i - 1].firstRow + sorted[i - 1].numRows;
        PIMSIM_ASSERT(prev_end <= sorted[i].firstRow,
                      "tenant row isolation violated: slice [",
                      sorted[i - 1].firstRow, ", ", prev_end,
                      ") overlaps slice starting at ",
                      sorted[i].firstRow);
    }
}

unsigned
floorPow2(unsigned n)
{
    PIMSIM_ASSERT(n >= 1, "floorPow2 of 0");
    unsigned p = 1;
    while (p * 2 <= n)
        p *= 2;
    return p;
}

ShardPlan
ShardPlan::shared(unsigned total_channels, unsigned pim_rows,
                  unsigned num_tenants)
{
    ShardPlan plan;
    plan.shards_.push_back(
        ShardSpec{0, total_channels, 0, pim_rows});
    plan.shardOf_.assign(num_tenants, 0);
    plan.tenantsOf_.resize(1);
    for (unsigned t = 0; t < num_tenants; ++t)
        plan.tenantsOf_[0].push_back(t);
    plan.quarantined_.assign(total_channels, 0);
    plan.sharded_ = false;
    return plan;
}

ShardPlan
ShardPlan::sharded(unsigned total_channels, unsigned pim_rows,
                   const std::vector<double> &weights)
{
    PIMSIM_ASSERT(!weights.empty(), "sharded plan needs tenants");
    double total_weight = 0.0;
    for (double w : weights)
        total_weight += w > 0.0 ? w : 1.0;

    ShardPlan plan;
    plan.sharded_ = true;
    plan.quarantined_.assign(total_channels, 0);
    unsigned channel_cursor = 0;
    unsigned row_cursor = 0;
    for (std::size_t t = 0; t < weights.size(); ++t) {
        const double w = weights[t] > 0.0 ? weights[t] : 1.0;
        const double frac = w / total_weight;

        ShardSpec spec;
        const unsigned fair_channels = static_cast<unsigned>(
            static_cast<double>(total_channels) * frac);
        spec.numChannels = floorPow2(fair_channels >= 1 ? fair_channels : 1);
        spec.firstChannel = channel_cursor;
        PIMSIM_ASSERT(channel_cursor + spec.numChannels <= total_channels,
                      "shard plan overflows ", total_channels, " channels");
        channel_cursor += spec.numChannels;

        // Rows split exactly (no power-of-two constraint); the last
        // tenant absorbs the rounding remainder.
        spec.firstRow = row_cursor;
        spec.numRows =
            t + 1 == weights.size()
                ? pim_rows - row_cursor
                : static_cast<unsigned>(static_cast<double>(pim_rows) * frac);
        row_cursor += spec.numRows;

        plan.shardOf_.push_back(static_cast<unsigned>(plan.shards_.size()));
        plan.tenantsOf_.push_back({static_cast<unsigned>(t)});
        plan.shards_.push_back(spec);
    }
    return plan;
}

void
ShardPlan::quarantineChannel(unsigned channel)
{
    PIMSIM_ASSERT(channel < quarantined_.size(), "bad channel ", channel);
    quarantined_[channel] = 1;
}

void
ShardPlan::restoreChannel(unsigned channel)
{
    PIMSIM_ASSERT(channel < quarantined_.size(), "bad channel ", channel);
    quarantined_[channel] = 0;
}

bool
ShardPlan::channelQuarantined(unsigned channel) const
{
    PIMSIM_ASSERT(channel < quarantined_.size(), "bad channel ", channel);
    return quarantined_[channel] != 0;
}

unsigned
ShardPlan::activeChannelsOf(unsigned s) const
{
    const ShardSpec &spec = shards_[s];
    unsigned active = 0;
    for (unsigned c = 0; c < spec.numChannels; ++c) {
        if (!channelQuarantined(spec.firstChannel + c))
            ++active;
    }
    return active;
}

double
ShardPlan::capacityFraction(unsigned s) const
{
    const ShardSpec &spec = shards_[s];
    if (spec.numChannels == 0)
        return 1.0;
    return static_cast<double>(activeChannelsOf(s)) /
           static_cast<double>(spec.numChannels);
}

} // namespace pimsim::serve
