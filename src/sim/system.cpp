#include "sim/system.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/trace.h"

namespace pimsim {

PimSystem::PimSystem(const SystemConfig &config)
    : config_(config),
      mapping_(config.geometry, config.numChannels(), config.mapping)
{
    for (unsigned ch = 0; ch < config.numChannels(); ++ch) {
        controllers_.push_back(std::make_unique<MemoryController>(
            config.geometry, config.timing, config.controller,
            config.withPim(), config.pim));
        // Channels record ECC events into the shared staging log while
        // ticking; mergeErrorStaging() replays them into errorLog_ at
        // the end of every epoch.
        controllers_.back()->setErrorSink(&errorStaging_, ch);
        nextTick_.push_back(0);

        auto &ctrl = *controllers_.back();
        const std::string base = "ch" + std::to_string(ch);
        registry_.addGroup(base + ".ctrl", &ctrl.stats());
        registry_.addGroup(base + ".pch", &ctrl.channel().stats());
        if (ctrl.pim())
            registry_.addGroup(base + ".pim", &ctrl.pim()->stats());
    }
    registry_.addGroup("serve", &serveStats_);
}

MemErrorLog &
PimSystem::errorLog()
{
    // Driver/runtime DataStore accesses between pump calls record into
    // the staging log; fold them in before the caller looks.
    mergeErrorStaging();
    return errorLog_;
}

const MemErrorLog &
PimSystem::errorLog() const
{
    const_cast<PimSystem *>(this)->mergeErrorStaging();
    return errorLog_;
}

void
PimSystem::updateDerivedStats()
{
    const double cycles = static_cast<double>(now_);
    for (auto &c : controllers_) {
        StatGroup &ctrl = c->stats();
        const std::uint64_t hits = ctrl.counter("rowHit");
        const std::uint64_t misses = ctrl.counter("rowMiss");
        if (hits + misses) {
            ctrl.set("rowHitRate", static_cast<double>(hits) /
                                       static_cast<double>(hits + misses));
        }
        const std::uint64_t enq = ctrl.counter("enqueued");
        if (enq) {
            ctrl.set("meanQueueDepth",
                     static_cast<double>(ctrl.counter("queueDepthSum")) /
                         static_cast<double>(enq));
        }
        StatGroup &pch = c->channel().stats();
        if (cycles > 0.0) {
            pch.set("busUtil",
                    static_cast<double>(pch.counter("busCycles")) / cycles);
            pch.set("pimBusUtil",
                    static_cast<double>(pch.counter("pimBusCycles")) /
                        cycles);
        }
    }
}

void
PimSystem::dumpStatsJson(std::ostream &os)
{
    updateDerivedStats();
    registry_.dumpJson(os);
}

void
PimSystem::setTraceSession(TraceSession *session)
{
    if (session)
        session->setProcessName(kTracePidDevice, "device");
    for (unsigned ch = 0; ch < controllers_.size(); ++ch) {
        if (session) {
            session->setThreadName(kTracePidDevice, static_cast<int>(ch),
                                   "ch" + std::to_string(ch));
        }
        controllers_[ch]->channel().setTraceSession(session,
                                                    static_cast<int>(ch));
    }
}

bool
PimSystem::tryEnqueue(unsigned channel, const MemRequest &request)
{
    PIMSIM_ASSERT(channel < controllers_.size(), "bad channel ", channel);
    PIMSIM_ASSERT(channel < tickedChannels(), "enqueue on channel ", channel,
                  " during a replay");
    auto &ctrl = *controllers_[channel];
    if (!ctrl.canEnqueue())
        return false;
    ctrl.enqueue(request);
    nextTick_[channel] = now_;
    if (!replaying_)
        symmetric_ = false;
    return true;
}

bool
PimSystem::beginReplay()
{
    PIMSIM_ASSERT(!replaying_, "nested replay");
    if (config_.pim.functional || !symmetric_ ||
        !errorStaging_.recent().empty())
        return false;
    const unsigned window = controllers_[0]->config().orderedWindow;
    for (const auto &c : controllers_) {
        if (!c->idle(now_) || c->channel().traced() ||
            c->nextScrubDue() != kNoCycle ||
            c->config().orderedWindow != window)
            return false;
    }
    replaying_ = true;
    return true;
}

void
PimSystem::endReplay()
{
    PIMSIM_ASSERT(replaying_, "endReplay without beginReplay");
    const MemoryController &source = *controllers_[0];
    for (unsigned ch = 1; ch < numChannels(); ++ch) {
        controllers_[ch]->copyStateFrom(source);
        nextTick_[ch] = nextTick_[0];
    }
    replaying_ = false;
    ++replayedRuns_;
}

void
PimSystem::assertTickInvariant() const
{
    // If a controller reports pending work while its next-tick hint was
    // cleared to kNoCycle, the sentinel would win the target-min below
    // and the loop would silently report "no work" with work pending.
    // The only way to get here is enqueueing on MemoryController
    // directly; tryEnqueue() re-arms the hint on every accept.
    for (unsigned ch = 0; ch < tickedChannels(); ++ch) {
        PIMSIM_ASSERT(nextTick_[ch] != kNoCycle ||
                          controllers_[ch]->idle(now_),
                      "channel ", ch,
                      " has pending work but a cleared next-tick hint; "
                      "requests must go through PimSystem::tryEnqueue");
    }
}

Cycle
PimSystem::runChannelEpoch(unsigned ch, Cycle target, bool allow_scrub)
{
    // Channels are independent below PimSystem, and every global target
    // the serial loop would pick is a no-op for channels whose own next
    // event lies later — so replaying just this channel's event (and
    // scrub) times in order is exactly the serial execution, state for
    // state. All writes land in channel-local state, the shared ECC
    // staging log, or the trace session.
    MemoryController &ctrl = *controllers_[ch];
    Cycle ch_now = now_;
    Cycle last = now_;
    for (;;) {
        Cycle next = kNoCycle;
        if (!ctrl.idle(ch_now))
            next = std::max(nextTick_[ch], ch_now);
        if (allow_scrub) {
            const Cycle scrub = ctrl.nextScrubDue();
            if (scrub != kNoCycle)
                next = std::min(next, std::max(scrub, ch_now));
        }
        if (next == kNoCycle || next > target) {
            // An idle channel's hint is dead until tryEnqueue re-arms
            // it: clear it so bypassing tryEnqueue (direct
            // MemoryController::enqueue) trips the invariant check
            // instead of silently riding a stale hint value.
            if (ctrl.idle(ch_now))
                nextTick_[ch] = kNoCycle;
            return last;
        }
        ch_now = next;
        last = next;
        if (allow_scrub)
            ctrl.scrubTick(ch_now);
        if (ctrl.idle(ch_now))
            continue;
        while (nextTick_[ch] <= ch_now) {
            const Cycle n = ctrl.tick(ch_now);
            if (n == kNoCycle) {
                nextTick_[ch] = kNoCycle;
                break;
            }
            PIMSIM_ASSERT(n > ch_now, "controller did not advance");
            nextTick_[ch] = n;
        }
    }
}

Cycle
PimSystem::runEpoch(Cycle target, bool allow_scrub)
{
    Cycle last = now_;
    for (unsigned ch = 0; ch < tickedChannels(); ++ch)
        last = std::max(last, runChannelEpoch(ch, target, allow_scrub));
    mergeErrorStaging();
    return last;
}

void
PimSystem::mergeErrorStaging()
{
    // The epoch replays channel by channel, so the staging log holds
    // channel 0's events, then channel 1's, and so on. A target-by-
    // target sweep over all channels records them in (cycle, channel)
    // order instead; the stable sort restores that order (keeping
    // same-channel, same-cycle events in recording order) so the log,
    // its bounded ring and handler calls match the sweep exactly.
    if (errorStaging_.recent().empty())
        return;
    std::vector<MemErrorEvent> staged = errorStaging_.recent();
    errorStaging_.clear();
    std::stable_sort(staged.begin(), staged.end(),
                     [](const MemErrorEvent &a, const MemErrorEvent &b) {
                         return a.cycle != b.cycle ? a.cycle < b.cycle
                                                   : a.channel < b.channel;
                     });
    for (const MemErrorEvent &e : staged)
        errorLog_.record(e);
}

bool
PimSystem::step()
{
    assertTickInvariant();
    // Find the earliest pending controller event.
    Cycle target = kNoCycle;
    for (unsigned ch = 0; ch < tickedChannels(); ++ch) {
        if (!controllers_[ch]->idle(now_))
            target = std::min(target, std::max(nextTick_[ch], now_));
    }
    if (target == kNoCycle)
        return false;

    runEpoch(target, /*allow_scrub=*/false);
    now_ = target;
    return true;
}

void
PimSystem::advance(Cycle cycles)
{
    assertTickInvariant();
    // Patrol-scrub steps ride on advance()'s explicit time budget
    // (step()/runUntilIdle() must stay scrub-free or an enabled scrubber
    // would keep them from ever going idle).
    const Cycle deadline = now_ + cycles;
    runEpoch(deadline, /*allow_scrub=*/true);
    now_ = deadline;
}

void
PimSystem::runUntilIdle()
{
    assertTickInvariant();
    // One unbounded epoch: every channel drains its own backlog to
    // completion.
    now_ = runEpoch(kNoCycle - 1, /*allow_scrub=*/false);
}

bool
PimSystem::allIdle() const
{
    return std::all_of(controllers_.begin(),
                       controllers_.begin() + tickedChannels(),
                       [this](const auto &c) { return c->idle(now_); });
}

std::uint64_t
PimSystem::totalChannelStat(const std::string &stat) const
{
    std::uint64_t total = 0;
    for (const auto &c : controllers_)
        total += c->channel().stats().counter(stat);
    return total;
}

std::uint64_t
PimSystem::totalCtrlStat(const std::string &stat) const
{
    std::uint64_t total = 0;
    for (const auto &c : controllers_)
        total += c->stats().counter(stat);
    return total;
}

std::uint64_t
PimSystem::totalPimStat(const std::string &stat) const
{
    std::uint64_t total = 0;
    for (const auto &c : controllers_) {
        if (c->pim())
            total += c->pim()->stats().counter(stat);
    }
    return total;
}

} // namespace pimsim
