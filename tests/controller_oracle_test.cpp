/**
 * @file
 * Reference-model test of the FR-FCFS scheduler.
 *
 * ReferenceController is the straightforward scan scheduler: every tick
 * it walks the candidate window for the pick and rescans older entries
 * for same-burst conflicts, and row preparation rescans the window for
 * requests that still want each open row. MemoryController keeps the
 * same decisions in incremental per-bank state. Both run the same
 * seeded random request streams over their own PseudoChannel and must
 * agree on every tick's return value, every issued command, every
 * drained response and every counter.
 */

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mem/controller.h"

namespace pimsim {
namespace {

/** The window-rescanning scheduler MemoryController must reproduce. */
class ReferenceController
{
  public:
    ReferenceController(const HbmGeometry &geom, const HbmTiming &timing,
                        const ControllerConfig &config)
        : geom_(geom), timing_(timing), config_(config),
          channel_(geom, timing), nextRefresh_(timing.tREFI),
          stats_("ctrl")
    {}

    bool canEnqueue() const { return queue_.size() < config_.queueDepth; }

    void enqueue(const MemRequest &request)
    {
        queue_.push_back(Queued{request, false});
        stats_.add("enqueued");
        stats_.add("queueDepthSum", queue_.size() - 1);
    }

    void setOrderedWindow(unsigned window)
    {
        config_.orderedWindow = window;
    }

    Cycle tick(Cycle now)
    {
        Cycle next = kNoCycle;
        for (const auto &r : pendingResponses_)
            next = std::min(next, std::max(r.completion, now + 1));

        if (config_.refreshEnabled && !refreshing_ && now >= nextRefresh_)
            refreshing_ = true;
        if (refreshing_)
            return std::min(next, refreshTick(now));

        const auto candidate = pickCandidate();
        if (!candidate) {
            if (config_.refreshEnabled)
                next = std::min(next, std::max(nextRefresh_, now + 1));
            return next;
        }

        Queued &entry = queue_[*candidate];
        const auto &r = entry.request;
        const Bank &bank = channel_.bank(flatOf(r));
        const bool act_satisfied =
            r.type == RequestType::Activate && bank.rowOpen(r.coord.row);
        const bool pre_satisfied = r.type == RequestType::Precharge &&
                                   bank.state == BankState::Idle;
        const bool prea_satisfied =
            r.type == RequestType::PrechargeAll && channel_.allBanksIdle();
        if (act_satisfied || pre_satisfied || prea_satisfied) {
            complete(entry, IssueResult{}, now);
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(*candidate));
            return std::min(next, now + 1);
        }

        const Command cmd = nextCommandFor(entry);
        const Cycle t = channel_.earliestIssue(cmd, now);
        if (t != now) {
            if (!entry.request.ordered) {
                const Cycle prep = rowPrepTick(now, *candidate);
                if (prep == now)
                    return std::min(next, now + 1);
                next = std::min(next, prep);
            }
            return std::min(next, t);
        }

        const IssueResult result = channel_.issue(cmd, now);
        stats_.add(std::string("cmd.") + commandTypeName(cmd.type));
        const bool is_column =
            cmd.type == CommandType::Rd || cmd.type == CommandType::Wr;
        if (!is_column && isColumn(r))
            entry.rowMissed = true;
        const bool done =
            is_column ||
            (r.type == RequestType::Activate &&
             cmd.type == CommandType::Act) ||
            (r.type == RequestType::Precharge &&
             cmd.type == CommandType::Pre) ||
            (r.type == RequestType::PrechargeAll &&
             cmd.type == CommandType::PreA);
        if (is_column) {
            lastColWasWrite_ = cmd.type == CommandType::Wr;
            stats_.add("colIssued");
            stats_.add(entry.rowMissed ? "rowMiss" : "rowHit");
        }
        if (done) {
            complete(entry, result, now);
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(*candidate));
        }
        return std::min(next, now + 1);
    }

    std::vector<MemResponse> drainResponses(Cycle now)
    {
        std::vector<MemResponse> done;
        auto it = pendingResponses_.begin();
        while (it != pendingResponses_.end()) {
            if (it->completion <= now) {
                done.push_back(*it);
                it = pendingResponses_.erase(it);
            } else {
                ++it;
            }
        }
        std::sort(done.begin(), done.end(),
                  [](const MemResponse &a, const MemResponse &b) {
                      return a.completion < b.completion ||
                             (a.completion == b.completion && a.id < b.id);
                  });
        return done;
    }

    bool idle(Cycle now) const
    {
        if (!queue_.empty())
            return false;
        for (const auto &r : pendingResponses_) {
            if (r.completion > now)
                return false;
        }
        return true;
    }

    PseudoChannel &channel() { return channel_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Queued
    {
        MemRequest request;
        bool rowMissed = false;
    };

    static bool isColumn(const MemRequest &r)
    {
        return r.type == RequestType::Read || r.type == RequestType::Write;
    }

    unsigned flatOf(const MemRequest &r) const
    {
        return r.coord.bankGroup * geom_.banksPerBankGroup + r.coord.bank;
    }

    bool isRowHit(const Queued &e) const
    {
        return channel_.bank(flatOf(e.request)).rowOpen(e.request.coord.row);
    }

    Command nextCommandFor(const Queued &entry) const
    {
        const auto &r = entry.request;
        const unsigned bg = r.coord.bankGroup;
        const unsigned ba = r.coord.bank;
        const Bank &bank = channel_.bank(flatOf(r));
        switch (r.type) {
          case RequestType::Read:
          case RequestType::Write:
          case RequestType::Activate:
            if (bank.state == BankState::Active &&
                bank.openRow != r.coord.row)
                return Command::pre(bg, ba);
            if (bank.state == BankState::Idle)
                return Command::act(bg, ba, r.coord.row);
            return r.type == RequestType::Write
                       ? Command::wr(bg, ba, r.coord.col, r.data)
                       : Command::rd(bg, ba, r.coord.col);
          case RequestType::Precharge:
            return Command::pre(bg, ba);
          case RequestType::PrechargeAll:
            return Command::preAll();
        }
        return Command::preAll();
    }

    std::optional<std::size_t> pickCandidate() const
    {
        if (queue_.empty())
            return std::nullopt;
        const bool head_ordered = queue_.front().request.ordered;
        const unsigned window =
            head_ordered ? config_.orderedWindow : config_.reorderWindow;
        std::size_t limit = 0;
        for (; limit < queue_.size() && limit < window; ++limit) {
            if (queue_[limit].request.ordered != head_ordered)
                break;
        }
        if (limit == 0)
            limit = 1;

        auto conflicts_with_older = [&](std::size_t i) {
            const auto &c = queue_[i].request.coord;
            for (std::size_t j = 0; j < i; ++j) {
                const auto &o = queue_[j].request;
                if (isColumn(o) && o.coord == c)
                    return true;
            }
            return false;
        };

        std::optional<std::size_t> any_hit;
        for (std::size_t i = 0; i < limit; ++i) {
            const auto &e = queue_[i];
            if (isColumn(e.request) && isRowHit(e) &&
                !conflicts_with_older(i)) {
                if ((e.request.type == RequestType::Write) ==
                    lastColWasWrite_)
                    return i;
                if (!any_hit)
                    any_hit = i;
            }
        }
        return any_hit ? any_hit : std::optional<std::size_t>(0);
    }

    Cycle rowPrepTick(Cycle now, std::size_t chosen)
    {
        const std::size_t limit =
            std::min<std::size_t>(queue_.size(), config_.reorderWindow);
        Cycle best_wait = kNoCycle;
        for (std::size_t i = 0; i < limit; ++i) {
            if (i == chosen)
                continue;
            const auto &e = queue_[i];
            if (e.request.ordered || !isColumn(e.request) || isRowHit(e))
                continue;
            const unsigned flat = flatOf(e.request);
            const Bank &bank = channel_.bank(flat);
            if (bank.state == BankState::Active) {
                bool wanted = false;
                for (std::size_t j = 0; j < limit && !wanted; ++j) {
                    const auto &o = queue_[j].request;
                    wanted = j != i && isColumn(o) && flatOf(o) == flat &&
                             o.coord.row == bank.openRow;
                }
                if (wanted)
                    continue;
            }
            const auto &c = e.request.coord;
            const Command prep =
                bank.state == BankState::Active
                    ? Command::pre(c.bankGroup, c.bank)
                    : Command::act(c.bankGroup, c.bank, c.row);
            const Cycle t = channel_.earliestIssue(prep, now);
            if (t == now) {
                channel_.issue(prep, now);
                stats_.add(std::string("prep.") +
                           commandTypeName(prep.type));
                return now;
            }
            best_wait = std::min(best_wait, t);
        }
        return best_wait;
    }

    Cycle refreshTick(Cycle now)
    {
        if (channel_.anyBankActive()) {
            const Command cmd = Command::preAll();
            const Cycle t = channel_.earliestIssue(cmd, now);
            if (t == now) {
                channel_.issue(cmd, now);
                stats_.add("refreshPreA");
                return now + 1;
            }
            return t;
        }
        const Command cmd = Command::refresh();
        const Cycle t = channel_.earliestIssue(cmd, now);
        if (t == now) {
            channel_.issue(cmd, now);
            stats_.add("refresh");
            refreshing_ = false;
            nextRefresh_ = now + timing_.tREFI;
            return queue_.empty() ? nextRefresh_ : now + 1;
        }
        return t;
    }

    void complete(const Queued &entry, const IssueResult &result, Cycle now)
    {
        MemResponse resp;
        resp.id = entry.request.id;
        resp.type = entry.request.type;
        switch (entry.request.type) {
          case RequestType::Read:
            resp.data = result.data;
            resp.completion = result.dataCycle;
            resp.ecc = result.ecc;
            break;
          case RequestType::Write:
            resp.completion = now + timing_.tCWL + timing_.tBL;
            break;
          default:
            resp.completion = now;
            break;
        }
        pendingResponses_.push_back(resp);
    }

    HbmGeometry geom_;
    HbmTiming timing_;
    ControllerConfig config_;
    PseudoChannel channel_;
    std::deque<Queued> queue_;
    std::vector<MemResponse> pendingResponses_;
    Cycle nextRefresh_;
    bool refreshing_ = false;
    bool lastColWasWrite_ = false;
    StatGroup stats_;
};

/** Random requests over a few banks, rows and columns, so row hits,
 *  misses and repeated burst addresses are all common. */
class StreamGen
{
  public:
    explicit StreamGen(Rng &rng) : rng_(rng)
    {
        const unsigned banks = 1 + static_cast<unsigned>(rng_.nextBelow(3));
        for (unsigned i = 0; i < banks; ++i)
            banks_.push_back(static_cast<unsigned>(rng_.nextBelow(16)));
        rows_ = 1 + static_cast<unsigned>(rng_.nextBelow(3));
        cols_ = 1 + static_cast<unsigned>(rng_.nextBelow(4));
    }

    MemRequest next()
    {
        // Long runs of one orderedness with strays of the other, like a
        // host stream interleaved with PIM kernels.
        if (rng_.nextBelow(10) == 0)
            orderedPhase_ = !orderedPhase_;
        MemRequest r;
        const auto kind = rng_.nextBelow(100);
        r.type = kind < 45   ? RequestType::Read
                 : kind < 82 ? RequestType::Write
                 : kind < 90 ? RequestType::Activate
                 : kind < 96 ? RequestType::Precharge
                             : RequestType::PrechargeAll;
        const unsigned flat = banks_[rng_.nextBelow(banks_.size())];
        r.coord.channel = rng_.nextBelow(8) == 0 ? 1 : 0;
        r.coord.bankGroup = flat / 4;
        r.coord.bank = flat % 4;
        r.coord.row = static_cast<unsigned>(rng_.nextBelow(rows_));
        r.coord.col = static_cast<unsigned>(rng_.nextBelow(cols_));
        for (auto &b : r.data)
            b = static_cast<std::uint8_t>(rng_.nextBelow(256));
        r.id = id_++;
        r.ordered = orderedPhase_ ? rng_.nextBelow(5) != 0
                                  : rng_.nextBelow(10) == 0;
        return r;
    }

  private:
    Rng &rng_;
    std::vector<unsigned> banks_;
    unsigned rows_;
    unsigned cols_;
    std::uint64_t id_ = 0;
    bool orderedPhase_ = false;
};

void
expectSameResponses(const std::vector<MemResponse> &want,
                    const std::vector<MemResponse> &got, Cycle now)
{
    ASSERT_EQ(want.size(), got.size()) << "at cycle " << now;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].id, got[i].id) << "at cycle " << now;
        EXPECT_EQ(want[i].type, got[i].type) << "at cycle " << now;
        EXPECT_EQ(want[i].data, got[i].data) << "at cycle " << now;
        EXPECT_EQ(want[i].completion, got[i].completion)
            << "at cycle " << now;
        EXPECT_EQ(want[i].ecc, got[i].ecc) << "at cycle " << now;
    }
}

/** Run one seeded stream through both controllers in lock-step. */
void
runStream(std::uint64_t seed)
{
    SCOPED_TRACE("stream seed " + std::to_string(seed));
    Rng rng(seed);
    HbmGeometry geom;
    geom.rowsPerBank = 16;
    HbmTiming timing;
    timing.tREFI = 600 + static_cast<unsigned>(rng.nextBelow(1200));
    ControllerConfig config;
    config.queueDepth = rng.nextBelow(2) ? 6 : 96;
    config.reorderWindow = rng.nextBelow(2) ? 4 : 48;
    const unsigned windows[] = {1, 8, 1000};
    config.orderedWindow = windows[rng.nextBelow(3)];
    config.refreshEnabled = rng.nextBelow(4) != 0;

    ReferenceController ref(geom, timing, config);
    MemoryController ctrl(geom, timing, config, false, PimConfig{});
    std::ostringstream ref_trace;
    std::ostringstream ctrl_trace;
    ref.channel().setTrace(&ref_trace);
    ctrl.channel().setTrace(&ctrl_trace);

    StreamGen gen(rng);
    const unsigned steps = 1500;
    const unsigned rewindow_at = static_cast<unsigned>(rng.nextBelow(steps));
    Cycle now = 0;
    Cycle hint = kNoCycle;
    for (unsigned step = 0; step < steps; ++step) {
        if (step == rewindow_at) {
            const unsigned w = windows[rng.nextBelow(3)];
            ref.setOrderedWindow(w);
            ctrl.setOrderedWindow(w);
        }
        // Enqueue a few requests (the same cycle may be ticked again
        // afterwards, as PimSystem does after tryEnqueue).
        if (rng.nextBelow(2) == 0) {
            const auto burst = 1 + rng.nextBelow(4);
            for (unsigned i = 0; i < burst && ref.canEnqueue(); ++i) {
                ASSERT_TRUE(ctrl.canEnqueue());
                const MemRequest r = gen.next();
                ref.enqueue(r);
                ctrl.enqueue(r);
            }
            ASSERT_EQ(ref.canEnqueue(), ctrl.canEnqueue());
        } else {
            // Tick at the hint, early or late.
            const auto how = rng.nextBelow(10);
            if (hint == kNoCycle || how < 2)
                now += 1 + rng.nextBelow(4);
            else if (how < 8)
                now = std::max(now + 1, hint);
            else
                now = std::max(now + 1, hint) + rng.nextBelow(40);
        }
        const Cycle want = ref.tick(now);
        hint = ctrl.tick(now);
        ASSERT_EQ(want, hint) << "tick at cycle " << now;
        ASSERT_EQ(ref_trace.str(), ctrl_trace.str()) << "at cycle " << now;
        ref_trace.str("");
        ctrl_trace.str("");
        expectSameResponses(ref.drainResponses(now),
                            ctrl.drainResponses(now), now);
        if (::testing::Test::HasFailure())
            return;
    }

    // Drain everything still queued.
    for (unsigned guard = 0; !ref.idle(now) && guard < 100000; ++guard) {
        ASSERT_FALSE(ctrl.idle(now));
        if (hint != kNoCycle)
            now = std::max(now + 1, hint);
        const Cycle want = ref.tick(now);
        hint = ctrl.tick(now);
        ASSERT_EQ(want, hint) << "drain tick at cycle " << now;
        ASSERT_EQ(ref_trace.str(), ctrl_trace.str()) << "at cycle " << now;
        ref_trace.str("");
        ctrl_trace.str("");
        expectSameResponses(ref.drainResponses(now),
                            ctrl.drainResponses(now), now);
    }
    EXPECT_TRUE(ctrl.idle(now));
    EXPECT_EQ(ref.stats().counters(), ctrl.stats().counters());
    EXPECT_EQ(ref.channel().stats().counters(),
              ctrl.channel().stats().counters());
}

TEST(ControllerOracle, MatchesReferenceScheduler)
{
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        runStream(seed);
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace pimsim
