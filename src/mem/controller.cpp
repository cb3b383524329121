#include "mem/controller.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>

#include "common/logging.h"

namespace pimsim {

namespace {

/** Stat names by CommandType (commandTypeName() behind a prefix). */
constexpr const char *kCmdStatNames[] = {
    "cmd.ACT", "cmd.PRE", "cmd.PREA", "cmd.RD", "cmd.WR", "cmd.REF"};
constexpr const char *kPrepStatNames[] = {
    "prep.ACT", "prep.PRE", "prep.PREA", "prep.RD", "prep.WR", "prep.REF"};
static_assert(std::size(kCmdStatNames) == kNumCommandTypes &&
              std::size(kPrepStatNames) == kNumCommandTypes);

// BankQueue fields for MemoryController::refill.
constexpr unsigned kWantRd = 1;    ///< hit[0]
constexpr unsigned kWantWr = 2;    ///< hit[1]
constexpr unsigned kWantUser = 4;  ///< rowUser
constexpr unsigned kWantHost = 8;  ///< firstHost
constexpr unsigned kWantRow = kWantRd | kWantWr | kWantUser;

bool
isColumn(RequestType type)
{
    return type == RequestType::Read || type == RequestType::Write;
}

} // namespace

void
MemoryController::List::pushBack(std::vector<Queued> &slots,
                                 Links Queued::*links, unsigned slot)
{
    Links &l = slots[slot].*links;
    l.prev = tail;
    l.next = kNil;
    (tail == kNil ? head : (slots[tail].*links).next) = slot;
    tail = slot;
}

void
MemoryController::List::unlink(std::vector<Queued> &slots,
                               Links Queued::*links, unsigned slot)
{
    const Links l = slots[slot].*links;
    (l.prev == kNil ? head : (slots[l.prev].*links).next) = l.next;
    (l.next == kNil ? tail : (slots[l.next].*links).prev) = l.prev;
}

MemoryController::MemoryController(const HbmGeometry &geom,
                                   const HbmTiming &timing,
                                   const ControllerConfig &config,
                                   bool with_pim,
                                   const PimConfig &pim_config)
    : geom_(geom), timing_(timing), config_(config),
      channel_(std::make_unique<PseudoChannel>(geom, timing)),
      nextRefresh_(timing.tREFI), nextScrub_(config.scrubInterval),
      stats_("ctrl")
{
    // Every window holds at least the oldest request: a zero window or
    // depth is a configuration error, not a mode.
    PIMSIM_ASSERT(config.queueDepth >= 1 && config.reorderWindow >= 1 &&
                      config.orderedWindow >= 1,
                  "controller queueDepth, reorderWindow and orderedWindow "
                  "must be >= 1");
    PIMSIM_ASSERT(config.queueDepth <= UINT16_MAX,
                  "controller queueDepth above ", UINT16_MAX);
    PIMSIM_ASSERT(geom.banksPerPch() <= kMaxBanks,
                  "MemoryController supports at most ", kMaxBanks,
                  " banks per pseudo channel");
    if (with_pim)
        pimChannel_ = std::make_unique<PimChannel>(pim_config, *channel_);
    for (std::size_t t = 0; t < kNumCommandTypes; ++t) {
        cmdStat_[t] = StatCounter(&stats_, kCmdStatNames[t]);
        prepStat_[t] = StatCounter(&stats_, kPrepStatNames[t]);
    }
}

void
MemoryController::copyStateFrom(const MemoryController &other)
{
    PIMSIM_ASSERT(!pimChannel_ == !other.pimChannel_,
                  "copying controller state across PIM and plain HBM");
    config_ = other.config_;
    channel_->copyStateFrom(*other.channel_);
    if (pimChannel_)
        pimChannel_->copyStateFrom(*other.pimChannel_);
    slots_ = other.slots_;
    burstCount_ = other.burstCount_;
    burstShift_ = other.burstShift_;
    freeSlot_ = other.freeSlot_;
    queued_ = other.queued_;
    nextSeq_ = other.nextSeq_;
    age_ = other.age_;
    kinds_ = other.kinds_;
    banks_ = other.banks_;
    orderedEdge_ = other.orderedEdge_;
    reorderEdge_ = other.reorderEdge_;
    pick_ = other.pick_;
    pickStale_ = other.pickStale_;
    pendingResponses_ = other.pendingResponses_;
    nextRefresh_ = other.nextRefresh_;
    refreshing_ = other.refreshing_;
    lastColWasWrite_ = other.lastColWasWrite_;
    lastNow_ = other.lastNow_;
    nextScrub_ = other.nextScrub_;
    scrubPos_ = other.scrubPos_;
    stats_.copyValuesFrom(other.stats_);
}

void
MemoryController::setOrderedWindow(unsigned window)
{
    PIMSIM_ASSERT(window >= 1, "orderedWindow must be >= 1");
    config_.orderedWindow = window;
    orderedEdge_ = slotAt(window);
    pickStale_ = true;
}

void
MemoryController::setErrorSink(MemErrorLog *log, unsigned channel)
{
    errorLog_ = log;
    channelId_ = channel;
    channel_->dataStore().setEccHook(
        [this](unsigned bank, unsigned row, unsigned col,
               EccStatus status) {
            const bool fatal = status == EccStatus::Uncorrectable;
            stats_.add(fatal ? "ecc.uncorrectable" : "ecc.corrected");
            if (!errorLog_)
                return;
            MemErrorEvent event;
            event.severity = fatal
                                 ? MemErrorEvent::Severity::Uncorrectable
                                 : MemErrorEvent::Severity::Corrected;
            event.origin = MemErrorEvent::Origin::Access;
            event.channel = channelId_;
            event.bank = bank;
            event.row = row;
            event.col = col;
            event.cycle = lastNow_;
            errorLog_->record(event);
        });
}

Cycle
MemoryController::scrubTick(Cycle now)
{
    if (!config_.scrubEnabled)
        return kNoCycle;
    if (now < nextScrub_)
        return nextScrub_;
    lastNow_ = now;
    const Cycle interval = std::max<Cycle>(config_.scrubInterval, 1);
    nextScrub_ = now + interval;

    // Patrol scrub steals only idle cycles: defer while demand requests
    // are queued (Section VIII's scrubber must not cost PIM bandwidth).
    if (queued_ != 0) {
        stats_.add("scrub.deferred");
        return nextScrub_;
    }

    DataStore &store = channel_->dataStore();
    const auto rows = store.allocatedRows();
    if (rows.empty())
        return nextScrub_;
    const std::size_t bursts = rows.size() * geom_.colsPerRow;
    stats_.add("scrub.steps");

    for (unsigned n = 0; n < config_.scrubBurstsPerStep; ++n) {
        if (scrubPos_ >= bursts) {
            scrubPos_ = 0;
            stats_.add("scrub.passes");
        }
        const auto &[bank, row] = rows[scrubPos_ / geom_.colsPerRow];
        const auto col =
            static_cast<unsigned>(scrubPos_ % geom_.colsPerRow);
        const ScrubOutcome outcome = store.scrubBurst(bank, row, col);
        stats_.add("scrub.bursts");
        if (outcome.corrected) {
            stats_.add("scrub.corrected", outcome.corrected);
        }
        if (outcome.uncorrectable) {
            stats_.add("scrub.uncorrectable", outcome.uncorrectable);
        }
        if (errorLog_ && (outcome.corrected || outcome.uncorrectable)) {
            MemErrorEvent event;
            event.origin = MemErrorEvent::Origin::Scrub;
            event.channel = channelId_;
            event.bank = bank;
            event.row = row;
            event.col = col;
            event.cycle = now;
            event.severity = MemErrorEvent::Severity::Corrected;
            for (std::uint64_t i = 0; i < outcome.corrected; ++i)
                errorLog_->record(event);
            event.severity = MemErrorEvent::Severity::Uncorrectable;
            for (std::uint64_t i = 0; i < outcome.uncorrectable; ++i)
                errorLog_->record(event);
        }
        ++scrubPos_;
    }
    return nextScrub_;
}

unsigned
MemoryController::slotAt(unsigned size) const
{
    unsigned s = age_.head;
    for (unsigned i = 0; i < size && s != kNil; ++i)
        s = slots_[s].age.next;
    return s;
}

unsigned
MemoryController::burstBucket(const DramCoord &c) const
{
    const std::uint64_t key =
        (std::uint64_t{c.row} << 32) ^ (std::uint64_t{c.col} << 16) ^
        (c.bankGroup << 12) ^ (c.bank << 8) ^ c.channel;
    return static_cast<unsigned>((key * 0x9e3779b97f4a7c15ull) >>
                                 burstShift_);
}

void
MemoryController::enqueue(const MemRequest &request)
{
    PIMSIM_ASSERT(canEnqueue(), "enqueue on full controller queue");
    if (slots_.empty()) {
        slots_.resize(config_.queueDepth);
        for (unsigned s = 0; s < config_.queueDepth; ++s)
            slots_[s].age.next = s + 1 < config_.queueDepth ? s + 1 : kNil;
        freeSlot_ = 0;
        // About eight buckets per slot keeps bucket collisions rare.
        unsigned bits = 6;
        while ((1u << bits) < 8 * config_.queueDepth)
            ++bits;
        burstCount_.assign(std::size_t{1} << bits, 0);
        burstShift_ = 64 - bits;
    }
    const unsigned slot = freeSlot_;
    freeSlot_ = slots_[slot].age.next;
    Queued &entry = slots_[slot];
    entry = Queued{};
    entry.request = request;
    entry.seq = nextSeq_++;

    if (queued_ == config_.orderedWindow)
        orderedEdge_ = slot;
    if (queued_ == config_.reorderWindow)
        reorderEdge_ = slot;
    age_.pushBack(slots_, &Queued::age, slot);
    kinds_[request.ordered].pushBack(slots_, &Queued::kind, slot);
    if (isColumn(request.type)) {
        const auto &c = request.coord;
        const unsigned flat = c.bankGroup * geom_.banksPerBankGroup + c.bank;
        PIMSIM_ASSERT(flat < geom_.banksPerPch(), "request to bank ", flat,
                      " of a ", geom_.banksPerPch(), "-bank channel");
        BankQueue &q = banks_[flat];
        // Only the oldest access to a burst address may be picked as a
        // row hit (read-after-write / write-after-write ordering).
        if (burstCount_[burstBucket(c)]++ != 0) {
            for (unsigned o = q.list.tail; o != kNil;
                 o = slots_[o].bank.prev) {
                if (slots_[o].request.coord == c) {
                    entry.blocked = true;
                    break;
                }
            }
        }
        q.list.pushBack(slots_, &Queued::bank, slot);
        // The newest request fills only the fields no older one holds.
        const unsigned empty = (q.hit[0] == kNil ? kWantRd : 0) |
                               (q.hit[1] == kNil ? kWantWr : 0) |
                               (q.rowUser == kNil ? kWantUser : 0) |
                               (q.firstHost == kNil ? kWantHost : 0);
        refill(q, slot, empty);
    }
    ++queued_;
    pickStale_ = true;
    enqueuedStat_.add();
    // Arrival-sampled queue depth: queueDepthSum / enqueued = mean depth
    // an arriving request finds ahead of it.
    queueDepthSumStat_.add(queued_ - 1);
}

void
MemoryController::remove(unsigned slot)
{
    Queued &entry = slots_[slot];
    // Every window that held this request now reaches one further.
    for (unsigned *edge : {&orderedEdge_, &reorderEdge_}) {
        if (*edge != kNil && entry.seq <= slots_[*edge].seq)
            *edge = slots_[*edge].age.next;
    }
    age_.unlink(slots_, &Queued::age, slot);
    kinds_[entry.request.ordered].unlink(slots_, &Queued::kind, slot);

    if (isColumn(entry.request.type)) {
        const auto &c = entry.request.coord;
        BankQueue &q = banks_[c.bankGroup * geom_.banksPerBankGroup + c.bank];
        // The next access to the same burst becomes the oldest one.
        unsigned heir = kNil;
        if (--burstCount_[burstBucket(c)] != 0 && !entry.blocked) {
            for (unsigned o = entry.bank.next; o != kNil;
                 o = slots_[o].bank.next) {
                if (slots_[o].request.coord == c) {
                    heir = o;
                    slots_[o].blocked = false;
                    break;
                }
            }
        }
        const unsigned next = entry.bank.next;
        q.list.unlink(slots_, &Queued::bank, slot);

        // Fields that named this request move to the next match.
        unsigned lost = 0;
        for (unsigned dir = 0; dir < 2; ++dir) {
            if (q.hit[dir] == slot) {
                q.hit[dir] = kNil;
                lost |= dir ? kWantWr : kWantRd;
            }
        }
        if (q.rowUser == slot) {
            q.rowUser = kNil;
            lost |= kWantUser;
        }
        if (q.firstHost == slot) {
            q.firstHost = kNil;
            lost |= kWantHost;
        }
        refill(q, next, lost);
        // An unblocked heir at the open row may be the oldest hit now.
        if (heir != kNil && q.open && c.row == q.openRow) {
            unsigned &hit =
                q.hit[slots_[heir].request.type == RequestType::Write];
            if (seqOf(heir) < seqOf(hit))
                hit = heir;
        }
    }

    --queued_;
    entry.age.next = freeSlot_;
    freeSlot_ = slot;
    pickStale_ = true;
}

void
MemoryController::refill(BankQueue &q, unsigned from, unsigned want)
{
    if (!q.open)
        want &= ~kWantRow;
    for (unsigned s = from; s != kNil && want; s = slots_[s].bank.next) {
        const Queued &e = slots_[s];
        if ((want & kWantHost) && !e.request.ordered) {
            q.firstHost = s;
            want &= ~kWantHost;
        }
        if (e.request.coord.row != q.openRow)
            continue;
        if (want & kWantUser) {
            q.rowUser = s;
            want &= ~kWantUser;
        }
        const bool writes = e.request.type == RequestType::Write;
        const unsigned bit = writes ? kWantWr : kWantRd;
        if (!e.blocked && (want & bit)) {
            q.hit[writes] = s;
            want &= ~bit;
        }
    }
}

void
MemoryController::syncBanks()
{
    for (unsigned b = 0; b < geom_.banksPerPch(); ++b) {
        const Bank &bank = channel_->bank(b);
        BankQueue &q = banks_[b];
        const bool open = bank.state == BankState::Active;
        if (open == q.open && (!open || bank.openRow == q.openRow))
            continue;
        q.open = open;
        q.openRow = bank.openRow;
        q.hit = {kNil, kNil};
        q.rowUser = kNil;
        refill(q, q.list.head, kWantRow);
    }
}

IssueResult
MemoryController::issue(const Command &cmd, Cycle now)
{
    const IssueResult result = channel_->issue(cmd, now);
    // Only row commands change which rows are open (the PIM mode FSM
    // runs inside this call too); re-derive the banks they touched.
    if (cmd.type != CommandType::Rd && cmd.type != CommandType::Wr)
        syncBanks();
    pickStale_ = true;
    return result;
}

Command
MemoryController::nextCommandFor(const Queued &entry) const
{
    const auto &r = entry.request;
    const unsigned bg = r.coord.bankGroup;
    const unsigned ba = r.coord.bank;
    const unsigned flat = bg * geom_.banksPerBankGroup + ba;
    const Bank &bank = channel_->bank(flat);

    switch (r.type) {
      case RequestType::Read:
      case RequestType::Write:
      case RequestType::Activate:
        if (bank.state == BankState::Active && bank.openRow != r.coord.row)
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
    PIMSIM_PANIC("bad request type");
}

unsigned
MemoryController::pickCandidate() const
{
    const unsigned head = age_.head;
    if (head == kNil)
        return kNil;

    // The candidate window: ordered (PIM) requests never cross unordered
    // ones and only reorder among the first orderedWindow ordered
    // entries (the AAM tolerance of Section IV-C). It is the run of
    // requests sharing the head's orderedness, capped at the window.
    const bool head_ordered = slots_[head].request.ordered;
    const unsigned edge = head_ordered ? orderedEdge_ : reorderEdge_;
    const std::uint64_t end =
        std::min(seqOf(edge), seqOf(kinds_[!head_ordered].head));

    // FR-FCFS with read/write streaks: switching the data-bus direction
    // costs a turnaround penalty, so among row hits prefer the oldest
    // request matching the last issued column type (write draining),
    // then any oldest row hit, then the oldest request.
    std::array<unsigned, 2> best{kNil, kNil}; // [0] same, [1] flipped
    std::array<std::uint64_t, 2> best_seq{end, end};
    for (unsigned b = 0; b < geom_.banksPerPch(); ++b) {
        for (unsigned flip = 0; flip < 2; ++flip) {
            const unsigned s = banks_[b].hit[lastColWasWrite_ ^ flip];
            if (s != kNil && slots_[s].seq < best_seq[flip]) {
                best[flip] = s;
                best_seq[flip] = slots_[s].seq;
            }
        }
    }
    if (best[0] != kNil)
        return best[0];
    return best[1] != kNil ? best[1] : head;
}

Cycle
MemoryController::rowPrepTick(Cycle now, unsigned chosen)
{
    // The oldest unordered row-miss of each bank in the window, unless
    // another windowed request still wants the bank's open row. Visited
    // oldest first (as a scan of the window would): the first whose PRE
    // or ACT is legal right now issues.
    const std::uint64_t end = seqOf(reorderEdge_);
    std::array<unsigned, kMaxBanks> order{};
    unsigned n = 0;
    for (unsigned b = 0; b < geom_.banksPerPch(); ++b) {
        const BankQueue &q = banks_[b];
        unsigned cand = q.firstHost;
        if (cand == chosen) {
            do
                cand = slots_[cand].bank.next;
            while (cand != kNil && slots_[cand].request.ordered);
        }
        // A windowed request at the open row keeps the bank; with none,
        // every windowed request of the bank is a row miss.
        if (seqOf(cand) >= end || (q.open && seqOf(q.rowUser) < end))
            continue;
        unsigned i = n++;
        for (; i > 0 && seqOf(order[i - 1]) > seqOf(cand); --i)
            order[i] = order[i - 1];
        order[i] = cand;
    }

    Cycle best_wait = kNoCycle;
    for (unsigned i = 0; i < n; ++i) {
        const auto &c = slots_[order[i]].request.coord;
        const BankQueue &q =
            banks_[c.bankGroup * geom_.banksPerBankGroup + c.bank];
        const Command prep = q.open
                                 ? Command::pre(c.bankGroup, c.bank)
                                 : Command::act(c.bankGroup, c.bank, c.row);
        const Cycle t = channel_->earliestIssue(prep, now);
        if (t == now) {
            issue(prep, now);
            prepStat_[static_cast<std::size_t>(prep.type)].add();
            return now;
        }
        best_wait = std::min(best_wait, t);
    }
    return best_wait;
}

void
MemoryController::completeRequest(const Queued &entry,
                                  const IssueResult &result, Cycle now)
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

Cycle
MemoryController::refreshTick(Cycle now)
{
    if (channel_->anyBankActive()) {
        const Command cmd = Command::preAll();
        const Cycle t = channel_->earliestIssue(cmd, now);
        if (t == now) {
            issue(cmd, now);
            refreshPreAStat_.add();
            return now + 1;
        }
        return t;
    }
    const Command cmd = Command::refresh();
    const Cycle t = channel_->earliestIssue(cmd, now);
    if (t == now) {
        issue(cmd, now);
        refreshStat_.add();
        refreshing_ = false;
        nextRefresh_ = now + timing_.tREFI;
        return queued_ == 0 ? nextRefresh_ : now + 1;
    }
    return t;
}

Cycle
MemoryController::tick(Cycle now)
{
    lastNow_ = now;
    // The earliest moment anything interesting can happen next.
    Cycle next = kNoCycle;
    if (!pendingResponses_.empty()) {
        for (const auto &r : pendingResponses_)
            next = std::min(next, std::max(r.completion, now + 1));
    }

    if (config_.refreshEnabled && !refreshing_ && now >= nextRefresh_)
        refreshing_ = true;

    if (refreshing_)
        return std::min(next, refreshTick(now));

    // Nothing the pick reads changes between enqueues, removals and
    // issues, so a tick after none of them reuses the last pick.
    if (pickStale_) {
        pick_ = pickCandidate();
        pickStale_ = false;
    }
    if (pick_ == kNil) {
        if (config_.refreshEnabled)
            next = std::min(next, std::max(nextRefresh_, now + 1));
        return next;
    }

    const unsigned slot = pick_;
    Queued &entry = slots_[slot];
    const auto &r = entry.request;
    const unsigned flat =
        r.coord.bankGroup * geom_.banksPerBankGroup + r.coord.bank;
    const Bank &bank = channel_->bank(flat);

    // Row-management requests that are already satisfied complete
    // without touching the command bus.
    const bool act_satisfied =
        r.type == RequestType::Activate && bank.rowOpen(r.coord.row);
    const bool pre_satisfied =
        r.type == RequestType::Precharge && bank.state == BankState::Idle;
    const bool prea_satisfied =
        r.type == RequestType::PrechargeAll && channel_->allBanksIdle();
    if (act_satisfied || pre_satisfied || prea_satisfied) {
        completeRequest(entry, IssueResult{}, now);
        remove(slot);
        return std::min(next, now + 1);
    }

    const Command cmd = nextCommandFor(entry);
    const Cycle t = channel_->earliestIssue(cmd, now);
    if (t != now) {
        // The preferred command is blocked (tCCD gap, turnaround, ...):
        // use the spare command-bus slot to prepare a row for a pending
        // row-miss (PRE/ACT overlap with the column stream). Only host
        // (unordered) requests are eligible — hoisting an ACT over
        // outstanding AB-PIM triggers would change the open row they
        // execute against.
        if (!entry.request.ordered) {
            const Cycle prep = rowPrepTick(now, slot);
            if (prep == now)
                return std::min(next, now + 1);
            next = std::min(next, prep);
        }
        return std::min(next, t);
    }

    const IssueResult result = issue(cmd, now);
    cmdStat_[static_cast<std::size_t>(cmd.type)].add();

    const bool is_column =
        cmd.type == CommandType::Rd || cmd.type == CommandType::Wr;

    // A PRE or ACT issued on behalf of a column request marks it as a
    // row-buffer miss; the hit/miss verdict is recorded when its column
    // command finally issues.
    if (!is_column && isColumn(r.type))
        entry.rowMissed = true;
    const bool request_done =
        is_column ||
        (r.type == RequestType::Activate && cmd.type == CommandType::Act) ||
        (r.type == RequestType::Precharge && cmd.type == CommandType::Pre) ||
        (r.type == RequestType::PrechargeAll &&
         cmd.type == CommandType::PreA);

    if (is_column) {
        lastColWasWrite_ = cmd.type == CommandType::Wr;
        colIssuedStat_.add();
        (entry.rowMissed ? rowMissStat_ : rowHitStat_).add();
        if (result.intercepted) {
            pimIssuedStat_.add();
            // Command-mix bucket for AB-PIM triggers (a RD/WR column
            // the PIM logic consumed): cmd.RD/cmd.WR count the bus
            // command, cmd.RD-PIM separates the PIM-executing subset.
            rdPimStat_.add();
        }
    }

    if (request_done) {
        completeRequest(entry, result, now);
        remove(slot);
    }
    return std::min(next, now + 1);
}

std::vector<MemResponse>
MemoryController::drainResponses(Cycle now)
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

} // namespace pimsim
