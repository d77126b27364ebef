#include "sim/event.hh"

#include <algorithm>

namespace contutto
{

Event::~Event()
{
    // Destroying a still-scheduled event would leave a dangling
    // pointer in the queue; models must deschedule first (the
    // generation counter protects reschedules, not destruction).
    if (_scheduled)
        panic("event destroyed while scheduled");
}

void
OneShotEvent::process()
{
    // Move the callback out and return the slot to the pool before
    // user code runs: the callback may schedule new one-shots, and
    // they can reuse this very slot.
    EventQueue *eq = eq_;
    Callback fn = std::move(fn_);
    this->~OneShotEvent();
    eq->freeOneShot(this);
    fn();
}

EventQueue::EventQueue()
    : _buckets(numBuckets),
      _occ(numWheelWords, 0),
      _summary(numSummaryWords, 0)
{}

EventQueue::~EventQueue()
{
    // Destroy the one-shots still pending, and with them their
    // captures. Any other event panics in ~Event if it is destroyed
    // while scheduled, so every pool slot off the freelist is a live
    // one-shot. Walk the pool, not the overflow heap: stale heap
    // entries may point at events whose owners are already gone.
    std::vector<const void *> freeSlots;
    for (const OneShotSlot *s = _freeOneShots; s; s = s->next)
        freeSlots.push_back(s);
    std::sort(freeSlots.begin(), freeSlots.end());
    for (const auto &chunk : _poolChunks) {
        for (std::size_t i = 0; i < oneShotChunkSlots; ++i) {
            void *slot = chunk.get() + i * oneShotSlotBytes;
            if (std::binary_search(freeSlots.begin(), freeSlots.end(),
                                   slot))
                continue;
            auto *ev = static_cast<OneShotEvent *>(slot);
            deschedule(ev);
            ev->~OneShotEvent();
        }
    }
}

void
EventQueue::markOccupied(std::size_t idx)
{
    _occ[idx >> 6] |= std::uint64_t(1) << (idx & 63);
    _summary[idx >> 12] |= std::uint64_t(1) << ((idx >> 6) & 63);
}

void
EventQueue::clearOccupied(std::size_t idx)
{
    const std::size_t w = idx >> 6;
    _occ[w] &= ~(std::uint64_t(1) << (idx & 63));
    if (!_occ[w])
        _summary[w >> 6] &= ~(std::uint64_t(1) << (w & 63));
}

void
EventQueue::bucketInsert(Event *ev)
{
    const std::size_t idx = std::size_t(ev->_when) & bucketMask;
    Bucket &b = _buckets[idx];
    ev->_inWheel = true;

    if (!b.head) {
        ev->_prev = ev->_next = nullptr;
        b.head = b.tail = ev;
        markOccupied(idx);
    } else {
        // Every resident shares this event's tick (the wheel only
        // holds events within one span of curTick, so bucket indices
        // cannot alias distinct ticks). Ordering within the bucket is
        // therefore (priority, order). Fresh schedules carry the
        // largest order yet issued, making tail append the common
        // case; only overflow pulls (which keep their original order)
        // and lower-priority tails walk backwards.
        Event *after = b.tail;
        while (after
               && (after->_priority > ev->_priority
                   || (after->_priority == ev->_priority
                       && after->_order > ev->_order))) {
            after = after->_prev;
        }
        if (!after) {
            ev->_prev = nullptr;
            ev->_next = b.head;
            b.head->_prev = ev;
            b.head = ev;
        } else {
            ev->_prev = after;
            ev->_next = after->_next;
            if (after->_next)
                after->_next->_prev = ev;
            else
                b.tail = ev;
            after->_next = ev;
        }
    }

    ++b.count;
    ++_wheelCount;
    if (b.count > _ctr.bucketHighWater && !_freezeCtr)
        _ctr.bucketHighWater = b.count;
}

void
EventQueue::bucketUnlink(Event *ev)
{
    const std::size_t idx = std::size_t(ev->_when) & bucketMask;
    Bucket &b = _buckets[idx];

    if (ev->_prev)
        ev->_prev->_next = ev->_next;
    else
        b.head = ev->_next;
    if (ev->_next)
        ev->_next->_prev = ev->_prev;
    else
        b.tail = ev->_prev;

    ev->_prev = ev->_next = nullptr;
    ev->_inWheel = false;
    --b.count;
    --_wheelCount;
    if (!b.head)
        clearOccupied(idx);
}

std::size_t
EventQueue::nextOccupied(std::size_t fromBucket) const
{
    // Tail of the word the scan starts in.
    const std::size_t w = fromBucket >> 6;
    std::uint64_t bits =
        _occ[w] & (~std::uint64_t(0) << (fromBucket & 63));
    if (bits)
        return (w << 6) | std::size_t(std::countr_zero(bits));

    // Two-level walk for the next occupied word, wrapping once; a
    // wrap past the start is correct (those buckets are circularly
    // later within the span).
    const std::size_t start = (w + 1) & (numWheelWords - 1);
    std::size_t sw = start >> 6;
    std::uint64_t sbits =
        _summary[sw] & (~std::uint64_t(0) << (start & 63));
    for (std::size_t i = 0; i <= numSummaryWords; ++i) {
        if (sbits) {
            const std::size_t word =
                (sw << 6) | std::size_t(std::countr_zero(sbits));
            return (word << 6)
                   | std::size_t(std::countr_zero(_occ[word]));
        }
        sw = (sw + 1) & (numSummaryWords - 1);
        sbits = _summary[sw];
    }
    panic("event wheel occupancy bitmap inconsistent");
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    ct_assert(ev != nullptr);
    if (ev->_scheduled)
        panic("event '%s' scheduled twice", ev->name());
    if (when < _curTick)
        panic("event '%s' scheduled in the past (%llu < %llu)",
              ev->name(),
              (unsigned long long)when,
              (unsigned long long)_curTick);

    ev->_when = when;
    ev->_order = _nextOrder++;
    ev->_scheduled = true;
    ++ev->_generation;
    ++_live;
    if (!_freezeCtr) {
        ++_ctr.schedules;
        if (_live > _ctr.liveHighWater)
            _ctr.liveHighWater = _live;
    }

    if (when - _curTick < wheelSpan) {
        bucketInsert(ev);
    } else {
        ev->_inWheel = false;
        _overflow.push(OverflowEntry{when, ev->_order, ev,
                                     ev->_generation, ev->_priority});
        if (!_freezeCtr)
            ++_ctr.overflowSpills;
    }
}

void
EventQueue::deschedule(Event *ev)
{
    ct_assert(ev != nullptr);
    if (!ev->_scheduled)
        panic("deschedule of unscheduled event '%s'", ev->name());

    ev->_scheduled = false;
    // Bump the generation so a lingering overflow entry is
    // recognized as stale; harmless for wheel residents, whose
    // unlink below is a true removal.
    ++ev->_generation;
    --_live;
    if (!_freezeCtr)
        ++_ctr.deschedules;

    if (ev->_inWheel)
        bucketUnlink(ev);
}

void
EventQueue::reschedule(Event *ev, Tick when)
{
    if (!_freezeCtr)
        ++_ctr.reschedules;
    if (ev->scheduled()) {
        if (ev->_when == when) {
            // Same-tick rearm: keep the event exactly where it is,
            // original tie-break included (see the header contract).
            if (!_freezeCtr)
                ++_ctr.rescheduleNoops;
            return;
        }
        deschedule(ev);
    }
    schedule(ev, when);
}

void
EventQueue::pullOverflow()
{
    // The single staleness scan: an overflow entry is either pruned
    // here or consumed live, never re-examined.
    while (!_overflow.empty()) {
        const OverflowEntry &top = _overflow.top();
        if (top.generation != top.ev->_generation) {
            _overflow.pop();
            if (!_freezeCtr)
                ++_ctr.stalePops;
            continue;
        }
        if (top.when - _curTick >= wheelSpan)
            break;
        Event *ev = top.ev;
        _overflow.pop();
        // The event kept its original order, so bucketInsert places
        // it correctly relative to later same-tick schedules.
        bucketInsert(ev);
        if (!_freezeCtr)
            ++_ctr.overflowPulls;
    }
}

Event *
EventQueue::peekNext()
{
    if (_live == 0)
        return nullptr;
    pullOverflow();
    if (_wheelCount) {
        const std::size_t idx =
            nextOccupied(std::size_t(_curTick) & bucketMask);
        return _buckets[idx].head;
    }
    // Wheel empty: the next event sits beyond the horizon, and
    // pullOverflow just pruned any stale prefix off the heap.
    if (!_overflow.empty())
        return _overflow.top().ev;
    panic("event queue inconsistent: %llu live events unreachable",
          (unsigned long long)_live);
}

void
EventQueue::fire(Event *ev)
{
    if (ev->_inWheel) {
        bucketUnlink(ev);
    } else {
        // peekNext() returned the overflow top; pop that entry.
        _overflow.pop();
    }
    ct_assert(ev->_when >= _curTick);
    _curTick = ev->_when;
    ev->_scheduled = false;
    --_live;
    ++_ctr.processed;
    ev->process();
}

bool
EventQueue::step()
{
    Event *ev = peekNext();
    if (!ev)
        return false;
    fire(ev);
    return true;
}

Tick
EventQueue::nextEventTick()
{
    Event *ev = peekNext();
    return ev ? ev->_when : maxTick;
}

void
EventQueue::purgeStaleOverflow()
{
    if (_overflow.empty())
        return;
    std::vector<OverflowEntry> keep;
    keep.reserve(_overflow.size());
    while (!_overflow.empty()) {
        const OverflowEntry &top = _overflow.top();
        if (top.generation != top.ev->_generation) {
            if (!_freezeCtr)
                ++_ctr.stalePops;
        } else {
            keep.push_back(top);
        }
        _overflow.pop();
    }
    for (OverflowEntry &e : keep)
        _overflow.push(e);
}

Tick
EventQueue::run(Tick limit)
{
    std::uint64_t untilPoll = cancelPollInterval;
    for (;;) {
        Event *ev = peekNext();
        if (!ev)
            return _curTick;
        if (ev->_when > limit) {
            // Leave future events queued; advance time to the limit
            // so a subsequent run() continues from a known point.
            _curTick = limit;
            return _curTick;
        }
        fire(ev);
        if (--untilPoll == 0) {
            if (cancelRequested())
                return _curTick;
            untilPoll = cancelPollInterval;
        }
    }
}

void
EventQueue::checkpointSave(ckpt::Section &out) const
{
    out.putU64(_curTick);
    out.putU64(_nextOrder);
    out.putU64(_ctr.processed);
    out.putU64(_ctr.schedules);
    out.putU64(_ctr.deschedules);
    out.putU64(_ctr.reschedules);
    out.putU64(_ctr.rescheduleNoops);
    out.putU64(_ctr.overflowSpills);
    out.putU64(_ctr.overflowPulls);
    out.putU64(_ctr.stalePops);
    out.putU64(_ctr.liveHighWater);
    out.putU64(_ctr.bucketHighWater);
    out.putU64(_ctr.oneShotPoolHits);
    out.putU64(_ctr.oneShotPoolMisses);
    // Pool capacity is history-dependent state: whether a future
    // alloc hits the freelist or grows a chunk depends on how many
    // chunks the run had grown by the boundary.
    out.putU64(_poolChunks.size());
}

void
EventQueue::checkpointRestore(ckpt::Section &in)
{
    // Live Event objects belong to their owners and cannot be
    // serialized; the drain phase must have descheduled all of them
    // before the clock is rewound (see ckpt::Checkpointable).
    if (!empty())
        panic("event queue restore with %llu events still live",
              (unsigned long long)_live);
    ct_assert(_wheelCount == 0);
    // The drain phase descheduled overflow residents lazily; drop
    // their stale heap entries now so they are never pruned on the
    // resumed timeline (the uninterrupted run has no such prunes).
    _overflow = {};
    _curTick = in.getU64();
    _nextOrder = in.getU64();
    _ctr.processed = in.getU64();
    _ctr.schedules = in.getU64();
    _ctr.deschedules = in.getU64();
    _ctr.reschedules = in.getU64();
    _ctr.rescheduleNoops = in.getU64();
    _ctr.overflowSpills = in.getU64();
    _ctr.overflowPulls = in.getU64();
    _ctr.stalePops = in.getU64();
    _ctr.liveHighWater = in.getU64();
    _ctr.bucketHighWater = in.getU64();
    _ctr.oneShotPoolHits = in.getU64();
    _ctr.oneShotPoolMisses = in.getU64();
    // Regrow the one-shot pool to the boundary capacity so future
    // hit/miss accounting matches the uninterrupted run. A drained
    // quiescent queue has every slot on the freelist, so capacity is
    // the only pool state there is. The fresh run's warm-up is a
    // prefix of the saved history, so it can only be smaller.
    const std::uint64_t chunks = in.getU64();
    if (_poolChunks.size() > chunks)
        panic("event queue restore: pool outgrew the checkpoint "
              "(%llu > %llu chunks)",
              (unsigned long long)_poolChunks.size(),
              (unsigned long long)chunks);
    while (_poolChunks.size() < chunks) {
        auto chunk = std::make_unique<unsigned char[]>(
            oneShotSlotBytes * oneShotChunkSlots);
        for (std::size_t i = oneShotChunkSlots; i-- > 0;) {
            auto *slot = reinterpret_cast<OneShotSlot *>(
                chunk.get() + i * oneShotSlotBytes);
            slot->next = _freeOneShots;
            _freeOneShots = slot;
        }
        _poolChunks.push_back(std::move(chunk));
    }
}

void *
EventQueue::allocOneShot()
{
    if (!_freeOneShots) {
        ++_ctr.oneShotPoolMisses;
        auto chunk = std::make_unique<unsigned char[]>(
            oneShotSlotBytes * oneShotChunkSlots);
        for (std::size_t i = oneShotChunkSlots; i-- > 0;) {
            auto *slot = reinterpret_cast<OneShotSlot *>(
                chunk.get() + i * oneShotSlotBytes);
            slot->next = _freeOneShots;
            _freeOneShots = slot;
        }
        _poolChunks.push_back(std::move(chunk));
    } else {
        ++_ctr.oneShotPoolHits;
    }
    OneShotSlot *s = _freeOneShots;
    _freeOneShots = s->next;
    return s;
}

void
EventQueue::freeOneShot(void *p)
{
    auto *slot = static_cast<OneShotSlot *>(p);
    slot->next = _freeOneShots;
    _freeOneShots = slot;
}

} // namespace contutto
