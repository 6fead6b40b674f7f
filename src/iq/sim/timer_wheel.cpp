#include "iq/sim/timer_wheel.hpp"

#include <algorithm>
#include <bit>

#include "iq/common/check.hpp"

namespace iq::sim {

namespace {
// An EventId packs (slot index + 1) in the high 32 bits and the slot's
// generation at schedule time in the low 32 — the same encoding as the
// event heap's, so handles behave identically across both schedulers.
constexpr EventId make_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(slot) + 1) << 32 | generation;
}
}  // namespace

TimerWheel::TimerWheel() { heads_.fill(kNil); }

std::uint32_t TimerWheel::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  IQ_CHECK_MSG(slot != kNil, "timer wheel slot space exhausted");
  slots_.emplace_back();
  return slot;
}

void TimerWheel::release(std::uint32_t slot) {
  Entry& e = slots_[slot];
  ++e.generation;
  e.bucket = kBucketFree;
  e.prev = kNil;
  e.next = free_head_;
  free_head_ = slot;
}

void TimerWheel::link(std::uint32_t slot) {
  Entry& e = slots_[slot];
  const auto d = static_cast<std::uint64_t>(e.at_ns);
  const std::uint32_t level =
      static_cast<std::uint32_t>(63 - std::countl_zero(d ^ cur_)) / kLevelBits;
  const auto idx = static_cast<std::uint32_t>(d >> (level * kLevelBits)) &
                   (kSlotsPerLevel - 1);
  const std::uint32_t bucket = level * kSlotsPerLevel + idx;
  std::uint32_t& head = heads_[bucket];
  if (head == kNil) {
    head = slot;
    e.prev = e.next = slot;
    occupied_[level] |= 1ull << idx;
  } else {
    const std::uint32_t tail = slots_[head].prev;
    e.prev = tail;
    e.next = head;
    slots_[tail].next = slot;
    slots_[head].prev = slot;
  }
  e.bucket = static_cast<std::uint16_t>(bucket);
}

void TimerWheel::push_fire(std::uint32_t slot) {
  // Cancelled references stay in the heap until they surface. Before it
  // would grow, drop them if they make up half of it, so a run of late
  // schedule+cancel pairs with no pop in between keeps it within twice its
  // live entries.
  if (fire_.size() == fire_.capacity() && 2 * fire_live_ <= fire_.size()) {
    std::erase_if(fire_, [this](const FireRef& r) {
      return slots_[r.slot].generation != r.generation;
    });
    std::make_heap(fire_.begin(), fire_.end(), FiresLater{});
  }
  Entry& e = slots_[slot];
  e.bucket = kBucketFireHeap;
  fire_.push_back(FireRef{e.at_ns, e.seq, slot, e.generation});
  std::push_heap(fire_.begin(), fire_.end(), FiresLater{});
  ++fire_live_;
}

void TimerWheel::unlink(std::uint32_t slot) {
  Entry& e = slots_[slot];
  const std::uint32_t bucket = e.bucket;
  if (e.next == slot) {
    heads_[bucket] = kNil;
    occupied_[bucket / kSlotsPerLevel] &=
        ~(1ull << (bucket % kSlotsPerLevel));
  } else {
    slots_[e.prev].next = e.next;
    slots_[e.next].prev = e.prev;
    if (heads_[bucket] == slot) heads_[bucket] = e.next;
  }
  e.prev = e.next = kNil;
  e.bucket = kBucketFree;
}

void TimerWheel::advance_to(std::uint32_t bucket) {
  // The position jumps to the bucket's earliest deadline. The bucket is the
  // earliest occupied one, so that deadline shares the position's fields
  // above the bucket's level and every other bucket stays where it is
  // relative to it. Of this bucket's entries, the ones due exactly there go
  // to the fire heap and the rest link one level lower or more: one
  // cascade, and the heap is never empty after it.
  const std::int64_t earliest = earliest_deadline(bucket);
  cur_ = static_cast<std::uint64_t>(earliest);
  const std::uint32_t head = heads_[bucket];
  heads_[bucket] = kNil;
  occupied_[bucket / kSlotsPerLevel] &= ~(1ull << (bucket % kSlotsPerLevel));
  std::uint32_t slot = head;
  do {
    const std::uint32_t next = slots_[slot].next;
    if (slots_[slot].at_ns == earliest) {
      push_fire(slot);
    } else {
      link(slot);
    }
    slot = next;
  } while (slot != head);
}

std::uint32_t TimerWheel::earliest_bucket() const {
  // Levels partition pending time ranges in ascending order (level 0 is the
  // wheel's own 64 ns block, level 1 the rest of its 4096 ns block, ...), so
  // the lowest occupied level's lowest set bit is the earliest range.
  for (std::uint32_t level = 0; level < kLevels; ++level) {
    if (occupied_[level] != 0) {
      return level * kSlotsPerLevel +
             static_cast<std::uint32_t>(std::countr_zero(occupied_[level]));
    }
  }
  IQ_CHECK_MSG(false, "earliest_bucket() on empty wheel");
  return 0;
}

std::int64_t TimerWheel::earliest_deadline(std::uint32_t bucket) const {
  // A level-0 bucket holds one deadline; a coarser one is scanned.
  const std::uint32_t head = heads_[bucket];
  std::int64_t best = slots_[head].at_ns;
  if (bucket >= kSlotsPerLevel) {
    for (std::uint32_t s = slots_[head].next; s != head; s = slots_[s].next) {
      best = std::min(best, slots_[s].at_ns);
    }
  }
  return best;
}

bool TimerWheel::fire_heap_front() const {
  while (!fire_.empty()) {
    const FireRef& top = fire_.front();
    if (slots_[top.slot].generation == top.generation) return true;
    // A cancel invalidated this reference after it joined the heap; discard.
    std::pop_heap(fire_.begin(), fire_.end(), FiresLater{});
    fire_.pop_back();
  }
  return false;
}

EventId TimerWheel::schedule(TimePoint at, EventFn fn) {
  const std::uint32_t slot = alloc_slot();
  Entry& e = slots_[slot];
  e.at_ns = at.ns();
  e.seq = next_seq_++;
  e.fn = std::move(fn);
  // Due at or before the wheel position (a same-instant follow-up, a
  // deadline between the caller's clock and a position a refused bounded
  // pop left ahead of it, or a late deadline on the realtime path):
  // straight into the fire heap, keyed by the original deadline.
  if (e.at_ns <= 0 || static_cast<std::uint64_t>(e.at_ns) <= cur_) {
    push_fire(slot);
  } else {
    link(slot);
  }
  ++live_;
  return make_id(slot, e.generation);
}

bool TimerWheel::cancel(EventId id) {
  const std::uint64_t hi = id >> 32;
  if (hi == 0 || hi > slots_.size()) return false;
  const auto slot = static_cast<std::uint32_t>(hi - 1);
  Entry& e = slots_[slot];
  // Generation mismatch = the handle's event already fired or was cancelled;
  // stale handles are rejected without touching any accounting.
  if (e.generation != static_cast<std::uint32_t>(id) ||
      e.bucket == kBucketFree) {
    return false;
  }
  if (e.bucket == kBucketFireHeap) {
    // Its reference stays in the heap: the generation bump in release()
    // turns it stale, and fire_heap_front() discards it.
    --fire_live_;
  } else {
    unlink(slot);
  }
  e.fn.reset();
  release(slot);
  --live_;
  return true;
}

TimePoint TimerWheel::next_time() const {
  if (fire_heap_front()) return TimePoint::from_ns(fire_.front().at_ns);
  if (live_ == 0) return TimePoint::max();
  return TimePoint::from_ns(earliest_deadline(earliest_bucket()));
}

std::optional<TimerWheel::Popped> TimerWheel::pop_until(TimePoint bound) {
  // While the fire heap holds a live entry, its top is the global (at, seq)
  // minimum: the heap holds everything due at or before the wheel position
  // and the buckets only what is due after it. An empty heap is refilled by
  // one cascade, even when its event is then refused: the next call needs
  // it anyway.
  if (!fire_heap_front()) {
    if (live_ == 0) return std::nullopt;
    advance_to(earliest_bucket());
  }
  if (fire_.front().at_ns > bound.ns()) return std::nullopt;
  std::pop_heap(fire_.begin(), fire_.end(), FiresLater{});
  const FireRef ref = fire_.back();
  fire_.pop_back();
  release(ref.slot);
  --fire_live_;
  --live_;
  // Built in place in the caller's object: the callable moves once, and
  // the released slot is not reused before it has.
  return std::optional<Popped>(std::in_place, TimePoint::from_ns(ref.at_ns),
                               std::move(slots_[ref.slot].fn));
}

TimerWheel::Popped TimerWheel::pop() {
  IQ_CHECK_MSG(live_ > 0, "pop() on empty TimerWheel");
  return std::move(*pop_until(TimePoint::max()));
}

}  // namespace iq::sim
