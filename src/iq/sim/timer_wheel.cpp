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
  e.fn.reset();
  e.bucket = kBucketFree;
  e.prev = kNil;
  e.next = free_head_;
  free_head_ = slot;
}

void TimerWheel::place(std::uint32_t slot) {
  Entry& e = slots_[slot];
  // Due at or before the wheel position (a same-instant follow-up, a
  // cascade landing on the position, or a late deadline on the realtime
  // path): straight into the fire heap, keyed by the original deadline.
  if (e.at_ns <= 0 || static_cast<std::uint64_t>(e.at_ns) <= cur_) {
    push_fire(slot);
    return;
  }
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
  // The position keeps its fields above the bucket's level, takes the
  // bucket's index at that level and zero below it. Lower levels are empty
  // (the bucket is the earliest occupied one), and each re-placed entry
  // lands in the fire heap when due exactly at the new position or at a
  // nonzero index of a lower level, so this one bucket is all that moves.
  const std::uint32_t shift = bucket / kSlotsPerLevel * kLevelBits;
  const std::uint32_t above = shift + kLevelBits;
  const std::uint64_t high = above >= 64 ? 0ull : cur_ & ~((1ull << above) - 1);
  cur_ = high | static_cast<std::uint64_t>(bucket % kSlotsPerLevel) << shift;
  while (heads_[bucket] != kNil) {
    const std::uint32_t slot = heads_[bucket];
    unlink(slot);
    place(slot);
  }
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
  place(slot);
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
  release(slot);
  --live_;
  return true;
}

TimePoint TimerWheel::next_time() const {
  if (fire_heap_front()) return TimePoint::from_ns(fire_.front().at_ns);
  if (live_ == 0) return TimePoint::max();
  // Every live entry is in a bucket. A level-0 bucket holds one deadline;
  // a coarser one is scanned for its earliest.
  const std::uint32_t bucket = earliest_bucket();
  const std::uint32_t head = heads_[bucket];
  std::int64_t best = slots_[head].at_ns;
  if (bucket >= kSlotsPerLevel) {
    for (std::uint32_t s = slots_[head].next; s != head; s = slots_[s].next) {
      best = std::min(best, slots_[s].at_ns);
    }
  }
  return TimePoint::from_ns(best);
}

TimerWheel::Popped TimerWheel::pop() {
  IQ_CHECK_MSG(live_ > 0, "pop() on empty TimerWheel");
  // While the fire heap holds a live entry, its top is the global (at, seq)
  // minimum: the heap holds everything due at or before the wheel position
  // and the buckets only what is due after it. Once it is empty, walk the
  // position to the start of the earliest occupied bucket, cascading higher
  // levels down, until some entry lands on the position itself (everything
  // the cascade pushes is live, so an empty heap means none has yet).
  if (!fire_heap_front()) {
    do {
      advance_to(earliest_bucket());
    } while (fire_.empty());
  }
  std::pop_heap(fire_.begin(), fire_.end(), FiresLater{});
  const FireRef ref = fire_.back();
  fire_.pop_back();
  Entry& e = slots_[ref.slot];
  Popped out{TimePoint::from_ns(ref.at_ns), std::move(e.fn)};
  release(ref.slot);
  --fire_live_;
  --live_;
  return out;
}

}  // namespace iq::sim
