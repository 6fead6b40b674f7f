#pragma once
// Hierarchical timing wheel: the O(1) successor to the 4-ary event heap.
//
// The RUDP hot path is timer *churn*: every connection owns five timers
// (rto, connect, keepalive, ack, fec_flush) that are rearmed on nearly
// every segment and almost never allowed to fire. Through the heap each
// rearm costs two O(log n) sift passes, and at CityScale's 10k flows the
// heap is the dominant cost of the whole simulation. A timing wheel makes
// schedule, rearm and cancel O(1): an entry is appended to the bucket its
// deadline hashes to and unlinked in place by handle.
//
// Structure (classic Varghese–Lauck hierarchy): 11 levels of 64 buckets.
// Level k buckets span 2^(6k) ns, so level 0 buckets are a single
// nanosecond wide and the top level covers the whole int64 time range —
// no overflow list, every representable deadline has a bucket. An entry
// whose deadline is d lands at the lowest level whose bucket resolution
// separates d from the wheel's current time (level = highest differing
// bit of d ^ cur, divided by 6 — one XOR and a count-leading-zeros, no
// loop). As the wheel's time advances into a higher-level bucket, that
// bucket's entries cascade down to their exact lower-level position; an
// entry cascades at most 10 times over its whole life, so the amortized
// cost per event stays O(1) regardless of how far out it was scheduled.
//
// Determinism contract — the wheel fires in EXACTLY the event heap's
// order, which is what keeps CityScale's FNV-1a digests bit-identical at
// every shard count:
//
//   1. Total order is (deadline, schedule-seq): a strictly increasing
//      sequence number breaks same-nanosecond ties in insertion order,
//      identical to EventQueue.
//   2. The fire heap, a min-heap by (deadline, seq), holds every entry
//      due at or before the wheel's position; every bucketed entry is due
//      strictly after it. The position moves only when the heap is empty,
//      so the heap top is always the global minimum and a pop is one heap
//      pop. One cascade refills an empty heap: the position jumps to the
//      earliest deadline in the earliest occupied bucket (not to the
//      bucket's start) and that bucket's entries are re-placed relative to
//      it, the ones due there into the heap. The position is therefore the
//      deadline of the last cascade, not the caller's clock: after
//      pop_until() refuses an event it stands at that event, ahead of the
//      clock, and a deadline scheduled in between joins the heap (rule 3).
//      A same-instant schedule — thousands of flows sharing a tick, or a
//      firing callback scheduling a zero-delay follow-up — is one heap
//      push, O(log m) with m entries due, with no bucket rescanned.
//      Level-0 buckets are one nanosecond wide, so each holds a single
//      deadline: next_time() reads the heap top or a level-0 bucket head
//      and scans only when the earliest occupied bucket is coarser.
//   3. Late schedules — a deadline at or before the wheel's position, such
//      as a deadline before the caller's clock (legal on the realtime path)
//      or one between the clock and the position (rule 2) — join the fire
//      heap the same way, keyed by their original deadline, so they order
//      against pending work exactly as the heap would order them.
//
// tests/timer_wheel_property_test.cpp drives random schedule/rearm/
// cancel/fire interleavings (seeds 1–24), bounded pops that refuse events
// and leave the position ahead of the caller's clock, and callbacks that
// schedule and cancel from inside a same-instant batch, against the
// EventQueue as a reference model and requires identical fire order,
// identical cancel results (stale and double cancels structurally rejected
// by the same generation-validated handle scheme) and identical
// next_time().
//
// The wheel is allocation-free at steady state: entries live in a pooled
// slot table (freelist reuse, InlineFn callables), buckets are intrusive
// circular doubly-linked lists threaded through the slots, and the fire
// heap is a reused vector that keeps its high-water capacity.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "iq/common/inline_fn.hpp"
#include "iq/common/time.hpp"

namespace iq::sim {

using EventFn = InlineFn<void()>;

/// Opaque handle identifying a scheduled event; 0 is never used.
using EventId = std::uint64_t;

class TimerWheel {
 public:
  TimerWheel();

  /// Schedule `fn` at absolute time `at`. O(1) for a deadline after the
  /// wheel's position; one fire-heap push for one at or before it,
  /// which fires as soon as possible but keeps `at` as its ordering key
  /// (see header contract, rules 2–3).
  EventId schedule(TimePoint at, EventFn fn);
  /// Cancel a pending event; returns false (and does nothing) if it
  /// already fired or was cancelled before — stale handles are rejected
  /// by the generation check. O(1): unlink from the bucket in place, or
  /// leave a stale fire-heap reference for pop() to discard.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }
  /// Exact timestamp of the earliest live event; max() when empty.
  TimePoint next_time() const;

  struct Popped {
    TimePoint at;
    EventFn fn;
  };
  /// Remove and return the earliest live event if it is due at or before
  /// `bound`, else nothing (also when empty). Each call costs at most one
  /// cascade. A refusal may leave the wheel's position at the refused
  /// event, ahead of the caller's clock; later schedules between the two
  /// join the fire heap and keep the (deadline, seq) order (rules 2–3).
  std::optional<Popped> pop_until(TimePoint bound);
  /// pop_until() with no bound. Wheel must not be empty.
  Popped pop();

 private:
  static constexpr std::uint32_t kLevelBits = 6;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;  // 64
  static constexpr std::uint32_t kLevels = 11;  // 2^66 ns > any int64
  static constexpr std::uint32_t kBuckets = kLevels * kSlotsPerLevel;
  static constexpr std::uint32_t kNil = 0xffffffff;
  /// Bucket markers for entries not linked into any bucket list.
  static constexpr std::uint16_t kBucketFree = 0xffff;
  static constexpr std::uint16_t kBucketFireHeap = 0xfffe;

  struct Entry {
    std::int64_t at_ns = 0;    ///< original deadline (ordering key)
    std::uint64_t seq = 0;
    std::uint32_t generation = 1;
    std::uint32_t prev = kNil;  ///< intrusive bucket links (slot indices)
    std::uint32_t next = kNil;  ///< doubles as the freelist link
    std::uint16_t bucket = kBucketFree;  ///< owning bucket, or marker
    EventFn fn;
  };

  /// A fire-heap reference: the sort keys plus a generation-validated slot
  /// reference, so a cancel after the entry joined the heap turns the
  /// reference stale instead of corrupting the heap.
  struct FireRef {
    std::int64_t at_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  std::uint32_t alloc_slot();
  /// Return `slot` to the freelist. Its callable must be empty, or be moved
  /// out before the next schedule().
  void release(std::uint32_t slot);
  /// Link `slot`, due after the wheel's position, into the bucket its
  /// deadline belongs to relative to that position. O(1).
  void link(std::uint32_t slot);
  /// Push `slot`, due at or before the wheel's position, onto the fire
  /// heap. Kept out of line so link() inlines into schedule() and the
  /// cascade.
  void push_fire(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  /// Move the wheel position forward to the earliest deadline in `bucket`,
  /// the earliest occupied one, and re-place its entries relative to it:
  /// the ones due there into the fire heap, the rest into lower levels.
  void advance_to(std::uint32_t bucket);
  /// Earliest occupied bucket: lowest occupied level, lowest index.
  /// Precondition: at least one linked entry.
  std::uint32_t earliest_bucket() const;
  /// Earliest deadline among `bucket`'s entries; the bucket is occupied.
  std::int64_t earliest_deadline(std::uint32_t bucket) const;
  /// Move the cancelled references that bubbled to the fire heap's top
  /// out of the way; returns true if a live entry remains in the heap.
  /// Lazily mutates fire_ (benign under const — order is unaffected).
  bool fire_heap_front() const;
  /// Heap comparator: std's heap algorithms keep the greatest element on
  /// top, so ordering by "fires later" in (at, seq) — EventQueue's order —
  /// leaves the next event to fire at front(). A function object rather
  /// than a function pointer, so the heap algorithms inline it.
  struct FiresLater {
    bool operator()(const FireRef& a, const FireRef& b) const {
      if (a.at_ns != b.at_ns) return a.at_ns > b.at_ns;
      return a.seq > b.seq;
    }
  };

  std::array<std::uint32_t, kBuckets> heads_;  ///< kNil when empty
  std::array<std::uint64_t, kLevels> occupied_{};
  std::vector<Entry> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t cur_ = 0;        ///< wheel position, ns (only advances)
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;         ///< live entries (bucketed + fire heap)
  std::size_t fire_live_ = 0;    ///< live entries in the fire heap

  /// Min-heap by (at, seq) of every entry due at or before cur_ (rule 2).
  /// Cancelled entries are invalidated lazily and skipped when they
  /// surface at the top, or dropped before the heap would grow.
  mutable std::vector<FireRef> fire_;
};

}  // namespace iq::sim
