#pragma once
// Receiver-side reassembly with adaptive-reliability skips.
//
// Segments arrive out of order; the cumulative point advances over
// contiguous received-or-skipped sequences. Messages occupy contiguous
// sequence ranges, so as the point advances, the open message's
// accumulator fills up; a message completes as *delivered* when all
// fragments were received, or as *dropped* when any fragment was skipped
// (sender ADVANCE). Messages therefore finalize in order — the in-order
// delivery RUDP promises — and an honest peer never has two open at once.
//
// Everything held above the cumulative point lives in one window of
// `window` sequences, a ring whose slot i is seq cum() + i. A segment or
// skip outside the window is refused, so a lying peer's state is bounded
// by it; an in-order arrival into an empty window never touches the ring.

#include <cstdint>
#include <span>

#include "iq/common/inline_vec.hpp"
#include "iq/common/ring_queue.hpp"
#include "iq/rudp/message.hpp"
#include "iq/rudp/segment.hpp"
#include "iq/rudp/seq.hpp"

namespace iq::rudp {

struct RecvSegment {
  Seq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int32_t payload_bytes = 0;
  bool marked = true;
  bool fec = false;          ///< FEC-protected class (or reconstructed)
  std::uint64_t ts_us = 0;   ///< sender timestamp of this transmission
  attr::AttrList attrs;      ///< non-empty only on the first fragment
};

class RecvBuffer {
 public:
  explicit RecvBuffer(std::uint32_t window = 4096, Seq initial_seq = 1);

  struct Result {
    iq::InlineVec<DeliveredMessage, 2> delivered;
    std::uint32_t dropped_messages = 0;
    bool duplicate = false;
    bool advanced = false;   ///< cumulative point moved

    /// Clear for reuse. `delivered` keeps its capacity, so a caller that
    /// passes the same Result to every on_data/on_skip call stops
    /// allocating once it has seen its largest delivery batch (a gap fill
    /// can release a whole reorder backlog at once).
    void reset();
  };

  /// Both fill a caller-owned Result (reset first). The connection reuses
  /// one scratch Result so delivery batches stop allocating once it has
  /// grown to the high-water batch size.
  void on_data(const RecvSegment& seg, TimePoint now, Result& out);
  /// Sender abandoned these sequences (an ADVANCE's contents, unwrapped
  /// against cum()).
  void on_skip(std::span<const SkippedSeq> skipped, TimePoint now,
               Result& out);

  /// Next expected sequence (the cumulative ack we advertise).
  Seq cum() const { return cum_; }
  /// True if `seq` is already accounted for: finalized below the cumulative
  /// point, buffered out of order, or pending as a sender skip. The FEC
  /// decoder's "does the group still miss this member" predicate.
  bool has(Seq seq) const {
    return seq < cum_ ||
           (seq - cum_ < ring_.size() && ring_[seq - cum_].state != Empty);
  }
  /// Out-of-order sequences currently buffered, ascending, at most `max_n`.
  /// Inline capacity matches Segment::EackList — callers that cap max_n at
  /// 16 never allocate.
  iq::InlineVec<Seq, 16> eacks(std::size_t max_n) const;
  /// Advertised receive window, packets.
  std::uint32_t rwnd() const { return window_ - buffered_; }

  std::uint64_t delivered_messages() const { return delivered_count_; }
  std::uint64_t dropped_messages() const { return dropped_count_; }
  std::uint64_t duplicates() const { return duplicates_; }
  std::size_t buffered() const { return buffered_; }
  /// Ring slots owned: at most the window, rounded up to a power of two.
  std::size_t capacity() const { return ring_.capacity(); }

 private:
  enum State : std::uint8_t { Empty, Received, Skipped };
  /// A Skipped slot keeps the skip's msg_id and frag_count in `seg`.
  struct Slot {
    RecvSegment seg;
    State state = Empty;
  };
  struct MsgAccumulator {
    std::uint32_t msg_id = 0;
    std::uint16_t frag_count = 1;
    std::uint16_t received = 0;
    std::uint16_t skipped = 0;
    std::int64_t bytes = 0;
    bool marked = true;
    bool fec = false;
    std::uint64_t first_ts_us = 0;
    attr::AttrList attrs;
  };

  /// The slot of `seq`, growing the ring to reach it; nullptr below the
  /// cumulative point or outside the window.
  Slot* slot_for(Seq seq);
  void advance(Result& out, TimePoint now);
  /// Add the sequence `seg` (received, or a skip) to its message.
  void account(Result& out, const RecvSegment& seg, bool skipped,
               TimePoint now);
  void drop_open(Result& out);

  std::uint32_t window_;
  std::uint32_t buffered_ = 0;  ///< Received slots
  Seq cum_;
  iq::RingQueue<Slot> ring_;  ///< slot i holds seq cum_ + i
  MsgAccumulator acc_;
  bool open_ = false;  ///< acc_ holds a message still missing fragments
  std::uint64_t delivered_count_ = 0;
  std::uint64_t dropped_count_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace iq::rudp
