#pragma once
// Sender-side retransmission window: one ring slot per sequence the peer's
// cumulative ack has not passed, holding a live (transmitted, unresolved)
// segment or the skip record of an abandoned one. Performs SACK-based loss
// detection: a segment is reported lost once `dup_threshold` later segments
// have receipt evidence (the SACK/FACK rule), each segment at most once —
// after a fast retransmission, only the RTO can condemn it again.

#include <cstdint>
#include <span>
#include <vector>

#include "iq/attr/list.hpp"
#include "iq/common/inline_vec.hpp"
#include "iq/common/ring_queue.hpp"
#include "iq/rudp/segment.hpp"
#include "iq/rudp/seq.hpp"

namespace iq::rudp {

struct Outstanding {
  Seq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int32_t payload_bytes = 0;
  bool marked = true;
  bool fec = false;              ///< FEC-protected reliability class
  bool fec_deferred = false;     ///< fast retransmit skipped once, awaiting
                                 ///< receiver-side parity recovery
  bool msg_skipped = false;      ///< the message already spent skip budget
  attr::AttrList attrs;          ///< first fragment carries message attrs
  bool counted_received = false; ///< receipt evidence (cum ack or EACK)
  bool loss_reported = false;    ///< already reported lost (fast path used)
  bool abandoned = false;        ///< skip record, not a live segment
};

class SendBuffer {
 public:
  explicit SendBuffer(Seq initial_seq = 1) : base_(initial_seq) {}

  /// Record a first transmission; its seq must be the next one. Returns the
  /// stored record.
  Outstanding& add(Outstanding o);

  struct AckOutcome {
    int newly_acked = 0;                ///< segments first evidenced received
    std::int64_t newly_acked_bytes = 0; ///< their payload bytes
    iq::InlineVec<Seq, 8> lost;         ///< newly condemned (still buffered)
    bool cum_advanced = false;          ///< a live segment left the window
  };
  /// Process a cumulative ack + selective acks. Drops every slot the
  /// cumulative ack covers; marks eacked segments; performs loss detection,
  /// scanning only segments no earlier ack could condemn, so
  /// `dup_threshold` must be the same on every call.
  /// When `newly_acked_out` is non-null (audit armed), the sequences first
  /// evidenced by this ack are appended to it — the per-seq view the
  /// invariant auditor cross-checks against newly_acked.
  AckOutcome on_ack(Seq cum_ack, std::span<const Seq> eacks,
                    int dup_threshold,
                    std::vector<Seq>* newly_acked_out = nullptr);

  /// The live segment at `seq`; nullptr for skip records and seqs outside
  /// the window.
  Outstanding* find(Seq seq);
  /// Abandon a live segment (adaptive-reliability skip): it keeps its slot
  /// as a skip record until the cumulative ack passes it.
  bool abandon(Seq seq);
  /// Set `msg_skipped` on every fragment in the window of `o`'s message
  /// (fragments occupy contiguous sequences).
  void flag_message_skipped(const Outstanding& o);
  /// Skip records at or above `from`, ascending: the ADVANCE contents.
  SkippedList skips_from(Seq from) const;
  bool is_skip(Seq seq) const {
    return seq >= base_ && seq - base_ < ring_.size() &&
           ring_[seq - base_].abandoned;
  }
  bool holds_skips() const { return ring_.size() > live_; }

  /// Lowest-seq live segment with no receipt evidence; nullptr when none.
  Outstanding* first_unacked();

  /// Count of live segments with no receipt evidence (the window the
  /// congestion controller constrains).
  int inflight() const { return inflight_; }
  /// Live segments; skip records are not counted.
  std::size_t size() const { return live_; }
  /// Neither a live segment nor a skip record awaits the cumulative ack.
  bool empty() const { return ring_.empty(); }

  /// Lowest seq the peer's cumulative ack has not passed; the next seq to
  /// send when the window is empty.
  Seq base() const { return base_; }
  /// Highest receipt-evidenced seq seen so far (+1 semantics not applied).
  Seq high_water() const { return high_water_; }

 private:
  iq::RingQueue<Outstanding> ring_;  ///< slot i holds seq base_ + i
  Seq base_;
  std::size_t live_ = 0;
  Seq high_water_ = 0;  ///< max seq with receipt evidence; 0 = none yet
  bool any_evidence_ = false;
  int inflight_ = 0;
};

}  // namespace iq::rudp
