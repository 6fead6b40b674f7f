#pragma once
// Sender-side retransmission buffer: every transmitted-but-unresolved
// segment, ordered by (unwrapped) sequence. Performs SACK-based loss
// detection: a segment is reported lost once `dup_threshold` later segments
// have receipt evidence (the SACK/FACK rule), each segment at most once —
// after a fast retransmission, only the RTO can condemn it again.

#include <cstdint>
#include <span>
#include <vector>

#include "iq/attr/list.hpp"
#include "iq/common/inline_vec.hpp"
#include "iq/common/time.hpp"
#include "iq/net/pool.hpp"
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
  attr::AttrList attrs;          ///< first fragment carries message attrs
  TimePoint first_sent;
  TimePoint last_sent;
  int transmissions = 1;
  bool sacked = false;           ///< receipt evidence via EACK
  bool counted_received = false; ///< already counted toward newly_acked
  bool loss_reported = false;    ///< already reported lost (fast path used)
};

class SendBuffer {
 public:
  /// Record a (re)transmitted segment; seq must exceed all current entries
  /// on first add. Returns the stored record.
  Outstanding& add(Outstanding o);

  struct AckOutcome {
    int newly_acked = 0;                ///< segments first evidenced received
    std::int64_t newly_acked_bytes = 0; ///< their payload bytes
    iq::InlineVec<Seq, 8> lost;         ///< newly condemned (still buffered)
    bool cum_advanced = false;
  };
  /// Process a cumulative ack + selective acks. Removes segments the
  /// cumulative ack covers; marks eacked ones; performs loss detection,
  /// scanning only segments no earlier ack could condemn, so
  /// `dup_threshold` must be the same on every call.
  /// When `newly_acked_out` is non-null (audit armed), the sequences first
  /// evidenced by this ack are appended to it — the per-seq view the
  /// invariant auditor cross-checks against newly_acked.
  AckOutcome on_ack(Seq cum_ack, std::span<const Seq> eacks,
                    int dup_threshold,
                    std::vector<Seq>* newly_acked_out = nullptr);

  Outstanding* find(Seq seq);
  const Outstanding* find(Seq seq) const;
  /// Abandon a segment (adaptive-reliability skip).
  bool remove(Seq seq);

  /// Lowest-seq segment with no receipt evidence; nullptr when none.
  Outstanding* first_unacked();

  /// Count of segments with no receipt evidence (the window the congestion
  /// controller constrains).
  int inflight() const { return inflight_; }
  std::size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }

  /// Lowest buffered seq; `fallback` when empty.
  Seq lowest_or(Seq fallback) const;
  /// Highest receipt-evidenced seq seen so far (+1 semantics not applied).
  Seq high_water() const { return high_water_; }

 private:
  // Pooled nodes: retransmission-buffer churn is the sender's hottest
  // map traffic and must not reach malloc at steady state.
  net::PooledMap<Seq, Outstanding> segments_ =
      net::make_pooled_map<Seq, Outstanding>();
  Seq high_water_ = 0;  ///< max seq with receipt evidence; 0 = none yet
  bool any_evidence_ = false;
  int inflight_ = 0;
};

}  // namespace iq::rudp
