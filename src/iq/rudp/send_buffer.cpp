#include "iq/rudp/send_buffer.hpp"

#include <algorithm>

#include "iq/common/check.hpp"

namespace iq::rudp {

Outstanding& SendBuffer::add(Outstanding o) {
  IQ_CHECK_MSG(o.seq == base_ + ring_.size(),
               "send window: seq is not the next one");
  ring_.push_back(std::move(o));
  ++live_;
  ++inflight_;
  return ring_.back();
}

SendBuffer::AckOutcome SendBuffer::on_ack(Seq cum_ack,
                                          std::span<const Seq> eacks,
                                          int dup_threshold,
                                          std::vector<Seq>* newly_acked_out) {
  AckOutcome out;
  const auto dup = static_cast<Seq>(dup_threshold);
  // Every segment at or below the previous high_water_ - dup_threshold was
  // settled by an earlier ack's loss scan: counted received or reported
  // lost, flags that only ever turn true, and every segment sent since lies
  // above any evidenced seq. This ack's scan starts above them.
  const Seq scan_from =
      any_evidence_ && high_water_ + 1 > dup ? high_water_ + 1 - dup : 0;

  auto evidence = [&](Outstanding& o) {
    if (!o.counted_received) {
      o.counted_received = true;
      ++out.newly_acked;
      out.newly_acked_bytes += o.payload_bytes;
      if (newly_acked_out != nullptr) newly_acked_out->push_back(o.seq);
      --inflight_;
      IQ_CHECK(inflight_ >= 0);
    }
    if (!any_evidence_ || o.seq > high_water_) {
      high_water_ = o.seq;
      any_evidence_ = true;
    }
  };

  // Selective acks: receipt evidence without removal.
  for (Seq e : eacks) {
    if (Outstanding* o = find(e)) evidence(*o);
  }

  // Cumulative ack: everything below cum_ack is received; drop it.
  while (!ring_.empty() && base_ < cum_ack) {
    Outstanding& o = ring_.front();
    if (!o.abandoned) {
      evidence(o);
      --live_;
      out.cum_advanced = true;
    }
    ring_.pop_front();
    ++base_;
  }

  // SACK-style loss detection: unevidenced segments sufficiently far below
  // the high-water mark are condemned (once).
  if (any_evidence_) {
    for (Seq seq = std::max(scan_from, base_); seq - base_ < ring_.size();
         ++seq) {
      if (seq + dup > high_water_) break;
      Outstanding& o = ring_[seq - base_];
      if (o.abandoned || o.counted_received || o.loss_reported) continue;
      o.loss_reported = true;
      out.lost.push_back(seq);
    }
  }
  return out;
}

Outstanding* SendBuffer::find(Seq seq) {
  if (seq < base_ || seq - base_ >= ring_.size()) return nullptr;
  Outstanding& o = ring_[seq - base_];
  return o.abandoned ? nullptr : &o;
}

bool SendBuffer::abandon(Seq seq) {
  Outstanding* o = find(seq);
  if (o == nullptr) return false;
  if (!o->counted_received) {
    --inflight_;
    IQ_CHECK(inflight_ >= 0);
  }
  o->abandoned = true;
  --live_;
  return true;
}

void SendBuffer::flag_message_skipped(const Outstanding& o) {
  const Seq first = o.seq - o.frag_index;
  for (Seq s = std::max(first, base_);
       s < first + o.frag_count && s - base_ < ring_.size(); ++s) {
    ring_[s - base_].msg_skipped = true;
  }
}

SkippedList SendBuffer::skips_from(Seq from) const {
  SkippedList out;
  for (Seq s = std::max(from, base_); s - base_ < ring_.size(); ++s) {
    const Outstanding& o = ring_[s - base_];
    if (o.abandoned) out.push_back(SkippedSeq{to_wire(s), o.msg_id, o.frag_count});
  }
  return out;
}

Outstanding* SendBuffer::first_unacked() {
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    Outstanding& o = ring_[i];
    if (!o.abandoned && !o.counted_received) return &o;
  }
  return nullptr;
}

}  // namespace iq::rudp
