#include "iq/rudp/send_buffer.hpp"

#include <algorithm>

#include "iq/common/check.hpp"

namespace iq::rudp {

Outstanding& SendBuffer::add(Outstanding o) {
  auto [it, inserted] = segments_.insert_or_assign(o.seq, std::move(o));
  if (inserted) ++inflight_;
  return it->second;
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
    auto it = segments_.find(e);
    if (it == segments_.end()) continue;
    it->second.sacked = true;
    evidence(it->second);
  }

  // Cumulative ack: everything below cum_ack is received; remove it.
  while (!segments_.empty() && segments_.begin()->first < cum_ack) {
    evidence(segments_.begin()->second);
    segments_.erase(segments_.begin());
    out.cum_advanced = true;
  }

  // SACK-style loss detection: unevidenced segments sufficiently far below
  // the high-water mark are condemned (once).
  if (any_evidence_) {
    for (auto it = segments_.lower_bound(scan_from); it != segments_.end();
         ++it) {
      auto& [seq, o] = *it;
      if (seq + dup > high_water_) break;
      if (o.counted_received || o.loss_reported) continue;
      o.loss_reported = true;
      out.lost.push_back(seq);
    }
  }
  return out;
}

Outstanding* SendBuffer::find(Seq seq) {
  auto it = segments_.find(seq);
  return it == segments_.end() ? nullptr : &it->second;
}

const Outstanding* SendBuffer::find(Seq seq) const {
  auto it = segments_.find(seq);
  return it == segments_.end() ? nullptr : &it->second;
}

bool SendBuffer::remove(Seq seq) {
  auto it = segments_.find(seq);
  if (it == segments_.end()) return false;
  if (!it->second.counted_received) {
    --inflight_;
    IQ_CHECK(inflight_ >= 0);
  }
  segments_.erase(it);
  return true;
}

Outstanding* SendBuffer::first_unacked() {
  for (auto& [seq, o] : segments_) {
    if (!o.counted_received) return &o;
  }
  return nullptr;
}

Seq SendBuffer::lowest_or(Seq fallback) const {
  if (segments_.empty()) return fallback;
  return segments_.begin()->first;
}

}  // namespace iq::rudp
