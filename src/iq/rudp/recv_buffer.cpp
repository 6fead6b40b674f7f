#include "iq/rudp/recv_buffer.hpp"

namespace iq::rudp {

RecvBuffer::RecvBuffer(std::uint32_t window, Seq initial_seq)
    : window_(window), cum_(initial_seq) {}

void RecvBuffer::Result::reset() {
  delivered.clear();  // InlineVec keeps its high-water capacity
  dropped_messages = 0;
  duplicate = false;
  advanced = false;
}

RecvBuffer::Slot* RecvBuffer::slot_for(Seq seq) {
  if (seq < cum_ || seq - cum_ >= window_) return nullptr;
  const auto i = static_cast<std::size_t>(seq - cum_);
  while (ring_.size() <= i) ring_.push_back(Slot{});
  return &ring_[i];
}

void RecvBuffer::on_data(const RecvSegment& seg, TimePoint now, Result& out) {
  out.reset();
  if (seg.seq < cum_ || (seg.seq - cum_ < ring_.size() &&
                         ring_[seg.seq - cum_].state == Received)) {
    ++duplicates_;
    out.duplicate = true;
    return;
  }
  if (seg.seq == cum_ && ring_.empty()) {
    // In order with nothing held: account it straight away.
    account(out, seg, /*skipped=*/false, now);
    ++cum_;
    out.advanced = true;
    return;
  }
  // Outside the receive window: refused (an honest sender stays inside
  // it), so nothing a peer sends can grow the ring past the window.
  Slot* s = slot_for(seg.seq);
  if (s == nullptr) return;
  // A late arrival for a sequence the sender abandoned supersedes the skip.
  s->seg = seg;
  s->state = Received;
  ++buffered_;
  advance(out, now);
}

void RecvBuffer::on_skip(std::span<const SkippedSeq> skipped, TimePoint now,
                         Result& out) {
  out.reset();
  for (const SkippedSeq& info : skipped) {
    const Seq seq = unwrap(info.seq, cum_);
    Slot* s = slot_for(seq);
    if (s == nullptr || s->state == Received) continue;  // resolved/refused
    s->seg.seq = seq;
    s->seg.msg_id = info.msg_id;
    s->seg.frag_count = info.frag_count;
    s->state = Skipped;
  }
  advance(out, now);
}

void RecvBuffer::advance(Result& out, TimePoint now) {
  while (!ring_.empty() && ring_.front().state != Empty) {
    Slot& s = ring_.front();
    if (s.state == Received) --buffered_;
    account(out, s.seg, s.state == Skipped, now);
    ring_.pop_front();
    ++cum_;
    out.advanced = true;
  }
}

void RecvBuffer::drop_open(Result& out) {
  ++out.dropped_messages;
  ++dropped_count_;
  open_ = false;
}

void RecvBuffer::account(Result& out, const RecvSegment& seg, bool skipped,
                         TimePoint now) {
  // An honest peer's messages finalize in order, so another open message
  // can only be a lying peer's: it is finalized as dropped.
  if (open_ && acc_.msg_id != seg.msg_id) drop_open(out);
  if (!open_) {
    acc_ = MsgAccumulator{};
    acc_.msg_id = seg.msg_id;
    open_ = true;
  }
  acc_.frag_count = seg.frag_count;
  if (skipped) {
    ++acc_.skipped;
  } else {
    acc_.marked = seg.marked;
    acc_.fec = acc_.fec || seg.fec;
    ++acc_.received;
    acc_.bytes += seg.payload_bytes;
    if (seg.frag_index == 0) {
      acc_.first_ts_us = seg.ts_us;
      acc_.attrs = seg.attrs;
    }
  }
  if (acc_.received + acc_.skipped < acc_.frag_count) return;
  if (acc_.skipped > 0) {
    drop_open(out);
    return;
  }
  DeliveredMessage msg;
  msg.msg_id = seg.msg_id;
  msg.bytes = acc_.bytes;
  msg.marked = acc_.marked;
  msg.fec = acc_.fec;
  msg.first_sent =
      TimePoint::from_ns(static_cast<std::int64_t>(acc_.first_ts_us) * 1000);
  msg.delivered = now;
  msg.attrs = std::move(acc_.attrs);
  out.delivered.push_back(std::move(msg));
  ++delivered_count_;
  open_ = false;
}

iq::InlineVec<Seq, 16> RecvBuffer::eacks(std::size_t max_n) const {
  iq::InlineVec<Seq, 16> out;
  for (std::size_t i = 0; i < ring_.size() && out.size() < max_n; ++i) {
    if (ring_[i].state == Received) out.push_back(cum_ + i);
  }
  return out;
}

}  // namespace iq::rudp
