#include "iq/rudp/connection.hpp"

#include <algorithm>
#include <limits>

#include "iq/common/check.hpp"
#include "iq/common/log.hpp"

namespace iq::rudp {

const char* failure_reason_name(FailureReason r) {
  switch (r) {
    case FailureReason::None: return "none";
    case FailureReason::HandshakeTimeout: return "handshake-timeout";
    case FailureReason::RtoStreak: return "rto-streak";
    case FailureReason::KeepaliveTimeout: return "keepalive-timeout";
  }
  return "?";
}

RudpConnection::RudpConnection(SegmentWire& wire, RudpConfig cfg, Role role)
    : wire_(wire),
      cfg_(cfg),
      role_(role),
      cc_(make_controller(cfg.cc_kind, cfg.cc_kind == CcKind::Fixed
                                           ? cfg.fixed_cwnd
                                           : cfg.initial_cwnd)),
      rtt_(cfg.rtt),
      loss_(cfg.loss_epoch_packets),
      send_buf_(cfg.initial_seq),
      recv_buf_(cfg.recv_window_packets, cfg.initial_seq),
      budget_(0.0),
      fec_enc_(fec::FecConfig{cfg.fec_group_size, cfg.fec_interleave}),
      rto_timer_(wire.executor(), [this] { on_rto(); }),
      connect_timer_(wire.executor(), [this] { send_syn(); }),
      keepalive_timer_(wire.executor(), [this] { on_keepalive_tick(); }),
      ack_timer_(wire.executor(), [this] {
        if (unacked_arrivals_ > 0) send_ack(last_ts_to_echo_);
      }),
      fec_flush_timer_(wire.executor(), [this] { flush_fec(); }) {
  IQ_CHECK(cfg_.max_segment_payload > 0);
  IQ_CHECK(cfg_.initial_seq >= 1);
  next_seq_ = cfg_.initial_seq;
  wire_.set_receiver([this](const Segment& seg) { on_segment(seg); });
  wire_.set_corruption_handler([this] { ++stats_.checksum_rejects; });
  wire_.set_send_drop_handler([this] { ++stats_.sends_dropped; });
  loss_.set_epoch_handler(
      [this](const EpochReport& report) { on_epoch_report(report); });
  // IQ_AUDIT=1 arms every connection in the process (scripts/ci.sh --audit
  // runs the whole ctest suite and chaos matrix this way).
  if (const audit::AuditConfig* env = audit::env_audit_config()) {
    enable_audit(*env);
  }
}

// --------------------------------------------------------------- audit ----

audit::AuditContext* RudpConnection::enable_audit(audit::AuditConfig acfg) {
  audit_ = std::make_unique<audit::AuditContext>(cfg_.conn_id,
                                                 std::move(acfg));
  audit::InvariantAuditor::CwndBounds bounds;
  bounds.min_cwnd = active_cc()->min_cwnd();
  bounds.max_cwnd = active_cc()->max_cwnd();
  audit_->auditor().set_cwnd_bounds(bounds);
  audit_emit(audit::EventType::ConnOpen, 0,
             role_ == Role::Server ? 1u : 0u);
  return audit_.get();
}

void RudpConnection::audit_emit(audit::EventType type, Seq seq,
                                std::uint64_t a, std::uint64_t b,
                                std::uint64_t c, std::uint64_t d, double x,
                                double y, std::uint8_t flag) {
  if (!audit_) return;
  audit::Event e;
  e.t_us = now_us();
  e.conn_id = cfg_.conn_id;
  e.type = type;
  e.seq = seq;
  e.a = a;
  e.b = b;
  e.c = c;
  e.d = d;
  e.x = x;
  e.y = y;
  e.flag = flag;
  audit_->record(e);
}

void RudpConnection::audit_coord_rescale(double factor, double eratio,
                                         std::uint8_t scheme) {
  audit_emit(audit::EventType::CoordRescale, 0, 0, 0, 0, 0, factor, eratio,
             scheme);
}

void RudpConnection::audit_cwnd(audit::CwndCause cause, double before) {
  if (!audit_) return;
  const double after = active_cc()->cwnd();
  if (after == before) return;
  audit_emit(audit::EventType::CwndChange, 0, 0, 0, 0, 0, before, after,
             static_cast<std::uint8_t>(cause));
}

RudpConnection::~RudpConnection() = default;

std::uint64_t RudpConnection::now_us() const {
  return static_cast<std::uint64_t>(wire_.executor().now().ns() / 1000);
}

// ------------------------------------------------------------- control ----

void RudpConnection::connect() {
  IQ_CHECK_MSG(role_ == Role::Client, "connect() on a server connection");
  IQ_CHECK(state_ == ConnState::Closed);
  state_ = ConnState::SynSent;
  connect_attempts_ = 0;
  send_syn();
}

void RudpConnection::listen() {
  IQ_CHECK_MSG(role_ == Role::Server, "listen() on a client connection");
  IQ_CHECK(state_ == ConnState::Closed);
  state_ = ConnState::Listening;
}

void RudpConnection::close() {
  if (state_ == ConnState::Established || state_ == ConnState::SynSent) {
    // From Failed the peer is presumed dead; no farewell RST.
    send_control(SegmentType::Rst);
  }
  state_ = ConnState::Closed;
  rto_timer_.stop();
  connect_timer_.stop();
  keepalive_timer_.stop();
  ack_timer_.stop();
  fec_flush_timer_.stop();
}

void RudpConnection::enter_failed(FailureReason reason) {
  if (state_ == ConnState::Failed || state_ == ConnState::Closed) return;
  log_warn("rudp conn ", cfg_.conn_id, ": failed (",
           failure_reason_name(reason), ")");
  state_ = ConnState::Failed;
  failure_reason_ = reason;
  ++stats_.failures;
  audit_emit(audit::EventType::Failed, 0,
             static_cast<std::uint64_t>(reason));
  rto_timer_.stop();
  connect_timer_.stop();
  keepalive_timer_.stop();
  ack_timer_.stop();
  fec_flush_timer_.stop();
  if (on_error_) on_error_(reason);
}

void RudpConnection::send_syn() {
  if (state_ != ConnState::SynSent) return;
  if (connect_attempts_ >= cfg_.max_connect_attempts) {
    log_warn("rudp conn ", cfg_.conn_id, ": connect gave up after ",
             connect_attempts_, " attempts");
    enter_failed(FailureReason::HandshakeTimeout);
    return;
  }
  if (connect_attempts_ > 0) ++stats_.connect_retries;
  ++connect_attempts_;
  send_control(SegmentType::Syn);
  // Exponential backoff: connect_retry, 2x, 4x, ... capped. Attempt k waits
  // min(connect_retry * 2^(k-1), connect_retry_cap) before retrying.
  Duration wait = cfg_.connect_retry;
  const Duration cap = std::max(cfg_.connect_retry, cfg_.connect_retry_cap);
  for (int i = 1; i < connect_attempts_ && wait < cap; ++i) wait = wait * 2;
  connect_timer_.start(std::min(wait, cap));
}

void RudpConnection::on_keepalive_tick() {
  if (established()) {
    if (recv_activity_) {
      keepalive_miss_streak_ = 0;
    } else if (keepalive_probe_outstanding_) {
      // A probe went out last interval and nothing at all came back.
      ++keepalive_miss_streak_;
      ++stats_.keepalive_misses;
      if (cfg_.max_keepalive_misses > 0 &&
          keepalive_miss_streak_ >= cfg_.max_keepalive_misses) {
        enter_failed(FailureReason::KeepaliveTimeout);
        return;
      }
    }
    recv_activity_ = false;
    if (send_idle()) {
      send_control(SegmentType::Nul);
      ++stats_.nuls_sent;
      keepalive_probe_outstanding_ = true;
    } else {
      // Data (with its RTO machinery) is in flight; it owns dead-peer
      // detection until the connection goes idle again.
      keepalive_probe_outstanding_ = false;
    }
  }
  if (!cfg_.keepalive.is_zero()) keepalive_timer_.start(keepalive_interval());
}

Duration RudpConnection::keepalive_interval() const {
  // Never judge a probe on an interval shorter than the retransmission
  // timeout: RTO = SRTT + 4·RTTVAR already is the engine's "a reply should
  // have arrived by now" bound. The configured interval still sets the pace
  // on short paths; the RTO only stretches it when the path is slower than
  // the probe clock (high-BDP satellite profiles).
  return std::max(cfg_.keepalive, rtt_.rto());
}

void RudpConnection::become_established() {
  if (state_ == ConnState::Established) return;
  state_ = ConnState::Established;
  audit_emit(audit::EventType::Established);
  if (!cfg_.keepalive.is_zero()) keepalive_timer_.start(keepalive_interval());
  if (on_established_) on_established_();
}

// ------------------------------------------------------------- sending ----

RudpConnection::SendResult RudpConnection::send_message(
    const MessageSpec& spec) {
  IQ_CHECK_MSG(spec.bytes >= 0, "negative message size");
  // Fragment indices and counts are 16-bit on the wire.
  const std::int64_t mss = cfg_.max_segment_payload;
  const std::int64_t frag_count =
      spec.bytes == 0 ? 1 : (spec.bytes - 1) / mss + 1;
  IQ_CHECK_MSG(frag_count <= std::numeric_limits<std::uint16_t>::max(),
               "message needs more than 65535 fragments");
  const std::uint32_t msg_id = next_msg_id_++;
  ++stats_.messages_offered;
  budget_.on_message_offered();

  // IQ coordination scheme 1: while the application trades reliability for
  // timeliness, unmarked data is discarded *before* it enters the network,
  // within the receiver's loss tolerance. The FEC class is exempt: it asked
  // for strengthened delivery, not relaxed.
  if (discard_unmarked_ && !spec.marked && !spec.fec &&
      budget_.may_skip_message()) {
    budget_.on_message_skipped();
    ++stats_.messages_discarded_at_send;
    audit_emit(audit::EventType::MsgDiscarded, msg_id);
    return SendResult{msg_id, /*discarded=*/true};
  }

  PendingMessage m;
  m.msg_id = msg_id;
  m.frag_count = static_cast<std::uint16_t>(frag_count);
  m.bytes = spec.bytes;
  m.marked = spec.marked;
  m.fec = spec.fec;
  m.attrs = spec.attrs;
  pending_.push_back(std::move(m));
  pending_segments_ += static_cast<std::size_t>(frag_count);
  ++stats_.messages_enqueued;
  audit_emit(audit::EventType::MsgEnqueued, msg_id,
             static_cast<std::uint64_t>(frag_count),
             static_cast<std::uint64_t>(spec.bytes));
  shed_pending();
  pump();
  return SendResult{msg_id, /*discarded=*/false};
}

void RudpConnection::set_max_pending_segments(std::size_t limit) {
  cfg_.max_pending_segments = limit;
  shed_pending();
}

void RudpConnection::shed_pending() {
  if (cfg_.max_pending_segments == 0) return;
  while (pending_segments_ > cfg_.max_pending_segments) {
    // Only whole messages still entirely unsent may be shed: a message with
    // fragments already on the wire must keep its tail or the receiver's
    // reassembly wedges. pump() consumes in order, so only the front entry
    // can be partly sent; the oldest evictable message is the front one if
    // none of it has left yet, else the one behind it.
    const std::size_t j = pending_.front().next_frag > 0 ? 1 : 0;
    if (j >= pending_.size()) return;  // nothing evictable
    const std::uint16_t n = pending_[j].frag_count;
    audit_emit(audit::EventType::MsgShed, pending_[j].msg_id, n);
    pending_segments_ -= n;
    pending_.erase(j, 1);
    ++stats_.messages_shed;
  }
}

void RudpConnection::emit(Segment&& seg) {
  if (tap_) tap_(TapDirection::Out, seg);
  wire_.send(std::move(seg));
}

void RudpConnection::pump() {
  if (state_ != ConnState::Established) return;
  for (;;) {
    if (pending_.empty()) {
      window_limited_ = false;
      return;
    }
    // cwnd caps unacked segments. The window's span (skip records and
    // sacked segments too) stays below the peer's rwnd, so every seq sent
    // is inside its receive window, and below this side's own window.
    const int wnd = std::max(1, static_cast<int>(active_cc()->cwnd()));
    const Seq span = std::min(peer_rwnd_, cfg_.recv_window_packets);
    if (send_buf_.inflight() >= wnd || next_seq_ - send_buf_.base() >= span) {
      window_limited_ = true;
      return;
    }
    PendingMessage& m = pending_.front();
    const std::int64_t mss = cfg_.max_segment_payload;
    Outstanding o;
    o.seq = next_seq_++;
    o.msg_id = m.msg_id;
    o.frag_index = m.next_frag;
    o.frag_count = m.frag_count;
    o.payload_bytes = static_cast<std::int32_t>(
        std::min(mss, m.bytes - std::int64_t{m.next_frag} * mss));
    o.marked = m.marked;
    o.fec = m.fec;
    o.msg_skipped = m.skipped;
    if (m.next_frag == 0) o.attrs = std::move(m.attrs);
    --pending_segments_;
    if (++m.next_frag == m.frag_count) pending_.pop_front();

    Outstanding& sent = send_buf_.add(std::move(o));
    audit_emit(audit::EventType::SegSent, sent.seq, sent.msg_id,
               static_cast<std::uint64_t>(sent.payload_bytes), 0, 0, 0.0, 0.0,
               static_cast<std::uint8_t>((sent.marked ? 1 : 0) |
                                         (sent.fec ? 2 : 0)));
    transmit(sent, /*retransmission=*/false);
  }
}

void RudpConnection::transmit(const Outstanding& o, bool retransmission) {
  Segment seg;
  seg.type = SegmentType::Data;
  seg.conn_id = cfg_.conn_id;
  seg.seq = to_wire(o.seq);
  seg.msg_id = o.msg_id;
  seg.frag_index = o.frag_index;
  seg.frag_count = o.frag_count;
  seg.marked = o.marked;
  seg.fec_protected = o.fec;
  seg.payload_bytes = o.payload_bytes;
  seg.cum_ack = to_wire(recv_buf_.cum());
  seg.ts_us = now_us();
  seg.attrs = o.attrs;

  ++stats_.segments_sent;
  stats_.payload_bytes_sent += o.payload_bytes;
  if (retransmission) ++stats_.segments_retransmitted;

  // Enrolling first transmissions in a parity group needs the segment after
  // it goes out, so FEC traffic keeps the copying emit; everything else
  // moves its vectors/attrs straight into the wire.
  const bool enroll = o.fec && !retransmission;
  if (enroll) {
    emit(Segment(seg));
    // Retransmissions are already covered by the descriptor captured the
    // first time around.
    if (auto parity = fec_enc_.add(seg)) send_parity(std::move(*parity));
    if (fec_enc_.open_groups() > 0) {
      fec_flush_timer_.start_if_idle(cfg_.fec_flush);
    }
  } else {
    emit(std::move(seg));
  }
  rto_timer_.start_if_idle(rtt_.rto());
}

void RudpConnection::send_parity(Segment parity) {
  parity.conn_id = cfg_.conn_id;
  parity.cum_ack = to_wire(recv_buf_.cum());
  parity.ts_us = now_us();
  ++stats_.parities_sent;
  emit(std::move(parity));
}

void RudpConnection::flush_fec() {
  if (state_ != ConnState::Established) return;
  for (Segment& parity : fec_enc_.flush()) send_parity(std::move(parity));
}

void RudpConnection::send_ack(std::uint64_t ts_echo_us) {
  unacked_arrivals_ = 0;
  ack_timer_.stop();
  Segment seg;
  seg.type = SegmentType::Ack;
  seg.conn_id = cfg_.conn_id;
  seg.cum_ack = to_wire(recv_buf_.cum());
  for (Seq e : recv_buf_.eacks(cfg_.max_eacks_per_ack)) {
    seg.eacks.push_back(to_wire(e));
  }
  seg.rwnd_packets = recv_buf_.rwnd();
  seg.ts_us = now_us();
  seg.ts_echo_us = ts_echo_us;
  ++stats_.acks_sent;
  emit(std::move(seg));
}

void RudpConnection::send_advance(std::span<const SkippedSeq> skipped) {
  Segment seg;
  seg.type = SegmentType::Advance;
  seg.conn_id = cfg_.conn_id;
  seg.skipped.assign(skipped.begin(), skipped.end());
  seg.cum_ack = to_wire(recv_buf_.cum());
  seg.ts_us = now_us();
  ++stats_.advances_sent;
  emit(std::move(seg));
  // ADVANCE is not individually acked; keep a timer alive so lost ones are
  // re-advertised from on_rto().
  rto_timer_.start_if_idle(rtt_.rto());
}

void RudpConnection::resend_skips(Seq from) {
  const SkippedList skips = send_buf_.skips_from(from);
  if (skips.empty()) return;
  last_skip_resend_ = wire_.executor().now();
  send_advance(skips);
}

void RudpConnection::send_control(SegmentType type) {
  Segment seg;
  seg.type = type;
  seg.conn_id = cfg_.conn_id;
  seg.cum_ack = to_wire(recv_buf_.cum());
  seg.rwnd_packets = recv_buf_.rwnd();
  seg.ts_us = now_us();
  if (type == SegmentType::SynAck) {
    seg.recv_loss_tolerance = cfg_.recv_loss_tolerance;
  }
  emit(std::move(seg));
}

// -------------------------------------------------------------- inbound ---

void RudpConnection::on_segment(const Segment& seg) {
  if (seg.conn_id != cfg_.conn_id) return;  // not ours
  if (state_ == ConnState::Failed) return;  // dead until re-connected
  recv_activity_ = true;
  keepalive_probe_outstanding_ = false;
  // ANY inbound segment proves the path is alive, so it ends an RTO streak:
  // the streak-based failure detector is for dead paths (blackouts), not for
  // heavily lossy ones, where acks for other segments keep trickling in.
  // Coming out of a sustained streak (a blackout), discard the in-progress
  // loss epoch: it is a wall of outage losses that would close as a
  // ~100%-loss report and slam the window shut just as the path comes back.
  if (rto_streak_ >= cfg_.rto_streak_for_epoch_reset) {
    const std::uint64_t pending_acked = loss_.pending_acked();
    const std::uint64_t pending_lost = loss_.pending_lost();
    loss_.reset_epoch();
    audit_emit(audit::EventType::EpochReset, 0, pending_acked, pending_lost,
               loss_.discarded_acked(), loss_.discarded_lost());
    ++stats_.blackout_recoveries;
  }
  rto_streak_ = 0;
  if (seg.rwnd_packets > 0) peer_rwnd_ = seg.rwnd_packets;
  if (tap_) tap_(TapDirection::In, seg);
  switch (seg.type) {
    case SegmentType::Syn:
      on_syn(seg);
      break;
    case SegmentType::SynAck:
      on_syn_ack(seg);
      break;
    case SegmentType::Data:
      on_data(seg);
      break;
    case SegmentType::Ack:
      on_ack(seg);
      break;
    case SegmentType::Advance:
      on_advance(seg);
      break;
    case SegmentType::Parity:
      on_parity(seg);
      break;
    case SegmentType::Nul:
      if (established()) send_ack(seg.ts_us);
      break;
    case SegmentType::Rst:
      if (state_ != ConnState::Closed) {
        state_ = ConnState::Closed;
        rto_timer_.stop();
        keepalive_timer_.stop();
        if (on_closed_) on_closed_();
      }
      break;
  }
}

void RudpConnection::on_syn(const Segment&) {
  if (role_ != Role::Server) return;
  if (state_ != ConnState::Listening && state_ != ConnState::Established) {
    return;
  }
  // Duplicate SYNs simply re-elicit the SYN-ACK.
  send_control(SegmentType::SynAck);
  become_established();
}

void RudpConnection::on_syn_ack(const Segment& seg) {
  if (role_ != Role::Client) return;
  if (state_ == ConnState::Established) {
    // The receiver re-advertised its loss tolerance mid-connection.
    budget_.set_tolerance(seg.recv_loss_tolerance);
    return;
  }
  if (state_ != ConnState::SynSent) return;
  budget_.set_tolerance(seg.recv_loss_tolerance);
  connect_timer_.stop();
  become_established();
  pump();
}

void RudpConnection::on_data(const Segment& seg) {
  if (!established()) {
    // Data racing ahead of the handshake: for a listening server the SYN
    // was lost; ignore, the client will retry.
    return;
  }
  RecvSegment rs;
  rs.seq = unwrap(seg.seq, recv_buf_.cum());
  rs.msg_id = seg.msg_id;
  rs.frag_index = seg.frag_index;
  rs.frag_count = seg.frag_count;
  rs.payload_bytes = seg.payload_bytes;
  rs.marked = seg.marked;
  rs.fec = seg.fec_protected;
  rs.ts_us = seg.ts_us;
  rs.attrs = seg.attrs;

  recv_buf_.on_data(rs, wire_.executor().now(), recv_scratch_);
  // The FEC injection below reuses the scratch; latch the flag first.
  const bool duplicate = recv_scratch_.duplicate;
  if (duplicate) ++stats_.duplicates_received;
  deliver(recv_scratch_);

  // A (possibly late) FEC member arrival may make a held parity group
  // solvable — or settle it outright.
  if (seg.fec_protected && fec_dec_.held_groups() > 0) {
    inject_recovered(fec_dec_.on_data(
        rs.seq, [this](Seq s) { return recv_buf_.has(s); }));
  }

  // Delayed acks: in-order arrivals may be batched; anything unusual
  // (duplicate, reordering hole) acks immediately so the sender's loss
  // detection stays sharp.
  ++unacked_arrivals_;
  last_ts_to_echo_ = seg.ts_us;
  const bool unusual = duplicate || recv_buf_.buffered() > 0;
  if (cfg_.ack_every <= 1 || unacked_arrivals_ >= cfg_.ack_every || unusual) {
    send_ack(seg.ts_us);
  } else {
    ack_timer_.start_if_idle(cfg_.ack_delay);
  }
}

void RudpConnection::on_advance(const Segment& seg) {
  if (!established()) return;
  recv_buf_.on_skip(seg.skipped, wire_.executor().now(), recv_scratch_);
  deliver(recv_scratch_);
  send_ack(seg.ts_us);
}

void RudpConnection::on_parity(const Segment& seg) {
  if (!established()) return;
  ++stats_.parities_received;
  // Unwrap every member against the current cumulative point *before* any
  // recovery shifts it.
  std::vector<RecvSegment> members;
  members.reserve(seg.fec_members.size());
  for (const FecMember& m : seg.fec_members) {
    RecvSegment rs;
    rs.seq = unwrap(m.seq, recv_buf_.cum());
    rs.msg_id = m.msg_id;
    rs.frag_index = m.frag_index;
    rs.frag_count = m.frag_count;
    rs.payload_bytes = m.payload_bytes;
    rs.marked = true;  // recovery normalizes: the FEC class is never skipped
    rs.fec = true;
    rs.ts_us = seg.ts_us;  // reconstruction time stands in for send time
    rs.attrs = m.attrs;
    members.push_back(std::move(rs));
  }
  inject_recovered(fec_dec_.on_parity(
      seg.fec_group, std::move(members),
      [this](Seq s) { return recv_buf_.has(s); }));
  // Ack unconditionally: if recovery advanced the cumulative point, this is
  // what lets the sender resolve the deferred segment without retransmit.
  send_ack(seg.ts_us);
}

void RudpConnection::inject_recovered(std::vector<RecvSegment> recovered) {
  const TimePoint now = wire_.executor().now();
  for (RecvSegment& rs : recovered) {
    ++stats_.segments_recovered;
    recv_buf_.on_data(rs, now, recv_scratch_);
    deliver(recv_scratch_);
  }
  fec_dec_.prune_below(recv_buf_.cum());
}

void RudpConnection::deliver(RecvBuffer::Result& result) {
  stats_.messages_dropped += result.dropped_messages;
  stats_.messages_delivered += result.delivered.size();
  for (const DeliveredMessage& msg : result.delivered) {
    stats_.payload_bytes_delivered += msg.bytes;
    if (on_message_) on_message_(msg);
  }
}

void RudpConnection::on_ack(const Segment& seg) {
  ++stats_.acks_received;

  const TimePoint now = wire_.executor().now();
  if (seg.ts_echo_us > 0) {
    const Duration sample =
        now - TimePoint::from_ns(static_cast<std::int64_t>(seg.ts_echo_us) * 1000);
    rtt_.add_sample(sample);
    active_cc()->set_srtt(rtt_.srtt());
  }

  const Seq cum = unwrap(seg.cum_ack, send_buf_.base());
  iq::InlineVec<Seq, 16> eacks;
  for (WireSeq e : seg.eacks) eacks.push_back(unwrap(e, cum));

  // Skip records the peer's cumulative ack passes leave the send window
  // with it; if the peer is stuck exactly on a skipped sequence, the
  // ADVANCE was lost — resend the records from there (at most once per RTO
  // interval).
  if (send_buf_.is_skip(cum) && now - last_skip_resend_ >= rtt_.rto()) {
    resend_skips(cum);
  }

  std::vector<Seq>* acked = nullptr;
  if (audit_) {
    acked = &audit_->acked_scratch();
    acked->clear();
  }
  auto outcome = send_buf_.on_ack(cum, eacks, cfg_.dup_threshold, acked);
  if (audit_) {
    // Per-seq terminal evidence first, then the batch summary the auditor
    // cross-checks against it; both precede the LossMonitor update so a
    // resulting epoch-close event lands after the acks that closed it.
    for (Seq s : *acked) {
      audit_emit(audit::EventType::SegAcked, s);
    }
    audit_emit(audit::EventType::AckReceived, cum,
               static_cast<std::uint64_t>(outcome.newly_acked),
               static_cast<std::uint64_t>(outcome.newly_acked_bytes),
               eacks.size());
  }
  if (outcome.newly_acked > 0) {
    stats_.payload_bytes_acked += outcome.newly_acked_bytes;
    // Grow the window only when the window is what limits us; an
    // application-limited sender must not inflate cwnd (window validation).
    if (window_limited_) {
      const double cwnd_before = active_cc()->cwnd();
      active_cc()->on_ack(outcome.newly_acked, now);
      audit_cwnd(audit::CwndCause::Ack, cwnd_before);
    }
    loss_.on_acked(static_cast<std::uint32_t>(outcome.newly_acked),
                   outcome.newly_acked_bytes, now);
  }
  handle_lost_segments(outcome.lost);

  if (send_buf_.empty()) {
    rto_timer_.stop();
  } else if (outcome.cum_advanced) {
    rto_timer_.start(rtt_.rto());
  } else {
    rto_timer_.start_if_idle(rtt_.rto());
  }
  pump();
  if (on_drained_ && pending_.empty()) on_drained_();
}

// ---------------------------------------------------------------- loss ----

void RudpConnection::handle_lost_segments(std::span<const Seq> lost) {
  if (lost.empty()) return;
  iq::InlineVec<SkippedSeq, 8> skips;
  for (Seq seq : lost) {
    if (auto skip = resolve_loss(seq, /*from_timeout=*/false)) {
      skips.push_back(*skip);
    }
  }
  if (!skips.empty()) send_advance(skips);
}

std::optional<SkippedSeq> RudpConnection::resolve_loss(Seq seq,
                                                       bool from_timeout) {
  Outstanding* o = send_buf_.find(seq);
  if (o == nullptr || o->counted_received) return std::nullopt;
  const TimePoint now = wire_.executor().now();

  // FEC class, first condemnation: defer the fast retransmit one RTO —
  // receiver-side parity recovery (and its ack) usually resolves the
  // segment first. The loss itself still counts, once; if the RTO later
  // fires for a deferred segment, recovery failed and we retransmit
  // without re-counting the same loss.
  const bool recovery_wait = o->fec && !from_timeout && !o->fec_deferred;
  const bool recovery_failed = o->fec && from_timeout && o->fec_deferred;
  if (!recovery_failed) {
    audit_emit(audit::EventType::LossCondemned, seq, 0, 0, 0, 0, 0.0, 0.0,
               from_timeout ? 1 : 0);
    loss_.on_lost(1, now);
    if (!from_timeout) {
      const double cwnd_before = active_cc()->cwnd();
      active_cc()->on_loss(now);
      audit_cwnd(audit::CwndCause::Loss, cwnd_before);
    }
  }
  if (recovery_wait) {
    o->loss_reported = true;
    o->fec_deferred = true;
    ++stats_.fec_deferrals;
    return std::nullopt;
  }
  if (recovery_failed) o->fec_deferred = false;

  const bool can_skip = !o->marked && !o->fec &&
                        (o->msg_skipped || budget_.may_skip_message());
  if (can_skip) {
    if (!o->msg_skipped) {
      // The message spends one unit of budget, however many of its
      // fragments are condemned: flag them all, sent or not yet.
      budget_.on_message_skipped();
      ++stats_.messages_skipped;
      send_buf_.flag_message_skipped(*o);
      if (!pending_.empty() && pending_.front().msg_id == o->msg_id) {
        pending_.front().skipped = true;
      }
    }
    SkippedSeq rec{to_wire(seq), o->msg_id, o->frag_count};
    ++stats_.segments_skipped;
    audit_emit(audit::EventType::SegSkipped, seq, o->msg_id);
    send_buf_.abandon(seq);
    return rec;
  }

  o->loss_reported = true;
  if (!from_timeout) ++stats_.fast_retransmits;
  audit_emit(audit::EventType::SegRetransmit, seq, 0, 0, 0, 0, 0.0, 0.0,
             from_timeout ? 1 : 0);
  transmit(*o, /*retransmission=*/true);
  return std::nullopt;
}

void RudpConnection::on_rto() {
  if (!established()) return;
  Outstanding* o = send_buf_.first_unacked();
  if (o == nullptr) {
    // Every live segment is sacked, or only skip records are left: the
    // cumulative ack is blocked. If a skipped sequence is the blocker, its
    // ADVANCE (or its ack) was lost; resend.
    if (send_buf_.holds_skips()) {
      rtt_.backoff();
      ++stats_.rto_backoffs;
      resend_skips(0);
    }
    if (!send_buf_.empty()) arm_rto();
    return;
  }
  ++stats_.timeouts;
  rtt_.backoff();
  ++stats_.rto_backoffs;
  // Dead-peer detection: consecutive expirations stuck on the same head
  // segment mean nothing — not even a window update — is getting through.
  if (o->seq == rto_streak_seq_) {
    ++rto_streak_;
  } else {
    rto_streak_seq_ = o->seq;
    rto_streak_ = 1;
  }
  audit_emit(audit::EventType::Rto, o->seq,
             static_cast<std::uint64_t>(rto_streak_), 0, 0, 0,
             rtt_.rto().to_seconds());
  if (cfg_.max_rto_streak > 0 && rto_streak_ >= cfg_.max_rto_streak) {
    enter_failed(FailureReason::RtoStreak);
    return;
  }
  if (cfg_.max_rto_streak > 0 && rto_streak_ >= 2) {
    // Dead-path probing: with exponential backoff, a streak interval carries
    // a single head retransmission — too little evidence to distinguish a
    // dead path from a merely lossy one (at 40% i.i.d. loss each interval
    // stays silent with p ≈ 0.64, so 8 in a row is a real possibility).
    // Send extra NUL probes alongside the retransmission; each one a peer
    // receives is acked immediately, and any inbound segment resets the
    // streak. A live-but-lossy path now almost surely produces evidence
    // before max_rto_streak, while a dead one stays silent regardless.
    const int probes = std::min<int>(static_cast<int>(rto_streak_), 3);
    for (int i = 0; i < probes; ++i) send_control(SegmentType::Nul);
    stats_.rto_probe_nuls += static_cast<std::uint64_t>(probes);
  }
  {
    const double cwnd_before = active_cc()->cwnd();
    active_cc()->on_timeout(wire_.executor().now());
    audit_cwnd(audit::CwndCause::Timeout, cwnd_before);
  }
  if (auto skip = resolve_loss(o->seq, /*from_timeout=*/true)) {
    iq::InlineVec<SkippedSeq, 8> skips{*skip};
    // Consecutive unmarked losses are common under a burst; sweep the rest
    // of the timed-out window head in the same ADVANCE.
    while (Outstanding* next = send_buf_.first_unacked()) {
      if (next->marked || next->counted_received) break;
      auto more = resolve_loss(next->seq, /*from_timeout=*/true);
      if (!more) break;
      skips.push_back(*more);
    }
    send_advance(skips);
  }
  if (!send_buf_.empty()) arm_rto();
  pump();
}

void RudpConnection::arm_rto() { rto_timer_.start(rtt_.rto()); }

// --------------------------------------------------------- adaptation -----

void RudpConnection::scale_congestion_window(double factor) {
  const double cwnd_before = active_cc()->cwnd();
  active_cc()->scale_window(factor);
  audit_cwnd(audit::CwndCause::Scale, cwnd_before);
  pump();
}

void RudpConnection::set_external_congestion(CongestionController* external) {
  ext_cc_ = external;
  // The auditor's cwnd bounds must follow the controller in charge: a CM
  // flow's share may legitimately sit below the built-in controller's
  // minimum (its min_cwnd() is 0) and above it up to the aggregate maximum.
  if (audit_) {
    audit::InvariantAuditor::CwndBounds bounds;
    bounds.min_cwnd = active_cc()->min_cwnd();
    bounds.max_cwnd = active_cc()->max_cwnd();
    audit_->auditor().set_cwnd_bounds(bounds);
  }
  pump();
}

void RudpConnection::set_fec_group_size(std::uint16_t k) {
  cfg_.fec_group_size = k;
  fec_enc_.set_group_size(k);
}

void RudpConnection::set_local_recv_tolerance(double tolerance) {
  cfg_.recv_loss_tolerance = tolerance;
  if (role_ == Role::Server && established()) {
    // Re-advertise so the sender's budget tracks the change.
    send_control(SegmentType::SynAck);
  }
}

void RudpConnection::on_epoch_report(const EpochReport& report) {
  audit_emit(audit::EventType::EpochClose, report.epoch, report.acked,
             report.lost, loss_.total_acked(), loss_.total_lost(),
             report.loss_ratio, report.smoothed_loss_ratio);
  const double cwnd_before = active_cc()->cwnd();
  active_cc()->on_epoch(report.loss_ratio, report.at);
  audit_cwnd(audit::CwndCause::Epoch, cwnd_before);
  if (on_epoch_) on_epoch_(report);
  pump();
}

}  // namespace iq::rudp
