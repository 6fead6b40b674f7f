#pragma once
// RudpConnection: the RUDP protocol engine.
//
// A connection-oriented, datagram-based transport providing in-order
// reliable message delivery with flow control and window-based congestion
// control (draft-ietf-sigtran-reliable-udp mechanics), extended with the
// paper's adaptive-reliability features:
//   * per-message marked/unmarked reliability (sender priority marking),
//   * receiver loss tolerance (advertised at handshake, enforced by the
//     sender's SkipBudget),
//   * ADVANCE segments that abandon lost unmarked data,
//   * send-side discard of unmarked messages (enabled by the IQ
//     coordinator, §3.3),
//   * an external window-rescale hook (used by coordination schemes 2/3).
//
// The same engine runs over the simulator (iq::wire::SimWire) and over real
// UDP sockets (iq::wire::UdpWire); it is written against SegmentWire and
// Executor only. Single-threaded: all entry points must be called from the
// wire's executor context.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "iq/audit/audit.hpp"
#include "iq/common/ring_queue.hpp"
#include "iq/fec/group.hpp"
#include "iq/rudp/congestion.hpp"
#include "iq/rudp/loss_monitor.hpp"
#include "iq/rudp/message.hpp"
#include "iq/rudp/recv_buffer.hpp"
#include "iq/rudp/reliability.hpp"
#include "iq/rudp/rtt_estimator.hpp"
#include "iq/rudp/segment_wire.hpp"
#include "iq/rudp/send_buffer.hpp"
#include "iq/sim/timer.hpp"

namespace iq::rudp {

struct RudpConfig {
  std::uint32_t conn_id = 1;
  std::int64_t max_segment_payload = 1400;  ///< paper's maximum segment size
  /// Admits the peer's seqs below cum + this; caps this side's send span.
  std::uint32_t recv_window_packets = 4096;
  std::uint32_t loss_epoch_packets = 100;
  std::size_t max_eacks_per_ack = 64;
  int dup_threshold = 3;

  CcKind cc_kind = CcKind::Lda;
  double initial_cwnd = 2.0;
  /// Window when cc_kind == Fixed (the "congestion control disabled" rows).
  double fixed_cwnd = 256.0;

  /// This endpoint's loss tolerance *as a receiver*, advertised in SYN-ACK.
  double recv_loss_tolerance = 0.0;

  RttConfig rtt;
  Duration connect_retry = Duration::millis(500);
  int max_connect_attempts = 20;
  /// Handshake retries back off exponentially from connect_retry up to this
  /// cap; set equal to connect_retry for a fixed retry interval.
  Duration connect_retry_cap = Duration::seconds(4);
  /// NUL keepalive interval; zero disables keepalives.
  Duration keepalive = Duration::zero();
  /// Dead-peer detection: enter Failed after this many keepalive intervals
  /// with an outstanding probe and no inbound traffic. 0 disables (probes
  /// are still sent if `keepalive` is set).
  int max_keepalive_misses = 0;
  /// Enter Failed after this many consecutive RTO expirations during total
  /// inbound silence — any arriving segment resets the streak, so this
  /// detects dead paths (blackouts), not heavy loss. RTO itself backs off
  /// exponentially: N=8 ≈ 200ms+400ms+...+25.6s ≈ 51s of silence at the
  /// default min RTO. 0 disables RTO-based failure.
  int max_rto_streak = 8;
  /// After an RTO streak at least this long, the first forward progress is
  /// treated as blackout recovery: the in-progress loss epoch is reset so
  /// outage losses don't keep the congestion window collapsed.
  int rto_streak_for_epoch_reset = 3;
  /// Backpressure: bound on queued-but-unsent segments. When exceeded, the
  /// oldest whole not-yet-transmitted messages are shed (drop-oldest) so a
  /// stalled connection degrades instead of growing memory. 0 = unbounded.
  std::size_t max_pending_segments = 0;
  /// First data sequence number (must match on both endpoints); set close
  /// to 2^32 to exercise wire-sequence wraparound.
  Seq initial_seq = 1;

  /// Delayed acks: acknowledge every Nth in-order data segment (1 = every
  /// segment, the default). Out-of-order arrivals, duplicates and skips
  /// always ack immediately; a flush timer bounds ack latency.
  std::uint32_t ack_every = 1;
  Duration ack_delay = Duration::millis(100);

  /// FEC reliability class: XOR parity group size (members per parity) and
  /// interleaving depth (concurrent open groups, round-robin enrolment).
  std::uint16_t fec_group_size = 4;
  std::uint16_t fec_interleave = 1;
  /// Partially filled parity groups are closed after this long so a lull in
  /// FEC traffic cannot leave the last segments unprotected.
  Duration fec_flush = Duration::millis(30);
};

enum class Role : std::uint8_t { Client, Server };

enum class ConnState : std::uint8_t {
  Closed, SynSent, Listening, Established, Failed
};

/// Why a connection entered ConnState::Failed.
enum class FailureReason {
  None,
  HandshakeTimeout,  ///< max_connect_attempts SYNs went unanswered
  RtoStreak,         ///< max_rto_streak consecutive RTOs without progress
  KeepaliveTimeout,  ///< max_keepalive_misses probe intervals without input
};

const char* failure_reason_name(FailureReason r);

struct RudpStats {
  std::uint64_t messages_offered = 0;
  std::uint64_t messages_enqueued = 0;
  std::uint64_t messages_discarded_at_send = 0;
  std::uint64_t messages_skipped = 0;       ///< via ADVANCE after loss
  std::uint64_t segments_sent = 0;          ///< data transmissions incl. rexmit
  std::uint64_t segments_retransmitted = 0;
  std::uint64_t segments_skipped = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t advances_sent = 0;
  std::uint64_t nuls_sent = 0;
  std::int64_t payload_bytes_sent = 0;
  std::int64_t payload_bytes_acked = 0;
  std::uint64_t duplicates_received = 0;
  std::uint64_t messages_delivered = 0;     ///< as a receiver
  std::uint64_t messages_dropped = 0;       ///< as a receiver (skipped)
  std::int64_t payload_bytes_delivered = 0; ///< as a receiver
  std::uint64_t parities_sent = 0;          ///< PARITY segments emitted
  std::uint64_t parities_received = 0;      ///< as a receiver
  std::uint64_t segments_recovered = 0;     ///< rebuilt from parity, no rexmit
  std::uint64_t fec_deferrals = 0;          ///< fast retransmits held back
  // Failure / robustness.
  std::uint64_t connect_retries = 0;        ///< SYNs after the first
  std::uint64_t rto_backoffs = 0;           ///< exponential RTO escalations
  std::uint64_t keepalive_misses = 0;       ///< probe intervals w/o input
  std::uint64_t rto_probe_nuls = 0;         ///< dead-path probes during streaks
  std::uint64_t checksum_rejects = 0;       ///< corrupted datagrams rejected
  std::uint64_t sends_dropped = 0;          ///< datagrams the wire refused
  std::uint64_t blackout_recoveries = 0;    ///< epoch resets after RTO streaks
  std::uint64_t messages_shed = 0;          ///< dropped by backpressure bound
  std::uint64_t failures = 0;               ///< times Failed was entered
};

class RudpConnection {
 public:
  RudpConnection(SegmentWire& wire, RudpConfig cfg, Role role);
  ~RudpConnection();
  RudpConnection(const RudpConnection&) = delete;
  RudpConnection& operator=(const RudpConnection&) = delete;

  // ------------------------------------------------------------ control --
  /// Client: begin the SYN handshake.
  void connect();
  /// Server: accept the first matching SYN.
  void listen();
  /// Send RST and drop all state.
  void close();

  ConnState state() const { return state_; }
  bool established() const { return state_ == ConnState::Established; }
  bool failed() const { return state_ == ConnState::Failed; }
  FailureReason failure_reason() const { return failure_reason_; }

  // ------------------------------------------------------------- sending --
  struct SendResult {
    std::uint32_t msg_id = 0;
    bool discarded = false;  ///< dropped before send (IQ scheme 1)
  };
  /// Queue a message for transmission (fragmented to MSS). When send-side
  /// discard is active and the message is unmarked, it may be dropped here
  /// within the receiver's loss tolerance.
  SendResult send_message(const MessageSpec& spec);

  /// Queued-but-unsent fragments (the unit of max_pending_segments).
  std::size_t queued_segments() const { return pending_segments_; }
  bool send_idle() const {
    return pending_.empty() && send_buf_.empty();
  }

  // ----------------------------------------------------------- callbacks --
  using MessageFn = std::function<void(const DeliveredMessage&)>;
  using EstablishedFn = std::function<void()>;
  using EpochFn = std::function<void(const EpochReport&)>;
  using ClosedFn = std::function<void()>;
  using ErrorFn = std::function<void(FailureReason)>;
  using DrainedFn = std::function<void()>;

  /// Protocol tap: observes every segment leaving and entering this
  /// endpoint (before loss — taps see what the engine does, not what the
  /// network delivers). For debugging, tracing and tests.
  enum class TapDirection { Out, In };
  using SegmentTap = std::function<void(TapDirection, const Segment&)>;
  void set_segment_tap(SegmentTap fn) { tap_ = std::move(fn); }

  void set_message_handler(MessageFn fn) { on_message_ = std::move(fn); }
  void set_established_handler(EstablishedFn fn) {
    on_established_ = std::move(fn);
  }
  /// Fires once per loss-measuring epoch with transport metrics — the feed
  /// for quality attributes and application callbacks.
  void set_epoch_handler(EpochFn fn) { on_epoch_ = std::move(fn); }
  void set_closed_handler(ClosedFn fn) { on_closed_ = std::move(fn); }
  /// Fires once when the connection gives up and enters ConnState::Failed
  /// (handshake exhaustion, RTO streak, or dead-peer keepalive timeout).
  void set_error_handler(ErrorFn fn) { on_error_ = std::move(fn); }
  /// Ack-clocked refill (the congestion manager's cmapp_send): fires at
  /// the end of every inbound ACK that leaves the unsent queue empty, after
  /// the send loop ran, so a bulk sender tops the queue up at once. It
  /// fires only from the ack path, never from send_message(), so a handler
  /// that sends cannot recurse; a handler with nothing to add returns at
  /// once. One per connection: a new one replaces the old, an empty one
  /// clears it, and its owner clears it before it dies.
  void set_drained_handler(DrainedFn fn) { on_drained_ = std::move(fn); }

  // ----------------------------------------- coordination / adaptation ---
  /// IQ scheme 1: discard unmarked messages at send time while true.
  void set_discard_unmarked(bool enabled) { discard_unmarked_ = enabled; }
  bool discard_unmarked() const { return discard_unmarked_; }
  /// IQ schemes 2/3: multiply the congestion window.
  void scale_congestion_window(double factor);
  /// Update this endpoint's receiver tolerance (advertised value is from
  /// the handshake; the sender-side budget follows the peer's SYN-ACK).
  void set_local_recv_tolerance(double tolerance);
  /// Retune the FEC parity ratio (1/k); applies to the next parity group.
  void set_fec_group_size(std::uint16_t k);
  std::uint16_t fec_group_size() const { return fec_enc_.group_size(); }
  /// Retune the backpressure bound at runtime (0 = unbounded); sheds
  /// immediately if the queue already exceeds the new bound.
  void set_max_pending_segments(std::size_t limit);

  /// Delegate congestion control to an external controller (non-owning) —
  /// the congestion-manager hook: a cm::FlowHandle plugged in here makes
  /// this connection's window its apportioned share of a per-destination
  /// aggregate (docs/CM.md). nullptr restores the built-in controller.
  /// The caller keeps `external` alive until it is unset or the connection
  /// is destroyed.
  void set_external_congestion(CongestionController* external);
  CongestionController* external_congestion() { return ext_cc_; }
  /// External notification that the active controller's window grew (e.g.
  /// a sibling flow left the macro-flow and this flow's share rose):
  /// re-enter the send loop to fill the freed window immediately.
  void window_updated() { pump(); }

  // --------------------------------------------------------------- audit --
  /// Arm the flight recorder + invariant auditor on this connection. Every
  /// protocol event (send/ack/loss/RTO/cwnd-change/epoch-close/rescale)
  /// flows into a fixed-size binary ring and through the conservation and
  /// monotonicity checks (docs/AUDIT.md). Near-zero cost while disarmed:
  /// every emission site is a single null-pointer test. Also armed
  /// process-wide by exporting IQ_AUDIT=1 (scripts/ci.sh --audit).
  audit::AuditContext* enable_audit(audit::AuditConfig acfg = {});
  /// nullptr while audit is disarmed.
  audit::AuditContext* audit() { return audit_.get(); }
  const audit::AuditContext* audit() const { return audit_.get(); }
  /// Loss-epoch accounting (exposed for the auditor's seed tests).
  const LossMonitor& loss_monitor() const { return loss_; }
  /// Coordinator hook: record a CoordRescale audit event describing the
  /// upcoming scale_congestion_window call (no-op while disarmed).
  /// `scheme`: 1 = resolution rescale, 2 = frequency ablation, 3 = FEC debit.
  void audit_coord_rescale(double factor, double eratio, std::uint8_t scheme);

  // -------------------------------------------------------------- status --
  /// The controller actually in charge: the external one when attached
  /// (set_external_congestion), the built-in otherwise.
  CongestionController& congestion() { return *active_cc(); }
  const CongestionController& congestion() const { return *active_cc(); }
  const RudpStats& stats() const { return stats_; }
  Duration srtt() const { return rtt_.srtt(); }
  Duration rto() const { return rtt_.rto(); }
  double last_loss_ratio() const { return loss_.last_loss_ratio(); }
  double lifetime_loss_ratio() const { return loss_.lifetime_loss_ratio(); }
  double peer_recv_tolerance() const { return budget_.tolerance(); }
  int inflight() const { return send_buf_.inflight(); }
  const SkipBudget& skip_budget() const { return budget_; }
  sim::Executor& executor() { return wire_.executor(); }

 private:
  /// One queued message; pump() cuts its fragments off the front entry,
  /// so only that entry can be partly sent (next_frag > 0).
  struct PendingMessage {
    std::uint32_t msg_id = 0;
    std::uint16_t frag_count = 1;
    std::uint16_t next_frag = 0;  ///< first fragment not yet sent
    std::int64_t bytes = 0;
    bool marked = true;
    bool fec = false;
    bool skipped = false;  ///< a sent fragment spent the skip budget
    attr::AttrList attrs;  ///< moves onto fragment 0
  };

  // Inbound dispatch.
  void on_segment(const Segment& seg);
  void on_syn(const Segment& seg);
  void on_syn_ack(const Segment& seg);
  void on_data(const Segment& seg);
  void on_ack(const Segment& seg);
  void on_advance(const Segment& seg);
  void on_parity(const Segment& seg);

  // Outbound helpers.
  void emit(Segment&& seg);
  void pump();
  void transmit(const Outstanding& o, bool retransmission);
  void send_ack(std::uint64_t ts_echo_us);
  void send_advance(std::span<const SkippedSeq> skipped);
  /// Re-advertise the skip records at or above `from` (lost ADVANCE).
  void resend_skips(Seq from);
  void send_syn();
  void send_control(SegmentType type);
  /// Emit one parity segment (fire-and-forget: no seq, never buffered).
  void send_parity(Segment parity);
  /// Close and emit any partially filled parity groups (flush timer).
  void flush_fec();
  /// Feed segments rebuilt by the FEC decoder into reassembly as if the
  /// lost DATA had arrived, then drop groups the cumulative point passed.
  void inject_recovered(std::vector<RecvSegment> recovered);

  // Loss handling.
  void handle_lost_segments(std::span<const Seq> lost);
  /// Retransmit or skip one condemned segment; returns a skip record if the
  /// segment was abandoned.
  std::optional<SkippedSeq> resolve_loss(Seq seq, bool from_timeout);
  void on_rto();
  void arm_rto();

  void on_epoch_report(const EpochReport& report);
  void deliver(RecvBuffer::Result& result);

  // Audit emission helpers — no-ops (single branch) while disarmed.
  void audit_emit(audit::EventType type, Seq seq = 0, std::uint64_t a = 0,
                  std::uint64_t b = 0, std::uint64_t c = 0,
                  std::uint64_t d = 0, double x = 0.0, double y = 0.0,
                  std::uint8_t flag = 0);
  /// Emit a CwndChange event if cwnd moved relative to `before`.
  void audit_cwnd(audit::CwndCause cause, double before);
  void become_established();
  void enter_failed(FailureReason reason);
  void on_keepalive_tick();
  /// Probe-judgment interval: the configured keepalive, bounded below by
  /// the current RTO so a probe's reply has a full round trip (plus
  /// variance margin) to arrive before the next tick judges it. Without
  /// the bound, a keepalive shorter than the path RTT (satellite: 500 ms)
  /// accumulates phantom misses into a false KeepaliveTimeout.
  Duration keepalive_interval() const;
  /// Enforce max_pending_segments by shedding oldest whole unsent messages.
  void shed_pending();

  std::uint64_t now_us() const;

  CongestionController* active_cc() { return ext_cc_ ? ext_cc_ : cc_.get(); }
  const CongestionController* active_cc() const {
    return ext_cc_ ? ext_cc_ : cc_.get();
  }

  SegmentWire& wire_;
  RudpConfig cfg_;
  Role role_;
  ConnState state_ = ConnState::Closed;
  std::uint32_t unacked_arrivals_ = 0;  ///< in the padding after the enums

  std::unique_ptr<CongestionController> cc_;
  CongestionController* ext_cc_ = nullptr;  ///< non-owning override
  RttEstimator rtt_;
  LossMonitor loss_;
  SendBuffer send_buf_;
  RecvBuffer recv_buf_;
  /// Reused across every on_data/on_skip call: a gap fill can release a
  /// large delivery backlog at once, and the scratch keeps that high-water
  /// capacity instead of reallocating it per segment.
  RecvBuffer::Result recv_scratch_;
  SkipBudget budget_;  ///< sender-side budget; tolerance = peer's advertised
  fec::FecEncoder fec_enc_;
  fec::FecDecoder fec_dec_;

  /// Unsent message queue: the message is the unit of adaptation (§3.3
  /// discards whole messages), so it is the unit queued. A ring buffer, not
  /// a deque: deques allocate a chunk per chunk-worth of push/pop traffic,
  /// which would break the zero-allocation steady state of the segment path.
  iq::RingQueue<PendingMessage> pending_;
  /// Unsent fragments across pending_, the unit the backlog bounds count.
  std::size_t pending_segments_ = 0;
  TimePoint last_skip_resend_;
  Seq next_seq_ = 1;
  std::uint32_t next_msg_id_ = 1;
  std::uint32_t peer_rwnd_ = 4096;  ///< as last advertised (acks, control)
  bool window_limited_ = false;
  bool discard_unmarked_ = false;
  int connect_attempts_ = 0;
  FailureReason failure_reason_ = FailureReason::None;
  /// Consecutive RTO expirations without forward progress; the timed-out
  /// head sequence pins the streak so separate stalls don't accumulate.
  int rto_streak_ = 0;
  Seq rto_streak_seq_ = 0;
  // Dead-peer probing: inbound activity since the last keepalive tick, and
  // whether a probe is awaiting any response.
  bool recv_activity_ = false;
  bool keepalive_probe_outstanding_ = false;
  int keepalive_miss_streak_ = 0;

  sim::Timer rto_timer_;
  sim::Timer connect_timer_;
  sim::Timer keepalive_timer_;
  sim::Timer ack_timer_;
  sim::Timer fec_flush_timer_;
  std::uint64_t last_ts_to_echo_ = 0;

  RudpStats stats_;

  std::unique_ptr<audit::AuditContext> audit_;

  MessageFn on_message_;
  EstablishedFn on_established_;
  EpochFn on_epoch_;
  ClosedFn on_closed_;
  ErrorFn on_error_;
  DrainedFn on_drained_;
  SegmentTap tap_;
};

}  // namespace iq::rudp
