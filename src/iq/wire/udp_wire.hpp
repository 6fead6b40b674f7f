#pragma once
// Real-socket backend: the identical RUDP engine over UDP on localhost.
//
// RealtimeLoop implements the Executor interface against the monotonic
// clock with an epoll(7)-driven event loop and a timerfd-armed timer heap;
// UdpWire encodes segments with the wire codec and moves them through an
// actual AF_INET datagram socket in sendmmsg/recvmmsg batches, with UDP
// GSO/GRO carrying each run of equal-size segments across the kernel as
// one message. Used by the loopback example, the integration tests, the
// two-process soak and bench_wire to demonstrate the protocol is a
// deployable transport, not only a simulation artifact. docs/WIRE.md has
// the event-loop contract, the batching/zero-copy lifetime rules and the
// soak instructions.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "iq/common/bytes.hpp"
#include "iq/common/rng.hpp"
#include "iq/rudp/segment_wire.hpp"
#include "iq/sim/timer_wheel.hpp"

// Forward-declared here so <sys/socket.h> stays out of this header.
struct mmsghdr;
struct iovec;

namespace iq::wire {

/// Epoll-based realtime executor.
///
/// Contract (docs/WIRE.md):
///  * Single-threaded: every callback (fd readiness, timers, hooks) runs on
///    the thread inside run_until/run_for/poll_once.
///  * Timers are timerfd-armed: a due timer fires without any forced sleep,
///    and sub-millisecond waits sleep their actual duration instead of
///    being floored to 1 ms (regression-tested — the poll(2) predecessor
///    imposed a systematic >=1 ms latency floor on every RTO/keepalive).
///  * Readiness callbacks may add_fd/remove_fd freely, including removing
///    the fd being dispatched or any other fd in the same ready batch:
///    dispatch resolves each event against the *current* watch list, and a
///    watcher removed mid-dispatch is skipped, not misdispatched.
class RealtimeLoop final : public sim::Executor {
 public:
  RealtimeLoop();
  ~RealtimeLoop() override;
  RealtimeLoop(const RealtimeLoop&) = delete;
  RealtimeLoop& operator=(const RealtimeLoop&) = delete;

  TimePoint now() const override;
  sim::EventId schedule_at(TimePoint t, sim::EventFn fn) override;
  bool cancel_event(sim::EventId id) override;

  /// Watch a file descriptor; `on_readable` runs when it has data.
  void add_fd(int fd, std::function<void()> on_readable);
  void remove_fd(int fd);

  /// Register a hook that runs after every dispatch round, before the loop
  /// can block — the transmit-batching flush point: wires queue datagrams
  /// during dispatch and push the whole batch in one sendmmsg here, so
  /// batching never adds latency (nothing queued ever waits out a sleep).
  using HookId = std::uint64_t;
  HookId add_before_wait(std::function<void()> hook);
  void remove_before_wait(HookId id);

  /// Run until `done()` returns true or `max_wall` elapses.
  /// Returns true if `done()` was satisfied.
  bool run_until(const std::function<bool()>& done,
                 Duration max_wall = Duration::seconds(30));
  /// Run for a fixed wall-clock span.
  void run_for(Duration wall);

  /// One event-loop iteration: fire due timers, flush, wait (at most
  /// `max_wait`, cut short by fd readiness or the next timer deadline),
  /// dispatch, fire due timers, flush. Public so benches and external
  /// drivers (the soak) can interleave the loop with their own work.
  void poll_once(Duration max_wait);

 private:
  /// Heap-stable watcher record: epoll events carry the Watcher pointer,
  /// and removal during dispatch only marks it dead (compacted after the
  /// dispatch round), so a callback mutating the watch list can never
  /// invalidate the entry another ready event is about to use.
  struct Watcher {
    int fd;
    std::function<void()> on_readable;
    bool dead = false;
  };
  struct Hook {
    HookId id;
    std::function<void()> fn;
  };

  /// Returns how many timers ran; a non-empty round makes the following
  /// wait non-blocking so run_until predicates are re-checked promptly.
  std::size_t fire_due_timers();
  void run_hooks();
  /// Keep the timerfd armed at the next timer deadline (absolute
  /// CLOCK_MONOTONIC); disarmed when no timers are pending.
  void arm_timerfd();

  std::int64_t epoch_ns_;  ///< steady-clock origin of TimePoint zero
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
  std::int64_t armed_ns_ = -1;  ///< timerfd target (absolute ns); -1 disarmed
  /// O(1) timing wheel; the timerfd is armed at its next_time() through the
  /// cached armed_ns_ coalescing in arm_timerfd().
  sim::TimerWheel timers_;
  std::vector<std::unique_ptr<Watcher>> fds_;
  bool dispatching_ = false;
  bool compact_needed_ = false;
  std::vector<Hook> hooks_;
  HookId next_hook_id_ = 1;
};

/// Tuning + netem-style userspace impairment for one UdpWire endpoint.
/// Impairment exists so the soak and fault-matrix rows can run lossy /
/// blackout scenarios on hosts where tc-netem is unavailable (containers):
/// drops are applied at this endpoint, after the kernel, with a seeded RNG,
/// and counted separately from genuine kernel send failures.
struct UdpWireConfig {
  /// Datagrams queued per send batch; sends flush when the batch fills and
  /// at every loop flush point. Also sizes the receive memory: batch ×
  /// 9216 B, carved into 64-KiB receive slots (at least one).
  std::size_t batch = 16;
  /// Probability an inbound / outbound datagram is dropped here.
  double rx_drop = 0.0;
  double tx_drop = 0.0;
  std::uint64_t impairment_seed = 1;
};

/// Counters are in datagrams (one encoded segment each) unless they say
/// messages: with UDP GSO/GRO one sendmmsg/recvmmsg message carries a run
/// of datagrams, so datagrams ÷ messages is the coalescing factor.
struct UdpWireStats {
  std::uint64_t datagrams_sent = 0;      ///< accepted by the kernel
  std::uint64_t datagrams_received = 0;  ///< decoded and dispatched
  std::uint64_t send_messages = 0;  ///< sendmmsg messages the kernel took
  std::uint64_t recv_messages = 0;  ///< recvmmsg messages (buffers) returned
  /// All rejected inbound datagrams (any DecodeStatus failure, truncation).
  std::uint64_t decode_failures = 0;
  /// Subset rejected specifically by the wire checksum: well-framed IQ
  /// datagrams whose CRC did not match (corruption in flight).
  std::uint64_t checksum_rejects = 0;
  /// Datagrams the kernel refused to take (EWOULDBLOCK/ENOBUFS under
  /// pressure, EMSGSIZE for oversize) — previously a silent log line, now
  /// surfaced through SegmentWire::set_send_drop_handler into
  /// RudpStats::sends_dropped and NET_SENDS_DROPPED.
  std::uint64_t sends_dropped = 0;
  /// Zero-length datagrams: a valid (if useless) UDP arrival, distinguished
  /// from "socket drained" and never fed to the decoder.
  std::uint64_t empty_datagrams = 0;
  std::uint64_t truncated_datagrams = 0;  ///< buffers flagged MSG_TRUNC
  std::uint64_t send_batches = 0;   ///< sendmmsg calls that moved >=1
  std::uint64_t recv_batches = 0;   ///< recvmmsg calls that moved >=1
  std::uint64_t max_send_batch = 0;  ///< most datagrams one sendmmsg moved
  std::uint64_t max_recv_batch = 0;  ///< most datagrams one recvmmsg moved
  std::uint64_t impaired_tx_drops = 0;  ///< userspace impairment, outbound
  std::uint64_t impaired_rx_drops = 0;  ///< userspace impairment, inbound
};

/// Which UDP offloads the kernel accepted when the wire's socket was set
/// up. A refused option is not an error: the wire runs the same code with
/// send runs of one datagram (no GSO) or receive buffers that each hold
/// one datagram (no GRO), and a peer without GRO still gets every segment
/// as its own datagram because the kernel cuts GSO sends apart.
struct UdpOffload {
  bool gso = false;  ///< UDP_SEGMENT: a send run leaves as one message
  bool gro = false;  ///< UDP_GRO: one receive buffer may hold a run
};

class UdpWire final : public rudp::SegmentWire {
 public:
  /// Binds 127.0.0.1:`local_port`; sends to 127.0.0.1:`remote_port`.
  UdpWire(RealtimeLoop& loop, std::uint16_t local_port,
          std::uint16_t remote_port, UdpWireConfig cfg = {});
  ~UdpWire() override;
  UdpWire(const UdpWire&) = delete;
  UdpWire& operator=(const UdpWire&) = delete;

  void send(const rudp::Segment& segment) override;
  void set_receiver(RecvFn fn) override { recv_ = std::move(fn); }
  void set_corruption_handler(CorruptionFn fn) override {
    corrupt_fn_ = std::move(fn);
  }
  void set_send_drop_handler(SendDropFn fn) override {
    drop_fn_ = std::move(fn);
  }
  sim::Executor& executor() override { return loop_; }

  /// Push any queued datagrams to the kernel now. Normally driven by the
  /// loop's before-wait hook; exposed for tests and shutdown paths.
  void flush_sends();

  /// Blackout impairment: drop everything in both directions while set
  /// (the soak's terminal-failure window).
  void set_blackout(bool on) { blackout_ = on; }

  const UdpWireStats& stats() const { return stats_; }
  const UdpOffload& offload() const { return offload_; }
  std::uint64_t datagrams_sent() const { return stats_.datagrams_sent; }
  std::uint64_t datagrams_received() const {
    return stats_.datagrams_received;
  }
  std::uint64_t decode_failures() const { return stats_.decode_failures; }
  std::uint64_t checksum_rejects() const { return stats_.checksum_rejects; }

 private:
  void on_readable();
  void dispatch(BytesView datagram);

  /// Ancillary-data space for one message's single UDP_SEGMENT or UDP_GRO
  /// cmsg (defined in udp_wire.cpp, which includes <sys/socket.h>).
  struct Control;

  RealtimeLoop& loop_;
  UdpWireConfig cfg_;
  int fd_ = -1;
  UdpOffload offload_;
  RealtimeLoop::HookId flush_hook_ = 0;
  Rng impairment_rng_;
  bool blackout_ = false;

  // Transmit batch: datagram i is encoded into arena i and described by
  // iovec i; the arena is reused only after flush_sends() has pushed it.
  // After the first few sends every arena sits at its high-water size and
  // the send path performs no heap allocation (see
  // rudp::encode_segment_into). flush_sends() points one mmsghdr at each
  // run of consecutive iovecs, so a run needs no copy.
  std::vector<ByteWriter> tx_arenas_;
  std::unique_ptr<mmsghdr[]> tx_msgs_;
  std::unique_ptr<iovec[]> tx_iovs_;
  std::unique_ptr<Control[]> tx_ctrl_;
  std::size_t tx_pending_ = 0;

  // Receive slots: 64-KiB buffers recvmmsg fills, each with one datagram
  // or one GRO run; decode_segment_view parses each segment in place from
  // its sub-range of the slot (the payload view aliases the slot and is
  // valid only for the synchronous recv_ dispatch — zero-copy lifetime
  // rules in docs/WIRE.md).
  std::vector<Bytes> rx_bufs_;
  std::unique_ptr<mmsghdr[]> rx_msgs_;
  std::unique_ptr<iovec[]> rx_iovs_;
  std::unique_ptr<Control[]> rx_ctrl_;

  RecvFn recv_;
  CorruptionFn corrupt_fn_;
  SendDropFn drop_fn_;
  UdpWireStats stats_;
};

}  // namespace iq::wire
