#include "iq/wire/udp_wire.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "iq/common/check.hpp"
#include "iq/common/log.hpp"
#include "iq/rudp/codec.hpp"

namespace iq::wire {

namespace {

constexpr int kMaxEpollEvents = 64;

/// Receive memory per unit of UdpWireConfig::batch: the 9216-B slot each
/// batched datagram had before GRO. The 64-KiB slots come out of the same
/// budget, so GRO adds no receive memory.
constexpr std::size_t kRecvBytesPerBatch = 9216;
/// Largest UDP datagram and largest GRO buffer: no slot can truncate.
constexpr std::size_t kRecvSlotBytes = 64 * 1024;
/// Limits on one GSO send: the kernel's segment cap (UDP_MAX_SEGMENTS is
/// 64 on older kernels) and the largest UDP payload over IPv4.
constexpr std::size_t kMaxGsoSegments = 64;
constexpr std::size_t kMaxUdpPayload = 65507;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ceil a Duration to whole milliseconds for epoll_wait: rounding *up*
/// keeps a sub-millisecond bound from truncating to a busy-spin; the
/// timerfd provides the sub-millisecond precision inside the wait.
int ceil_ms(Duration d) {
  if (d <= Duration::zero()) return 0;
  const std::int64_t ms = (d.ns() + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::int64_t>(ms, 60'000));
}

}  // namespace

// -------------------------------------------------------- RealtimeLoop ----

RealtimeLoop::RealtimeLoop() : epoch_ns_(steady_ns()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  IQ_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1() failed");
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  IQ_CHECK_MSG(timer_fd_ >= 0, "timerfd_create() failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // nullptr marks the timerfd
  const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev);
  IQ_CHECK_MSG(rc == 0, "epoll_ctl(ADD timerfd) failed");
}

RealtimeLoop::~RealtimeLoop() {
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

TimePoint RealtimeLoop::now() const {
  return TimePoint::from_ns(steady_ns() - epoch_ns_);
}

sim::EventId RealtimeLoop::schedule_at(TimePoint t, sim::EventFn fn) {
  return timers_.schedule(t, std::move(fn));
}

bool RealtimeLoop::cancel_event(sim::EventId id) { return timers_.cancel(id); }

void RealtimeLoop::add_fd(int fd, std::function<void()> on_readable) {
  auto watcher = std::make_unique<Watcher>();
  watcher->fd = fd;
  watcher->on_readable = std::move(on_readable);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = watcher.get();
  const int rc = ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  IQ_CHECK_MSG(rc == 0, "epoll_ctl(ADD) failed");
  fds_.push_back(std::move(watcher));
}

void RealtimeLoop::remove_fd(int fd) {
  for (auto& w : fds_) {
    if (w->fd != fd || w->dead) continue;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    w->dead = true;
    compact_needed_ = true;
  }
  // Mid-dispatch, the Watcher object must stay alive: a later event in the
  // current ready batch may still point at it (it is skipped via `dead`).
  if (!dispatching_ && compact_needed_) {
    std::erase_if(fds_, [](const auto& w) { return w->dead; });
    compact_needed_ = false;
  }
}

RealtimeLoop::HookId RealtimeLoop::add_before_wait(
    std::function<void()> hook) {
  const HookId id = next_hook_id_++;
  hooks_.push_back(Hook{id, std::move(hook)});
  return id;
}

void RealtimeLoop::remove_before_wait(HookId id) {
  std::erase_if(hooks_, [id](const Hook& h) { return h.id == id; });
}

std::size_t RealtimeLoop::fire_due_timers() {
  std::size_t fired = 0;
  while (auto ev = timers_.pop_until(now())) {
    ev->fn();
    ++fired;
  }
  return fired;
}

void RealtimeLoop::run_hooks() {
  // Hooks may not add/remove hooks during iteration (wires install exactly
  // one for their lifetime); indexed loop tolerates growth regardless.
  for (std::size_t i = 0; i < hooks_.size(); ++i) hooks_[i].fn();
}

void RealtimeLoop::arm_timerfd() {
  std::int64_t want = -1;
  if (!timers_.empty()) want = epoch_ns_ + timers_.next_time().ns();
  if (want == armed_ns_) return;
  itimerspec spec{};
  if (want >= 0) {
    spec.it_value.tv_sec = want / 1'000'000'000;
    spec.it_value.tv_nsec = want % 1'000'000'000;
  }
  // want < 0 leaves it_value zeroed, which disarms the timer.
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  armed_ns_ = want;
}

void RealtimeLoop::poll_once(Duration max_wait) {
  // A timer that is already due fires before any wait: the poll(2)
  // predecessor slept >= 1 ms here regardless, putting a systematic floor
  // under every RTO and keepalive on the real path.
  const std::size_t fired = fire_due_timers();
  run_hooks();

  int timeout_ms;
  if (fired > 0 || (!timers_.empty() && timers_.next_time() <= now())) {
    // This iteration already did work (or more is due): poll readiness
    // without blocking so run_until can re-evaluate its predicate — a
    // satisfied caller must not wait out a full max_wait first.
    timeout_ms = 0;
  } else {
    arm_timerfd();
    timeout_ms = ceil_ms(max_wait);
  }

  epoll_event events[kMaxEpollEvents];
  const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  if (n > 0) {
    dispatching_ = true;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        // Timerfd tick: drain the expiration count; the due timers fire
        // below. A stale read (timer rearmed meanwhile) is harmless.
        std::uint64_t expirations;
        [[maybe_unused]] const ssize_t r =
            ::read(timer_fd_, &expirations, sizeof(expirations));
        continue;
      }
      auto* w = static_cast<Watcher*>(events[i].data.ptr);
      if (!w->dead) w->on_readable();
    }
    dispatching_ = false;
    if (compact_needed_) {
      std::erase_if(fds_, [](const auto& w) { return w->dead; });
      compact_needed_ = false;
    }
  }
  fire_due_timers();
  // Flush before returning so acks and retransmissions produced by this
  // dispatch round reach the kernel before the loop can block again.
  run_hooks();
}

bool RealtimeLoop::run_until(const std::function<bool()>& done,
                             Duration max_wall) {
  const TimePoint deadline = now() + max_wall;
  while (!done()) {
    if (now() >= deadline) return false;
    poll_once(Duration::millis(20));
  }
  return true;
}

void RealtimeLoop::run_for(Duration wall) {
  const TimePoint deadline = now() + wall;
  while (now() < deadline) poll_once(Duration::millis(20));
}

// -------------------------------------------------------------- UdpWire ---

struct UdpWire::Control {
  alignas(cmsghdr) unsigned char buf[CMSG_SPACE(sizeof(int))];
};

namespace {

/// The segment size a GRO buffer's run is cut at (its UDP_GRO cmsg), or
/// the whole buffer when it holds a single datagram.
std::size_t gro_segment_size(msghdr& h, std::size_t len) {
  for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
    if (c->cmsg_level != SOL_UDP || c->cmsg_type != UDP_GRO) continue;
    int size = 0;
    std::memcpy(&size, CMSG_DATA(c), sizeof(size));
    if (size > 0 && static_cast<std::size_t>(size) < len) {
      return static_cast<std::size_t>(size);
    }
  }
  return len;
}

}  // namespace

UdpWire::UdpWire(RealtimeLoop& loop, std::uint16_t local_port,
                 std::uint16_t remote_port, UdpWireConfig cfg)
    : loop_(loop),
      cfg_(cfg),
      impairment_rng_(cfg.impairment_seed),
      tx_arenas_(cfg.batch),
      rx_bufs_(std::max<std::size_t>(
          1, cfg.batch * kRecvBytesPerBatch / kRecvSlotBytes)) {
  IQ_CHECK(cfg_.batch >= 1);
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  IQ_CHECK_MSG(fd_ >= 0, "socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(local_port);
  int rc = ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  IQ_CHECK_MSG(rc == 0, "bind() failed");

  // Connect the socket to the peer: sendmmsg needs no per-message address
  // and the kernel filters stray datagrams from other sources.
  addr.sin_port = htons(remote_port);
  rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  IQ_CHECK_MSG(rc == 0, "connect() failed");

  // UDP offloads. UDP_SEGMENT at 0 only asks whether the kernel knows the
  // option (each run gives its segment size in a cmsg); UDP_GRO lets the
  // kernel hand over a run as one buffer. Either may be refused.
  const int off = 0, on = 1;
  offload_.gso =
      ::setsockopt(fd_, SOL_UDP, UDP_SEGMENT, &off, sizeof(off)) == 0;
  offload_.gro = ::setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0;

  // Messages never outnumber datagrams, so `batch` mmsghdrs cover any
  // grouping of the send batch.
  tx_msgs_ = std::make_unique<mmsghdr[]>(cfg_.batch);
  tx_iovs_ = std::make_unique<iovec[]>(cfg_.batch);
  tx_ctrl_ = std::make_unique<Control[]>(cfg_.batch);
  std::memset(tx_msgs_.get(), 0, sizeof(mmsghdr) * cfg_.batch);
  for (std::size_t i = 0; i < cfg_.batch; ++i) {
    auto* c = reinterpret_cast<cmsghdr*>(tx_ctrl_[i].buf);
    c->cmsg_level = SOL_UDP;
    c->cmsg_type = UDP_SEGMENT;
    c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  }
  const std::size_t slots = rx_bufs_.size();
  rx_msgs_ = std::make_unique<mmsghdr[]>(slots);
  rx_iovs_ = std::make_unique<iovec[]>(slots);
  rx_ctrl_ = std::make_unique<Control[]>(slots);
  std::memset(rx_msgs_.get(), 0, sizeof(mmsghdr) * slots);
  for (std::size_t i = 0; i < slots; ++i) {
    rx_bufs_[i].resize(kRecvSlotBytes);
    rx_iovs_[i] = {rx_bufs_[i].data(), rx_bufs_[i].size()};
    rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
    rx_msgs_[i].msg_hdr.msg_iovlen = 1;
    rx_msgs_[i].msg_hdr.msg_control = rx_ctrl_[i].buf;
  }

  loop_.add_fd(fd_, [this] { on_readable(); });
  flush_hook_ = loop_.add_before_wait([this] { flush_sends(); });
}

UdpWire::~UdpWire() {
  if (fd_ >= 0) {
    flush_sends();
    loop_.remove_before_wait(flush_hook_);
    loop_.remove_fd(fd_);
    ::close(fd_);
  }
}

void UdpWire::send(const rudp::Segment& segment) {
  if (blackout_ ||
      (cfg_.tx_drop > 0.0 && impairment_rng_.chance(cfg_.tx_drop))) {
    ++stats_.impaired_tx_drops;
    return;
  }
  // Encode into this slot's arena: after the first datagram through a slot
  // the writer's buffer is at its high-water size and sends stop
  // allocating. The slot is reused only after flush_sends() has pushed it.
  ByteWriter& arena = tx_arenas_[tx_pending_];
  const BytesView wire = rudp::encode_segment_into(arena, segment);
  tx_iovs_[tx_pending_] = {const_cast<std::uint8_t*>(wire.data()),
                           wire.size()};
  ++tx_pending_;
  if (tx_pending_ == cfg_.batch) flush_sends();
}

void UdpWire::flush_sends() {
  // Group the queued datagrams into messages. With GSO, each run of
  // consecutive equal-size datagrams (one shorter datagram may close it)
  // becomes one message whose UDP_SEGMENT cmsg tells the kernel where to
  // cut it apart again, so every segment still leaves as its own datagram.
  std::size_t n_msgs = 0;
  std::size_t i = 0;
  while (i < tx_pending_) {
    const std::size_t seg = tx_iovs_[i].iov_len;
    std::size_t end = i + 1;
    std::size_t bytes = seg;
    while (offload_.gso && end < tx_pending_ && end - i < kMaxGsoSegments) {
      const std::size_t len = tx_iovs_[end].iov_len;
      if (len > seg || bytes + len > kMaxUdpPayload) break;
      bytes += len;
      ++end;
      if (len < seg) break;
    }
    msghdr& h = tx_msgs_[n_msgs].msg_hdr;
    h.msg_iov = &tx_iovs_[i];
    h.msg_iovlen = end - i;
    if (end - i > 1) {
      const auto size = static_cast<std::uint16_t>(seg);
      std::memcpy(CMSG_DATA(reinterpret_cast<cmsghdr*>(tx_ctrl_[n_msgs].buf)),
                  &size, sizeof(size));
      h.msg_control = tx_ctrl_[n_msgs].buf;
      h.msg_controllen = CMSG_SPACE(sizeof(size));
    } else {
      h.msg_control = nullptr;
      h.msg_controllen = 0;
    }
    i = end;
    ++n_msgs;
  }

  std::size_t off = 0;
  while (off < n_msgs) {
    const unsigned n = static_cast<unsigned>(n_msgs - off);
    const int r = ::sendmmsg(fd_, &tx_msgs_[off], n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      // The head message was refused (EWOULDBLOCK/ENOBUFS under pressure,
      // EMSGSIZE for oversize): count each of its datagrams as dropped —
      // silently log-warning them away hid real transmit losses from every
      // stat — skip it, and keep the rest of the batch moving.
      const std::size_t refused = tx_msgs_[off].msg_hdr.msg_iovlen;
      stats_.sends_dropped += refused;
      if (drop_fn_) {
        for (std::size_t k = 0; k < refused; ++k) drop_fn_();
      }
      log_warn("udp_wire: sendmmsg failed: ", std::strerror(errno));
      ++off;
      continue;
    }
    const auto taken = static_cast<std::size_t>(r);
    std::uint64_t datagrams = 0;
    for (std::size_t k = off; k < off + taken; ++k) {
      datagrams += tx_msgs_[k].msg_hdr.msg_iovlen;
    }
    stats_.datagrams_sent += datagrams;
    stats_.send_messages += taken;
    ++stats_.send_batches;
    stats_.max_send_batch = std::max(stats_.max_send_batch, datagrams);
    off += taken;
  }
  tx_pending_ = 0;
}

void UdpWire::on_readable() {
  const std::size_t slots = rx_bufs_.size();
  for (;;) {
    // The kernel overwrites msg_controllen with what it wrote.
    for (std::size_t i = 0; i < slots; ++i) {
      rx_msgs_[i].msg_hdr.msg_controllen = sizeof(Control::buf);
    }
    const int r = ::recvmmsg(fd_, rx_msgs_.get(), static_cast<unsigned>(slots),
                             MSG_DONTWAIT, nullptr);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      break;  // EWOULDBLOCK or error — drained
    }
    std::uint64_t datagrams = 0;
    for (int i = 0; i < r; ++i) {
      msghdr& h = rx_msgs_[i].msg_hdr;
      const std::size_t len = rx_msgs_[i].msg_len;
      if ((h.msg_flags & MSG_TRUNC) != 0) {
        ++datagrams;
        ++stats_.truncated_datagrams;
        ++stats_.decode_failures;
        continue;
      }
      if (len == 0) {
        // A zero-length datagram is a real (empty) arrival, not "socket
        // drained": count it and skip the decoder instead of letting it
        // surface as a spurious decode failure.
        ++datagrams;
        ++stats_.empty_datagrams;
        continue;
      }
      // A GRO buffer holds a run cut at one segment size (the last piece
      // may be shorter); each piece is a datagram in its own right.
      const std::size_t seg = gro_segment_size(h, len);
      for (std::size_t at = 0; at < len; at += seg) {
        ++datagrams;
        if (blackout_ ||
            (cfg_.rx_drop > 0.0 && impairment_rng_.chance(cfg_.rx_drop))) {
          ++stats_.impaired_rx_drops;
          continue;
        }
        dispatch(BytesView(rx_bufs_[i].data() + at, std::min(seg, len - at)));
      }
    }
    ++stats_.recv_batches;
    stats_.recv_messages += static_cast<std::uint64_t>(r);
    stats_.max_recv_batch = std::max(stats_.max_recv_batch, datagrams);
    if (static_cast<std::size_t>(r) < slots) break;
  }
}

void UdpWire::dispatch(BytesView datagram) {
  rudp::DecodeStatus status = rudp::DecodeStatus::Ok;
  // In-place decode: the payload view borrows its sub-range of the receive
  // slot, which lives until the next recvmmsg — long enough for the
  // synchronous recv_ dispatch (zero-copy lifetime rules in docs/WIRE.md).
  auto decoded = rudp::decode_segment_view(datagram, &status);
  if (!decoded) {
    ++stats_.decode_failures;
    if (status == rudp::DecodeStatus::BadChecksum) {
      ++stats_.checksum_rejects;
      if (corrupt_fn_) corrupt_fn_();
    }
    return;
  }
  ++stats_.datagrams_received;
  if (recv_) recv_(decoded->segment);
}

}  // namespace iq::wire
