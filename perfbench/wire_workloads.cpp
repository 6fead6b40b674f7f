// Real-socket workloads: one Coordinated IqRudpConnection pair over two
// UdpWire endpoints on 127.0.0.1, in one RealtimeLoop on one thread. The
// traffic crosses the kernel's loopback path, not a real link.

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "iq/attr/names.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/ftp/iq_ftp.hpp"
#include "iq/wire/udp_wire.hpp"
#include "iq/workload/mbone_trace.hpp"

namespace perfbench {

using namespace iq;

namespace {

// Loopback ports outside the ranges the tests (39200+, 40100+, 40180+),
// bench_wire (41000-41001) and the examples (47101-47102) bind, so the
// benchmark can run beside ctest. Set-up batches use port + 2 and + 3.
constexpr std::uint16_t kStreamPort = 45310;
constexpr std::uint16_t kFtpPort = 45320;

/// Set-up batches (SetupTimes): a handshake takes tens of microseconds and
/// a 32 MB FileImage tens of milliseconds. wire_stream takes a batch of
/// handshakes before each of its slices; wire_ftp takes a batch before the
/// run and a smaller one, with one FileImage, after each transfer.
constexpr int kHandshakeBatch = 100;
constexpr int kHandshakesPerTransfer = 10;
constexpr int kImageBatch = 5;
/// wire_stream's untraced measured phase is sent in this many slices.
constexpr std::uint64_t kStreamSlices = 10;

/// wire_stream: the open-loop frame rate, about half the rate at which the
/// send backlog starts to grow on a 4-core host (p99 latency jumps at 20k
/// frames/s and the backlog grows at 50k).
constexpr double kStreamFps = 10'000.0;
/// Frame = trace group size x this: 200..6000 B, i.e. 1-5 segments. This is
/// scenarios::table5's sizing, the paper's changing-application workload
/// whose frames straddle the segment size so the window rescale applies.
constexpr std::int64_t kStreamBytesPerMember = 100;
/// One frame in this many announces its size change (ADAPT_PKTSIZE +
/// APP_FRAME_BYTES), so Coordinator::on_send_attrs runs and, for sub-MSS
/// frames, rescales the window. Calibrated on the library's own
/// AdaptiveSource: the Table-5 IQ-RUDP run hands the coordinator 51
/// adaptation records in 8000 frames.
constexpr std::uint64_t kAnnounceEvery = 157;
constexpr std::int64_t kStreamMss = core::CoordinatorConfig{}.mss;
constexpr double kMaxResolutionChange =
    core::CoordinatorConfig{}.max_resolution_change;
constexpr Duration kStreamDeadline = Duration::millis(10);
/// latency_tail_us percentile: p95 of ~200k frames. (p99 of the loopback
/// stream swings by 2x between runs on a shared VM; p95 stays within ~10%.)
constexpr double kStreamTailQ = 0.95;

/// wire_ftp: file size of one transfer; the whole file is critical.
constexpr std::int64_t kFtpFileBytes = 32 << 20;
/// latency_tail_us percentile: ~100 transfers in 20 s leave ten beyond p90.
constexpr double kFtpTailQ = 0.90;

constexpr double kWarmupSeconds = 0.5;

/// Receive window, in segments, sized to the kernel's default UDP socket
/// buffer (212992 B holds ~90 loopback datagrams of an MSS-sized segment).
/// The library's default (4096) lets a burst overflow the receiving socket;
/// the kernel then drops datagrams and a 200 ms minimum RTO stalls the
/// stream, so run-to-run tails would measure those stalls, not the stack.
constexpr std::uint32_t kRecvWindowSegments = 64;

/// One connection pair on loopback. With a tracer, a TracedWire sits
/// between each connection and its UdpWire.
struct WirePair {
  WirePair(std::uint16_t port, Tracer* t)
      : tracer(t), udp_snd(loop, port, port + 1), udp_rcv(loop, port + 1, port) {
    rudp::SegmentWire* ws = &udp_snd;
    rudp::SegmentWire* wr = &udp_rcv;
    if (tracer != nullptr) {
      traced_snd = std::make_unique<TracedWire>(udp_snd, *tracer);
      traced_rcv = std::make_unique<TracedWire>(udp_rcv, *tracer);
      ws = traced_snd.get();
      wr = traced_rcv.get();
    }
    core::CoordinatorConfig cc;
    cc.mode = core::CoordinationMode::Coordinated;
    rudp::RudpConfig rc;
    rc.recv_window_packets = kRecvWindowSegments;
    snd = std::make_unique<core::IqRudpConnection>(*ws, rc, rudp::Role::Client,
                                                   cc);
    rcv = std::make_unique<core::IqRudpConnection>(*wr, rc, rudp::Role::Server,
                                                   cc);
  }

  bool handshake() {
    rcv->listen();
    snd->connect();
    return loop.run_until(
        [this] { return snd->established() && rcv->established(); },
        Duration::seconds(5));
  }

  void poll(Duration max_wait) {
    Scope s(tracer, Span::WirePoll);
    loop.poll_once(max_wait);
  }

  StackCounts counts() const {
    return StackCounts::of(snd->transport().stats(), rcv->transport().stats(),
                           snd->coordinator().stats());
  }

  Tracer* tracer;
  wire::RealtimeLoop loop;
  wire::UdpWire udp_snd;
  wire::UdpWire udp_rcv;
  std::unique_ptr<TracedWire> traced_snd;
  std::unique_ptr<TracedWire> traced_rcv;
  std::unique_ptr<core::IqRudpConnection> snd;
  std::unique_ptr<core::IqRudpConnection> rcv;
};

/// Socket-layer counters summed over both endpoints.
struct WireCounts {
  std::uint64_t sent = 0, send_batches = 0;
  std::uint64_t received = 0, recv_batches = 0;
  std::uint64_t sends_dropped = 0, decode_failures = 0;

  static WireCounts of(const WirePair& p) {
    WireCounts c;
    for (const wire::UdpWire* w : {&p.udp_snd, &p.udp_rcv}) {
      const auto& s = w->stats();
      c.sent += s.datagrams_sent;
      c.send_batches += s.send_batches;
      c.received += s.datagrams_received;
      c.recv_batches += s.recv_batches;
      c.sends_dropped += s.sends_dropped;
      c.decode_failures += s.decode_failures;
    }
    return c;
  }
  WireCounts operator-(const WireCounts& o) const {
    return {sent - o.sent,
            send_batches - o.send_batches,
            received - o.received,
            recv_batches - o.recv_batches,
            sends_dropped - o.sends_dropped,
            decode_failures - o.decode_failures};
  }
};

/// What the measured part of one phase saw, common to both workloads.
struct Measured {
  CpuTime cpu;
  std::int64_t wall_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t messages = 0;  ///< frames or FTP blocks delivered
  StackCounts stack;
  WireCounts wire;
  Tracer spans;  ///< valid for a traced phase
};

/// Snapshots taken at the start of the measured part of a phase. Taken
/// between poll_once calls, so no span is open and the tracer can restart.
struct Marker {
  explicit Marker(WirePair& p)
      : pair(p),
        cpu(process_cpu()),
        t_ns(now_ns()),
        allocs(alloc_count()),
        stack(p.counts()),
        wire(WireCounts::of(p)) {
    if (p.tracer != nullptr) *p.tracer = Tracer{};
  }
  /// Keep a set-up batch's CPU time out of the measurement.
  void exclude(const CpuTime& c) { excluded += c; }
  Measured finish(std::uint64_t messages) const {
    Measured m;
    m.wall_ns = now_ns() - t_ns;
    m.cpu = process_cpu() - cpu - excluded;
    m.allocs = alloc_count() - allocs;
    m.messages = messages;
    m.stack = pair.counts() - stack;
    m.wire = WireCounts::of(pair) - wire;
    if (pair.tracer != nullptr) m.spans = *pair.tracer;
    return m;
  }
  WirePair& pair;
  CpuTime cpu;
  std::int64_t t_ns;
  std::uint64_t allocs;
  StackCounts stack;
  WireCounts wire;
  CpuTime excluded;
};

/// A connection pair on `port`, shaken hands to Established: one set-up.
std::unique_ptr<WirePair> connected_pair(std::uint16_t port, Tracer* tracer,
                                         Result& r) {
  auto pair = std::make_unique<WirePair>(port, tracer);
  r.check(pair->handshake(), "handshake to Established failed");
  return pair;
}

/// Per-layer metrics of the untraced phase: counts, allocations, CPU split.
void add_wire_layer_metrics(Result& r, const Measured& m,
                            std::size_t batch) {
  const auto msgs = static_cast<double>(m.messages);
  r.set("wire.sys_us_per_msg", ratio(m.cpu.sys_s * 1e6, msgs), "us");
  r.set("wire.send_batch_fill",
        ratio(static_cast<double>(m.wire.sent),
              static_cast<double>(m.wire.send_batches * batch)),
        "ratio");
  r.set("wire.recv_batch_fill",
        ratio(static_cast<double>(m.wire.received),
              static_cast<double>(m.wire.recv_batches * batch)),
        "ratio");
  r.set("wire.sends_dropped", static_cast<double>(m.wire.sends_dropped),
        "count");
  r.set("wire.decode_failures", static_cast<double>(m.wire.decode_failures),
        "count");
  r.set("alloc.per_msg", ratio(static_cast<double>(m.allocs), msgs),
        "allocs/msg");
  add_stack_metrics(r, m.stack);
}

void add_trace_metrics(Result& r, const Measured& untraced,
                       const Measured& traced) {
  add_span_metrics(r, traced.spans, traced.wall_ns);
  const double base = ratio(untraced.cpu.total(),
                            static_cast<double>(untraced.messages));
  const double with = ratio(traced.cpu.total(),
                            static_cast<double>(traced.messages));
  r.set("trace.overhead_ratio", ratio(with, base), "ratio");
}

// ------------------------------------------------------------ wire_stream

struct StreamPhase {
  Measured m;
  std::vector<double> latency_us;  ///< due time -> on_message, measured frames
  std::vector<double> lag_us;      ///< generator lateness, measured frames
  std::uint64_t offered = 0;       ///< all frames, warm-up included
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t on_time = 0;       ///< measured frames within the deadline
  std::uint64_t measured = 0;
  bool ids_sequential = true;
};

/// Open loop: frame i is due at start + i / fps whatever happened to frame
/// i-1; a generator timer on the loop submits every frame that is due.
/// Latency runs from the due time, so generator stalls count against it.
/// With `set_up` given, the measured frames go out in kStreamSlices slices;
/// between two, the stream drains, `set_up` runs (a batch of set-ups, whose
/// CPU time it returns) and the schedule restarts from the current time, so
/// no frame waits for the batch.
StreamPhase run_stream_phase(WirePair& p, const workload::MboneTrace& trace,
                             double seconds,
                             const std::function<CpuTime()>& set_up) {
  const auto warm = static_cast<std::uint64_t>(kWarmupSeconds * kStreamFps);
  const auto total = warm + static_cast<std::uint64_t>(seconds * kStreamFps);
  const double period_ns = 1e9 / kStreamFps;

  StreamPhase ph;
  ph.offered = total;
  ph.measured = total - warm;
  ph.latency_us.reserve(ph.measured);
  ph.lag_us.reserve(ph.measured);
  std::vector<std::int64_t> due(total);
  std::vector<std::uint8_t> seen(total, 0);
  std::uint64_t next = 0;
  std::uint32_t first_id = 0;
  const std::int64_t start = p.loop.now().ns() + 1'000'000;

  p.rcv->set_message_handler([&](const rudp::DeliveredMessage& m) {
    Scope s(p.tracer, Span::AppDeliver);
    const std::int64_t t = p.loop.now().ns();
    const std::uint64_t i = m.msg_id - first_id;
    if (i >= next || seen[i] != 0) {
      ++ph.duplicates;
      return;
    }
    seen[i] = 1;
    ++ph.delivered;
    if (i < warm) return;
    const std::int64_t lat = t - due[i];
    ph.latency_us.push_back(static_cast<double>(lat) / 1e3);
    if (lat <= kStreamDeadline.ns()) ++ph.on_time;
  });

  attr::AttrList announce;
  const attr::AttrList none;
  double rescaled_bytes = 0.0;
  auto submit = [&](std::uint64_t i) {
    const std::int64_t bytes =
        trace.group_at(static_cast<std::size_t>(i % trace.size())) *
        kStreamBytesPerMember;
    rudp::MessageSpec spec;
    spec.bytes = bytes;
    // Each announcement is relative to the frame size behind the
    // coordinator's last rescale, which it makes only for sub-MSS frames and
    // by at most kMaxResolutionChange. So the rescales telescope: their
    // product is the first sub-MSS frame size over the size behind the last
    // rescale, and both lie between the smallest and the largest sub-MSS
    // frame, so the window stays bounded.
    const attr::AttrList* attrs = &none;
    if (i % kAnnounceEvery == 0) {
      const bool small = bytes < kStreamMss;
      if (small && rescaled_bytes == 0.0) {
        rescaled_bytes = static_cast<double>(bytes);
      }
      const double chg =
          rescaled_bytes == 0.0
              ? 0.0
              : std::clamp(1.0 - static_cast<double>(bytes) / rescaled_bytes,
                           -kMaxResolutionChange, kMaxResolutionChange);
      announce.set(attr::kAdaptPktSize, chg);
      announce.set(attr::kAppFrameBytes, bytes);
      attrs = &announce;
      if (small) rescaled_bytes *= 1.0 - chg;
    }
    Scope s(p.tracer, Span::CoreSend);
    const auto res = p.snd->send_with_attrs(spec, *attrs);
    if (i == 0) first_id = res.msg_id;
    if (res.msg_id != first_id + i) ph.ids_sequential = false;
  };

  std::uint64_t stop = 0;  // end of the current slice
  std::function<void()> generate = [&] {
    const std::int64_t t = p.loop.now().ns();
    while (next < stop && due[next] <= t) {
      if (next >= warm) ph.lag_us.push_back(static_cast<double>(t - due[next]) / 1e3);
      submit(next);
      ++next;
    }
    if (next < stop) {
      p.loop.schedule_at(TimePoint::from_ns(due[next]), [&] { generate(); });
    }
  };
  auto schedule_from = [&](std::int64_t base) {
    for (std::uint64_t i = next; i < total; ++i) {
      due[i] = base + static_cast<std::int64_t>(static_cast<double>(i - next) *
                                                period_ns);
    }
  };
  schedule_from(start);

  const std::uint64_t slices = set_up ? kStreamSlices : 1;
  std::unique_ptr<Marker> mark;
  for (std::uint64_t k = 1; k <= slices; ++k) {
    stop = warm + (total - warm) * k / slices;
    p.loop.schedule_at(TimePoint::from_ns(due[next]), [&] { generate(); });
    while (next < stop) {
      if (!mark && next >= warm) mark = std::make_unique<Marker>(p);
      p.poll(Duration::millis(20));
    }
    if (k == slices) break;
    const TimePoint drained_by = p.loop.now() + Duration::seconds(2);
    while (ph.delivered < next && p.loop.now() < drained_by) {
      p.poll(Duration::millis(1));
    }
    if (!mark) mark = std::make_unique<Marker>(p);
    mark->exclude(set_up());
    schedule_from(p.loop.now().ns() + 1'000'000);
  }
  if (!mark) mark = std::make_unique<Marker>(p);
  const std::uint64_t delivered_before_drain = ph.delivered;
  ph.m = mark->finish(0);
  const TimePoint drain_end = p.loop.now() + Duration::seconds(2);
  while (ph.delivered < total && p.loop.now() < drain_end) {
    p.poll(Duration::millis(1));
  }
  // Messages delivered in the measured window, for the per-message costs.
  ph.m.messages = delivered_before_drain > warm ? delivered_before_drain - warm : 0;
  p.rcv->set_message_handler(nullptr);
  return ph;
}

}  // namespace

Result run_wire_stream(const Options& opt) {
  Result r;
  const workload::MboneTrace trace(workload::MboneTraceConfig{.seed = opt.seed});
  SetupTimes setup;
  auto probe = [&] { return connected_pair(kStreamPort + 2, nullptr, r); };
  setup.batch(kHandshakeBatch, probe);
  auto pair = setup.time([&] { return connected_pair(kStreamPort, nullptr, r); });
  if (!r.errors.empty()) return r;

  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::function<CpuTime()> set_up_batch;
  if (!opt.trace) set_up_batch = [&] { return setup.batch(kHandshakeBatch, probe); };
  StreamPhase ph = run_stream_phase(*pair, trace, phase_s, set_up_batch);
  const WireCounts wire_total = WireCounts::of(*pair);
  const StackCounts stack_total = pair->counts();
  pair.reset();

  r.attempted = ph.offered;
  r.failed = ph.offered - ph.delivered;
  r.check(ph.delivered == ph.offered, format("%llu of %llu frames never delivered",
      static_cast<unsigned long long>(ph.offered - ph.delivered),
      static_cast<unsigned long long>(ph.offered)));
  r.check(ph.duplicates == 0, format("%llu frames delivered twice",
      static_cast<unsigned long long>(ph.duplicates)));
  r.check(ph.ids_sequential, "message ids not sequential");
  r.check(wire_total.decode_failures == 0, "decode failures on loopback");
  r.failed += ph.duplicates;

  const double frames = static_cast<double>(ph.m.messages);
  r.set("setup_s", setup.median(r, "socket bind + handshake"), "s");
  r.set("msg_latency_p99_us", percentile(ph.latency_us, 0.99), "us");
  add_latency_metrics(r, std::move(ph.latency_us), kStreamTailQ,
                      "frame due time to receiver on_message");
  record_peak_rss(r);
  r.set("cpu_us_per_msg", ratio(ph.m.cpu.total() * 1e6, frames), "us");
  r.set("on_time_ratio",
        ratio(static_cast<double>(ph.on_time), static_cast<double>(ph.measured)),
        "ratio");
  r.set("gen.lag_p99_us", percentile(ph.lag_us, 0.99), "us");
  r.note(format("wire_stream: %.0f frames/s open loop, on_time_ratio %.6f "
                "(deadline %lld ms)",
                kStreamFps, r.metrics["on_time_ratio"].value,
                static_cast<long long>(kStreamDeadline.ns() / 1'000'000)));
  r.note(format("wire_stream: coordinator saw %llu adaptation records in %llu "
                "frames (share %.5f; Table 5: 51/8000 = 0.00638) and rescaled "
                "the window %llu times",
                static_cast<unsigned long long>(stack_total.records_seen),
                static_cast<unsigned long long>(ph.offered),
                ratio(static_cast<double>(stack_total.records_seen),
                      static_cast<double>(ph.offered)),
                static_cast<unsigned long long>(stack_total.window_rescales)));

  if (opt.trace) {
    add_wire_layer_metrics(r, ph.m, wire::UdpWireConfig{}.batch);
    Tracer tracer;
    auto traced = connected_pair(kStreamPort, &tracer, r);
    StreamPhase tph = run_stream_phase(*traced, trace, phase_s, {});
    r.check(tph.delivered == tph.offered && tph.duplicates == 0,
            "traced run lost or duplicated frames");
    add_trace_metrics(r, ph.m, tph.m);
    add_rss_per_flow(r, 1.0);
  }
  return r;
}

// --------------------------------------------------------------- wire_ftp

namespace {

struct FtpPhase {
  Measured m;
  std::vector<double> transfer_us;
  std::uint64_t transfers = 0;
  std::uint64_t blocks = 0;
  std::uint64_t bad_blocks = 0;  ///< missing or digest mismatch
  std::uint64_t unfinished = 0;
};

/// Closed loop: each transfer's sender refills while fewer than 64 segments
/// are queued, and the next transfer starts when the receiver completes.
/// With `set_up` given, it runs after each measured transfer (a batch of
/// set-ups, whose CPU time it returns) and its time is added to the phase.
FtpPhase run_ftp_phase(WirePair& p, const ftp::FileImage& image,
                       double seconds, const std::function<CpuTime()>& set_up) {
  FtpPhase ph;
  const std::uint64_t nblocks = image.spec().block_count();
  auto transfer = [&](bool measured) {
    ftp::IqFtpReceiver rcv(*p.rcv);
    ftp::IqFtpSender snd(*p.snd, image.spec(),
                         [](std::uint64_t) { return true; }, &image);
    bool done = false;
    std::int64_t t_done = 0;
    rcv.set_complete_handler([&](const ftp::IqFtpReceiver::Report&) {
      Scope s(p.tracer, Span::AppDeliver);
      done = true;
      t_done = now_ns();
    });
    const std::int64_t t0 = now_ns();
    snd.start();
    const TimePoint limit = p.loop.now() + Duration::seconds(60);
    while (!done && p.loop.now() < limit) p.poll(Duration::millis(20));
    if (!measured) return;
    ++ph.transfers;
    ph.blocks += nblocks;
    if (!done) {
      ++ph.unfinished;
      ph.bad_blocks += nblocks;
      return;
    }
    ph.transfer_us.push_back(static_cast<double>(t_done - t0) / 1e3);
    const auto& got = rcv.block_crcs();
    std::uint64_t bad = 0;
    for (std::uint64_t i = 0; i < nblocks; ++i) {
      if (i >= got.size() || got[i] != image.block_crc(i)) ++bad;
    }
    // matches() also requires completion with no holes.
    if (bad == 0 && !rcv.matches(image)) bad = 1;
    ph.bad_blocks += bad;
  };

  transfer(/*measured=*/false);  // warm-up: buffers and pools reach size
  Marker mark(p);
  std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    transfer(/*measured=*/true);
    if (set_up) {
      const std::int64_t t0 = now_ns();
      mark.exclude(set_up());
      end += now_ns() - t0;
    }
  } while (now_ns() < end);
  ph.m = mark.finish(ph.blocks - ph.bad_blocks);
  return ph;
}

}  // namespace

Result run_wire_ftp(const Options& opt) {
  Result r;
  const ftp::FileSpec spec{.total_bytes = kFtpFileBytes};
  // Set-up: building the file image, then the connection pair; setup_s is
  // the sum of their medians.
  SetupTimes images;
  SetupTimes handshakes;
  auto build_image = [&] {
    return std::make_unique<ftp::FileImage>(spec, opt.seed);
  };
  auto probe = [&] { return connected_pair(kFtpPort + 2, nullptr, r); };
  images.batch(kImageBatch, build_image);
  auto image = images.time(build_image);
  handshakes.batch(kHandshakeBatch, probe);
  auto pair =
      handshakes.time([&] { return connected_pair(kFtpPort, nullptr, r); });
  if (!r.errors.empty()) return r;

  const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::function<CpuTime()> set_up_batch;
  if (!opt.trace) {
    set_up_batch = [&] {
      CpuTime c = images.batch(1, build_image);
      c += handshakes.batch(kHandshakesPerTransfer, probe);
      return c;
    };
  }
  FtpPhase ph = run_ftp_phase(*pair, *image, phase_s, set_up_batch);
  const WireCounts wire_total = WireCounts::of(*pair);
  pair.reset();

  r.attempted = ph.blocks;
  r.failed = ph.bad_blocks;
  r.check(ph.unfinished == 0, "a transfer did not complete within 60 s");
  r.check(ph.bad_blocks == 0, "received file does not match the image");
  r.check(wire_total.decode_failures == 0, "decode failures on loopback");

  double busy_s = 0.0;
  for (double us : ph.transfer_us) busy_s += us / 1e6;
  const std::size_t n = ph.transfer_us.size();
  r.set("setup_s",
        images.median(r, "FileImage build") +
            handshakes.median(r, "socket bind + handshake"),
        "s");
  add_latency_metrics(r, ph.transfer_us, kFtpTailQ, "one whole file transfer");
  record_peak_rss(r);
  r.set("cpu_us_per_msg",
        ratio(ph.m.cpu.total() * 1e6, static_cast<double>(ph.m.messages)), "us");
  r.set("goodput_mbps",
        ratio(static_cast<double>(n) * static_cast<double>(kFtpFileBytes) * 8.0 / 1e6,
              busy_s),
        "Mb/s");
  r.note(format("wire_ftp: %zu transfers of %lld MB (%llu blocks each), "
                "goodput %.1f Mb/s",
                n, static_cast<long long>(kFtpFileBytes >> 20),
                static_cast<unsigned long long>(spec.block_count()),
                r.metrics["goodput_mbps"].value));

  if (opt.trace) {
    add_wire_layer_metrics(r, ph.m, wire::UdpWireConfig{}.batch);
    Tracer tracer;
    auto traced = connected_pair(kFtpPort, &tracer, r);
    FtpPhase tph = run_ftp_phase(*traced, *image, phase_s, {});
    r.check(tph.bad_blocks == 0 && tph.unfinished == 0,
            "traced transfer does not match the image");
    add_trace_metrics(r, ph.m, tph.m);
    add_rss_per_flow(r, 1.0);
  }
  return r;
}

}  // namespace perfbench
