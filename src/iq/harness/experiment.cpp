#include "iq/harness/experiment.hpp"

#include <memory>

#include "iq/common/check.hpp"
#include "iq/echo/sink.hpp"
#include "iq/harness/flow_pair.hpp"
#include "iq/net/sinks.hpp"
#include "iq/sim/timer.hpp"
#include "iq/tcp/tcp_source.hpp"
#include "iq/workload/cbr_source.hpp"
#include "iq/workload/vbr_source.hpp"

namespace iq::harness {

namespace {
constexpr std::uint16_t kAppPort = 1000;
constexpr std::uint16_t kCrossPort = 2000;
constexpr std::uint32_t kAppFlow = 1;
constexpr std::uint32_t kCbrFlow = 900;
constexpr std::uint32_t kVbrFlow = 901;
constexpr std::uint32_t kTcpCrossFlow = 902;
}  // namespace

SchemeSpec SchemeSpec::tcp() {
  return SchemeSpec{.label = "TCP", .use_tcp = true};
}

SchemeSpec SchemeSpec::rudp() {
  return SchemeSpec{.label = "RUDP",
                    .cc = rudp::CcKind::Lda,
                    .mode = core::CoordinationMode::Uncoordinated};
}

SchemeSpec SchemeSpec::iq_rudp() {
  return SchemeSpec{.label = "IQ-RUDP",
                    .cc = rudp::CcKind::Lda,
                    .mode = core::CoordinationMode::Coordinated};
}

SchemeSpec SchemeSpec::iq_rudp_no_cond() {
  SchemeSpec s = iq_rudp();
  s.label = "IQ-RUDP w/o ADAPT_COND";
  s.enable_cond = false;
  return s;
}

SchemeSpec SchemeSpec::app_only() {
  return SchemeSpec{.label = "App adaptation only",
                    .cc = rudp::CcKind::Fixed,
                    .mode = core::CoordinationMode::Uncoordinated};
}

namespace {

/// Everything a running scenario owns; kept alive for the run's duration.
struct Scenario {
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<net::Dumbbell> dumbbell;

  workload::MboneTrace trace;
  std::unique_ptr<workload::FrameSchedule> app_schedule;
  std::unique_ptr<workload::FrameSchedule> vbr_schedule;

  // Cross traffic.
  net::CountingSink cbr_sink;
  net::CountingSink vbr_sink;
  std::unique_ptr<workload::CbrSource> cbr;
  std::unique_ptr<workload::VbrSource> vbr;
  std::unique_ptr<tcp::TcpConnection> tcp_cross_snd;
  std::unique_ptr<tcp::TcpConnection> tcp_cross_rcv;
  std::unique_ptr<tcp::BulkTcpSource> tcp_cross_bulk;

  // RUDP app flow.
  std::unique_ptr<FlowPair> flow;
  std::unique_ptr<echo::EventChannel> chan_snd;
  std::unique_ptr<echo::EventChannel> chan_rcv;
  std::unique_ptr<echo::AdaptiveSource> source;
  std::unique_ptr<echo::MetricSink> sink;

  // TCP app flow.
  std::unique_ptr<tcp::TcpConnection> tcp_snd;
  std::unique_ptr<tcp::TcpConnection> tcp_rcv;
  std::unique_ptr<tcp::TcpMessageStream> tcp_stream;
  std::unique_ptr<sim::PeriodicTask> tcp_frames;
  std::uint64_t tcp_frames_sent = 0;

  stats::MessageMetrics metrics;
  stats::TimeSeries jitter{"jitter_ms"};
  stats::TimeSeries cwnd{"cwnd_pkts"};
  std::unique_ptr<sim::PeriodicTask> cwnd_sampler;

  std::uint64_t epochs = 0;
  double max_epoch_loss = 0.0;
  double sum_epoch_loss = 0.0;
  stats::InterarrivalTracker pkt_arrivals;

  explicit Scenario(const ExperimentConfig& cfg)
      : trace(workload::MboneTraceConfig{.seed = cfg.trace_seed}) {}
};

void start_cross_traffic(Scenario& s, const ExperimentConfig& cfg) {
  auto& db = *s.dumbbell;
  if (cfg.cbr_rate_bps > 0) {
    db.right(1).bind(kCrossPort, &s.cbr_sink);
    workload::CbrConfig cc;
    cc.rate_bps = cfg.cbr_rate_bps;
    cc.flow = kCbrFlow;
    cc.src_port = kCrossPort;
    cc.dst_port = kCrossPort;
    s.cbr = std::make_unique<workload::CbrSource>(s.network, db.left(1),
                                                  db.right(1), cc);
    s.sim.at(TimePoint::zero() + cfg.cross_start, [&s] { s.cbr->start(); });
  }
  if (cfg.vbr_cross) {
    s.vbr_schedule = std::make_unique<workload::FrameSchedule>(
        s.trace, cfg.vbr_bytes_per_member);
    db.right(2).bind(kCrossPort, &s.vbr_sink);
    workload::VbrConfig vc;
    vc.frames_per_sec = cfg.vbr_frames_per_sec;
    vc.flow = kVbrFlow;
    vc.src_port = kCrossPort;
    vc.dst_port = kCrossPort;
    s.vbr = std::make_unique<workload::VbrSource>(
        s.network, db.left(2), db.right(2), *s.vbr_schedule, vc);
    s.sim.at(TimePoint::zero() + cfg.cross_start, [&s] { s.vbr->start(); });
  }
  if (cfg.tcp_cross) {
    tcp::TcpConfig tc;
    tc.conn_id = 77;
    s.tcp_cross_snd = std::make_unique<tcp::TcpConnection>(
        s.network, net::Endpoint{db.left(1).id(), kCrossPort + 1},
        net::Endpoint{db.right(1).id(), kCrossPort + 1}, kTcpCrossFlow, tc,
        tcp::TcpRole::Client);
    s.tcp_cross_rcv = std::make_unique<tcp::TcpConnection>(
        s.network, net::Endpoint{db.right(1).id(), kCrossPort + 1},
        net::Endpoint{db.left(1).id(), kCrossPort + 1}, kTcpCrossFlow, tc,
        tcp::TcpRole::Server);
    s.tcp_cross_rcv->listen();
    s.tcp_cross_bulk = std::make_unique<tcp::BulkTcpSource>(*s.tcp_cross_snd);
    s.sim.at(TimePoint::zero() + cfg.cross_start, [&s] {
      s.tcp_cross_snd->connect();
      s.tcp_cross_bulk->start();
    });
  }
}

void build_rudp_flow(Scenario& s, const ExperimentConfig& cfg) {
  rudp::RudpConfig rc;
  rc.conn_id = 1;
  rc.cc_kind = cfg.scheme.cc;
  rc.loss_epoch_packets = cfg.loss_epoch_packets;
  rc.initial_cwnd = cfg.initial_cwnd;
  rc.fixed_cwnd = cfg.fixed_cwnd;
  rudp::RudpConfig rc_rcv = rc;
  rc_rcv.recv_loss_tolerance = cfg.recv_loss_tolerance;

  core::CoordinatorConfig cc;
  cc.mode = cfg.scheme.mode;
  cc.enable_cond_compensation = cfg.scheme.enable_cond;
  cc.enable_conflict_scheme = cfg.scheme.enable_conflict;
  cc.enable_overreaction_scheme = cfg.scheme.enable_overreaction;
  cc.rescale_on_frequency = cfg.scheme.rescale_on_frequency;

  auto& db = *s.dumbbell;
  s.flow = std::make_unique<FlowPair>(
      s.network, net::Endpoint{db.left(0).id(), kAppPort},
      net::Endpoint{db.right(0).id(), kAppPort}, kAppFlow, rc, rc_rcv, cc);
  core::IqRudpConnection& snd = s.flow->client;
  core::IqRudpConnection& rcv = s.flow->server;

  s.chan_snd = std::make_unique<echo::EventChannel>("viz", snd);
  s.chan_rcv = std::make_unique<echo::EventChannel>("viz", rcv);
  s.sink = std::make_unique<echo::MetricSink>(
      *s.chan_rcv, s.metrics, cfg.collect_jitter_series ? &s.jitter : nullptr);

  if (cfg.fixed_frame_bytes == 0) {
    s.app_schedule = std::make_unique<workload::FrameSchedule>(
        s.trace, cfg.trace_bytes_per_member);
  }
  echo::AdaptiveSourceConfig sc;
  sc.frame_rate = cfg.frame_rate;
  sc.total_frames = cfg.total_frames;
  sc.fixed_frame_bytes = cfg.fixed_frame_bytes;
  sc.adaptation = cfg.adaptation;
  sc.upper_threshold = cfg.upper_threshold;
  sc.lower_threshold = cfg.lower_threshold;
  sc.adapt_granularity = cfg.adapt_granularity;
  sc.attach_cond = cfg.attach_cond;
  sc.marking = cfg.marking;
  sc.resolution = cfg.resolution;
  sc.firing = cfg.firing;
  sc.seed = cfg.seed;
  s.source = std::make_unique<echo::AdaptiveSource>(
      *s.chan_snd, s.app_schedule.get(), sc, &s.metrics);

  // Packet-level arrival tracking at the receiver (paper Table 1/2 metric).
  rcv.transport().set_segment_tap(
      [&s](rudp::RudpConnection::TapDirection dir, const rudp::Segment& seg) {
        if (dir == rudp::RudpConnection::TapDirection::In &&
            seg.type == rudp::SegmentType::Data) {
          s.pkt_arrivals.arrival(s.sim.now());
        }
      });
  snd.set_epoch_observer([&s](const rudp::EpochReport& r) {
    ++s.epochs;
    s.max_epoch_loss = std::max(s.max_epoch_loss, r.loss_ratio);
    s.sum_epoch_loss += r.loss_ratio;
  });
  rcv.listen();
  snd.set_established_handler([&s] { s.source->start(); });
  snd.connect();

  if (cfg.collect_cwnd_series) {
    s.cwnd_sampler = std::make_unique<sim::PeriodicTask>(
        s.sim, Duration::millis(100), [&s] {
          s.cwnd.add(s.sim.now(),
                     s.flow->client.transport().congestion().cwnd());
        });
    s.cwnd_sampler->start();
  }
}

void build_tcp_flow(Scenario& s, const ExperimentConfig& cfg) {
  auto& db = *s.dumbbell;
  tcp::TcpConfig tc;
  tc.conn_id = 1;
  s.tcp_snd = std::make_unique<tcp::TcpConnection>(
      s.network, net::Endpoint{db.left(0).id(), kAppPort},
      net::Endpoint{db.right(0).id(), kAppPort}, kAppFlow, tc,
      tcp::TcpRole::Client);
  s.tcp_rcv = std::make_unique<tcp::TcpConnection>(
      s.network, net::Endpoint{db.right(0).id(), kAppPort},
      net::Endpoint{db.left(0).id(), kAppPort}, kAppFlow, tc,
      tcp::TcpRole::Server);
  s.tcp_stream = std::make_unique<tcp::TcpMessageStream>(*s.tcp_snd);

  s.tcp_rcv->set_data_packet_observer(
      [&s](TimePoint now) { s.pkt_arrivals.arrival(now); });
  // Receiver: stream offsets back into per-message records.
  s.tcp_rcv->set_delivered_handler(
      [&s](std::uint64_t offset, TimePoint now) {
        s.tcp_stream->on_delivered(offset, now);
      });
  s.tcp_stream->set_message_handler(
      [&s](std::uint32_t, std::int64_t bytes, TimePoint now) {
        stats::MessageRecord rec;
        rec.arrival = now;
        rec.bytes = bytes;
        rec.tagged = true;
        s.metrics.on_message(rec);
      });

  auto frame_bytes = [&s, &cfg]() -> std::int64_t {
    if (cfg.fixed_frame_bytes > 0) return cfg.fixed_frame_bytes;
    const Duration elapsed = s.sim.now() - TimePoint::zero();
    return static_cast<std::int64_t>(s.trace.group_at_time(elapsed)) *
           cfg.trace_bytes_per_member;
  };

  const bool asap = cfg.frame_rate <= 0;
  const Duration interval =
      asap ? Duration::millis(1)
           : Duration::from_seconds(1.0 / cfg.frame_rate);
  s.tcp_frames = std::make_unique<sim::PeriodicTask>(
      s.sim, interval, [&s, frame_bytes, asap, &cfg] {
        if (s.tcp_frames_sent >= cfg.total_frames) {
          s.tcp_frames->stop();
          return;
        }
        if (!s.tcp_snd->established()) return;
        if (asap) {
          // Keep a modest backlog so TCP is congestion-limited, like the
          // RUDP ASAP source.
          while (s.tcp_frames_sent < cfg.total_frames &&
                 s.tcp_snd->unacked_bytes() < 64 * 1400) {
            s.tcp_stream->send_message(frame_bytes());
            ++s.tcp_frames_sent;
            s.metrics.offered();
          }
        } else {
          s.tcp_stream->send_message(frame_bytes());
          ++s.tcp_frames_sent;
          s.metrics.offered();
        }
      });

  s.tcp_rcv->listen();
  s.tcp_snd->set_established_handler([&s] {
    s.metrics.start(s.sim.now());
    s.tcp_frames->start(/*fire_now=*/true);
  });
  s.tcp_snd->connect();
}

bool workload_finished(const Scenario& s, const ExperimentConfig& cfg) {
  if (cfg.scheme.use_tcp) {
    return s.tcp_frames_sent >= cfg.total_frames && s.tcp_snd->send_idle();
  }
  return s.source->done() && s.flow->client.transport().send_idle();
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  Scenario s(cfg);
  s.dumbbell = std::make_unique<net::Dumbbell>(s.network, cfg.net);

  start_cross_traffic(s, cfg);
  if (cfg.scheme.use_tcp) {
    build_tcp_flow(s, cfg);
  } else {
    build_rudp_flow(s, cfg);
  }

  const TimePoint deadline = TimePoint::zero() + cfg.max_sim_time;
  bool completed = false;
  while (s.sim.now() < deadline) {
    s.sim.run_for(Duration::millis(200));
    if (workload_finished(s, cfg)) {
      completed = true;
      break;
    }
  }
  // Let in-flight data land (one extra RTT's worth of events).
  s.sim.run_for(cfg.net.path_rtt * 4);

  ExperimentResult result;
  result.summary = s.metrics.summary();
  result.completed = completed;
  result.sim_seconds = s.sim.now().to_seconds();
  result.events_executed = s.sim.events_executed();
  if (!cfg.scheme.use_tcp) {
    const rudp::RudpConnection& snd = s.flow->client.transport();
    const rudp::RudpConnection& rcv = s.flow->server.transport();
    result.rudp = snd.stats();
    // Receiver-side delivery/drop counters live on the other endpoint.
    result.rudp.messages_delivered = rcv.stats().messages_delivered;
    result.rudp.messages_dropped = rcv.stats().messages_dropped;
    result.coordination = s.flow->client.coordinator().stats();
    result.app_lifetime_loss_ratio = snd.lifetime_loss_ratio();
    result.epochs = s.epochs;
    result.max_epoch_loss = s.max_epoch_loss;
    result.mean_epoch_loss =
        s.epochs > 0 ? s.sum_epoch_loss / static_cast<double>(s.epochs) : 0.0;
  }
  result.pkt_interarrival_s = s.pkt_arrivals.mean_seconds();
  result.pkt_jitter_s = s.pkt_arrivals.jitter_seconds();
  result.jitter_series = std::move(s.jitter);
  result.cwnd_series = std::move(s.cwnd);
  return result;
}

}  // namespace iq::harness
