#include "table1.hpp"

#include <algorithm>

#include "iq/common/check.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/echo/channel.hpp"
#include "iq/echo/sink.hpp"
#include "iq/echo/source.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/net/network.hpp"
#include "iq/net/sinks.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/stats/interarrival.hpp"
#include "iq/stats/metrics.hpp"
#include "iq/wire/sim_wire.hpp"
#include "iq/workload/cbr_source.hpp"
#include "iq/workload/frame_schedule.hpp"
#include "iq/workload/mbone_trace.hpp"

namespace perfbench {

using namespace iq;

namespace {
// The identities run_experiment uses (harness/experiment.cpp).
constexpr std::uint16_t kAppPort = 1000;
constexpr std::uint16_t kCrossPort = 2000;
constexpr std::uint32_t kAppFlow = 1;
constexpr std::uint32_t kCbrFlow = 900;
}  // namespace

// Declaration order is run_experiment's Scenario order, so construction and
// teardown match it too.
struct Table1Run::Impl {
  Impl(const harness::ExperimentConfig& c, Tracer* t)
      : cfg(c), tracer(t), trace(workload::MboneTraceConfig{.seed = c.trace_seed}) {}

  harness::ExperimentConfig cfg;
  Tracer* tracer;
  sim::Simulator sim;
  net::Network network{sim};
  std::unique_ptr<net::Dumbbell> dumbbell;
  workload::MboneTrace trace;
  std::unique_ptr<workload::FrameSchedule> schedule;
  net::CountingSink cbr_sink;
  std::unique_ptr<workload::CbrSource> cbr;
  std::unique_ptr<wire::SimWire> wire_snd;
  std::unique_ptr<wire::SimWire> wire_rcv;
  std::unique_ptr<TracedWire> traced_snd;
  std::unique_ptr<TracedWire> traced_rcv;
  std::unique_ptr<core::IqRudpConnection> conn_snd;
  std::unique_ptr<core::IqRudpConnection> conn_rcv;
  std::unique_ptr<echo::EventChannel> chan_snd;
  std::unique_ptr<echo::EventChannel> chan_rcv;
  std::unique_ptr<echo::AdaptiveSource> source;
  std::unique_ptr<echo::MetricSink> sink;
  stats::MessageMetrics metrics;
  std::uint64_t epochs = 0;
  double max_epoch_loss = 0.0;
  double sum_epoch_loss = 0.0;
  stats::InterarrivalTracker pkt_arrivals;
};

Table1Run::Table1Run(const harness::ExperimentConfig& cfg, Tracer* tracer)
    : impl_(std::make_unique<Impl>(cfg, tracer)) {
  IQ_CHECK_MSG(!cfg.scheme.use_tcp && !cfg.vbr_cross && !cfg.tcp_cross &&
                   cfg.fixed_frame_bytes == 0 && !cfg.collect_jitter_series &&
                   !cfg.collect_cwnd_series,
               "Table1Run mirrors only the Table-1 scenario shape");
  Impl& s = *impl_;
  s.dumbbell = std::make_unique<net::Dumbbell>(s.network, cfg.net);
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

  const net::Endpoint snd_ep{db.left(0).id(), kAppPort};
  const net::Endpoint rcv_ep{db.right(0).id(), kAppPort};
  s.wire_snd =
      std::make_unique<wire::SimWire>(s.network, snd_ep, rcv_ep, kAppFlow);
  s.wire_rcv =
      std::make_unique<wire::SimWire>(s.network, rcv_ep, snd_ep, kAppFlow);
  rudp::SegmentWire* snd_wire = s.wire_snd.get();
  rudp::SegmentWire* rcv_wire = s.wire_rcv.get();
  if (tracer != nullptr) {
    s.traced_snd = std::make_unique<TracedWire>(*s.wire_snd, *tracer);
    s.traced_rcv = std::make_unique<TracedWire>(*s.wire_rcv, *tracer);
    snd_wire = s.traced_snd.get();
    rcv_wire = s.traced_rcv.get();
  }

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

  s.conn_snd = std::make_unique<core::IqRudpConnection>(
      *snd_wire, rc, rudp::Role::Client, cc);
  s.conn_rcv = std::make_unique<core::IqRudpConnection>(
      *rcv_wire, rc_rcv, rudp::Role::Server, cc);
  s.chan_snd = std::make_unique<echo::EventChannel>("viz", *s.conn_snd);
  s.chan_rcv = std::make_unique<echo::EventChannel>("viz", *s.conn_rcv);
  s.sink = std::make_unique<echo::MetricSink>(*s.chan_rcv, s.metrics);
  s.schedule = std::make_unique<workload::FrameSchedule>(
      s.trace, cfg.trace_bytes_per_member);

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
      *s.chan_snd, s.schedule.get(), sc, &s.metrics);

  // The harness's own observers are the benchmark's handlers here.
  s.conn_rcv->transport().set_segment_tap(
      [&s](rudp::RudpConnection::TapDirection dir, const rudp::Segment& seg) {
        Scope span(s.tracer, Span::AppDeliver);
        if (dir == rudp::RudpConnection::TapDirection::In &&
            seg.type == rudp::SegmentType::Data) {
          s.pkt_arrivals.arrival(s.sim.now());
        }
      });
  s.conn_snd->set_epoch_observer([&s](const rudp::EpochReport& r) {
    Scope span(s.tracer, Span::AppDeliver);
    ++s.epochs;
    s.max_epoch_loss = std::max(s.max_epoch_loss, r.loss_ratio);
    s.sum_epoch_loss += r.loss_ratio;
  });
  s.conn_rcv->listen();
  s.conn_snd->set_established_handler([&s] { s.source->start(); });
  s.conn_snd->connect();
}

Table1Run::~Table1Run() = default;

bool Table1Run::run() {
  Impl& s = *impl_;
  const TimePoint deadline = TimePoint::zero() + s.cfg.max_sim_time;
  bool completed = false;
  while (s.sim.now() < deadline) {
    {
      Scope span(s.tracer, Span::SimRun);
      s.sim.run_for(Duration::millis(200));
    }
    if (s.source->done() && s.conn_snd->transport().send_idle()) {
      completed = true;
      break;
    }
  }
  Scope span(s.tracer, Span::SimRun);
  s.sim.run_for(s.cfg.net.path_rtt * 4);
  return completed;
}

std::uint64_t Table1Run::events() const { return impl_->sim.events_executed(); }

std::uint64_t Table1Run::messages_delivered() const {
  return impl_->conn_rcv->transport().stats().messages_delivered;
}

const rudp::RudpStats& Table1Run::sender_stats() const {
  return impl_->conn_snd->transport().stats();
}

const rudp::RudpStats& Table1Run::receiver_stats() const {
  return impl_->conn_rcv->transport().stats();
}

const core::CoordinatorStats& Table1Run::coordinator_stats() const {
  return impl_->conn_snd->coordinator().stats();
}

}  // namespace perfbench
