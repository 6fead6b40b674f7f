#include "iq/scenario/runner.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "iq/audit/audit.hpp"
#include "iq/common/check.hpp"
#include "iq/echo/channel.hpp"
#include "iq/echo/sink.hpp"
#include "iq/echo/source.hpp"
#include "iq/fault/injector.hpp"
#include "iq/harness/flow_pair.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/sim/timer.hpp"
#include "iq/stats/metrics.hpp"

namespace iq::scenario {

namespace {

using harness::FlowPair;

// Each flow gets a private port range; every reconnect generation binds the
// next port so a dead generation's wires never shadow the live one.
constexpr std::uint16_t kFtpPortBase = 2000;
constexpr std::uint16_t kPortsPerFlow = 64;
constexpr std::uint16_t kVideoPort = 1000;
constexpr std::uint32_t kFtpFlowBase = 10;
constexpr std::uint32_t kVideoFlow = 1;

/// One survivable transfer: sender on left(i), receiver on right(i), plus
/// the current connection generation underneath it.
struct FtpFlow {
  std::size_t index = 0;
  int generation = 0;
  bool reconnect_pending = false;
  std::uint64_t reconnects = 0;

  std::unique_ptr<ftp::FileImage> image;
  std::unique_ptr<FlowPair> conns;
  std::unique_ptr<ftp::IqFtpSender> sender;
  std::unique_ptr<ftp::IqFtpReceiver> receiver;
};

struct Run {
  explicit Run(const ScenarioConfig& scenario_cfg)
      : cfg(scenario_cfg), network(sim), injector(sim) {}

  const ScenarioConfig& cfg;
  sim::Simulator sim;
  net::Network network;
  std::unique_ptr<net::Dumbbell> dumbbell;
  fault::FaultInjector injector;

  std::vector<std::unique_ptr<FtpFlow>> flows;

  // Optional echo video flow on the last dumbbell pair.
  std::unique_ptr<FlowPair> video;
  std::unique_ptr<echo::EventChannel> video_chan_snd;
  std::unique_ptr<echo::EventChannel> video_chan_rcv;
  std::unique_ptr<echo::AdaptiveSource> video_source;
  std::unique_ptr<echo::MetricSink> video_sink;
  stats::MessageMetrics video_metrics;

  std::unique_ptr<sim::PeriodicTask> sampler;
  std::vector<double> samples;

  // Accumulated over dead connection generations (live ones are harvested
  // at the end).
  std::uint64_t shed = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t failures = 0;
  bool audits_clean = true;
};

/// Arm the invariant auditor unless IQ_AUDIT already armed a (possibly
/// fatal) one at construction.
void arm_audit(core::IqRudpConnection& conn) {
  if (conn.audit()) return;
  audit::AuditConfig acfg;
  acfg.dump_on_violation = false;
  conn.enable_audit(std::move(acfg));
}

/// Fold a connection's lifetime counters and audit verdict into the run.
void harvest(Run& r, core::IqRudpConnection& conn, bool quiescent_check) {
  const auto& st = conn.transport().stats();
  r.shed += st.messages_shed;
  r.recoveries += st.blackout_recoveries;
  r.failures += st.failures;
  if (auto* a = conn.audit()) {
    if (quiescent_check && conn.transport().send_idle()) a->check_quiescent();
    if (!a->violations().empty()) r.audits_clean = false;
  }
}

rudp::RudpConfig flow_rudp_config(const Run& r, const FtpFlow& f,
                                  bool receiver_side) {
  rudp::RudpConfig rc = r.cfg.ftp_rudp;
  rc.conn_id = static_cast<std::uint32_t>(100 + f.index);
  if (receiver_side) rc.recv_loss_tolerance = r.cfg.recv_loss_tolerance;
  return rc;
}

core::CoordinatorConfig coordinator_config(const Run& r) {
  core::CoordinatorConfig cc;
  cc.mode = r.cfg.coordinated ? core::CoordinationMode::Coordinated
                              : core::CoordinationMode::Uncoordinated;
  return cc;
}

/// A connection pair with the auditor armed on both ends.
std::unique_ptr<FlowPair> audited_pair(Run& r, net::Endpoint snd_ep,
                                       net::Endpoint rcv_ep,
                                       std::uint32_t flow,
                                       const rudp::RudpConfig& snd_cfg,
                                       const rudp::RudpConfig& rcv_cfg) {
  auto pair = std::make_unique<FlowPair>(r.network, snd_ep, rcv_ep, flow,
                                         snd_cfg, rcv_cfg,
                                         coordinator_config(r));
  arm_audit(pair->client);
  arm_audit(pair->server);
  return pair;
}

/// Connection generation `f.generation` of FTP flow `f`.
std::unique_ptr<FlowPair> make_ftp_pair(Run& r, const FtpFlow& f) {
  auto& db = *r.dumbbell;
  const std::uint16_t port = static_cast<std::uint16_t>(
      kFtpPortBase + f.index * kPortsPerFlow + f.generation);
  return audited_pair(r, {db.left(f.index).id(), port},
                      {db.right(f.index).id(), port},
                      static_cast<std::uint32_t>(kFtpFlowBase + f.index),
                      flow_rudp_config(r, f, false),
                      flow_rudp_config(r, f, true));
}

void schedule_reconnect(Run& r, FtpFlow& f);

/// Reconnect on terminal failure of either end; start the transfer once
/// the client is established.
void hook_ftp_pair(Run& r, FtpFlow& f) {
  auto on_error = [&r, &f](rudp::FailureReason) { schedule_reconnect(r, f); };
  f.conns->client.set_error_observer(on_error);
  f.conns->server.set_error_observer(on_error);
  f.conns->client.set_established_handler([&f] { f.sender->start(); });
}

/// Build connection generation `f.generation` after a terminal failure and
/// hand the transfer to it.
void reopen_flow(Run& r, FtpFlow& f) {
  auto conns = make_ftp_pair(r, f);
  // The old pair is still alive here: the receiver folds its drop counters
  // into its completion bookkeeping, and we bank its stats.
  f.sender->attach(conns->client);
  f.receiver->attach(conns->server);
  harvest(r, f.conns->client, /*quiescent_check=*/false);
  harvest(r, f.conns->server, /*quiescent_check=*/false);
  f.conns = std::move(conns);
  hook_ftp_pair(r, f);
  f.conns->server.listen();
  f.conns->client.connect();
}

void schedule_reconnect(Run& r, FtpFlow& f) {
  // Both directions observe the same dead path; rebuild once.
  if (f.reconnect_pending) return;
  f.reconnect_pending = true;
  r.sim.schedule_after(r.cfg.reconnect_backoff, [&r, &f] {
    f.reconnect_pending = false;
    ++f.generation;
    ++f.reconnects;
    reopen_flow(r, f);
  });
}

void build_flow(Run& r, std::size_t index) {
  auto f = std::make_unique<FtpFlow>();
  f->index = index;
  f->image = std::make_unique<ftp::FileImage>(
      r.cfg.file, r.cfg.content_seed + index);

  // The transfer endpoints outlive every connection generation; they are
  // created against the first generation below.
  const std::uint64_t stride = std::max<std::uint64_t>(1, r.cfg.critical_stride);
  FtpFlow& flow = *f;
  r.flows.push_back(std::move(f));

  flow.conns = make_ftp_pair(r, flow);
  flow.sender = std::make_unique<ftp::IqFtpSender>(
      flow.conns->client, r.cfg.file,
      [stride](std::uint64_t i) { return i % stride == 0; },
      flow.image.get());
  flow.receiver = std::make_unique<ftp::IqFtpReceiver>(flow.conns->server);
  flow.receiver->set_deadline_policy(r.cfg.deadline);
  // Graceful degradation, not data loss: blocks abandoned within the
  // receiver's tolerance are re-sent reliably once the bulk pass is done.
  flow.receiver->set_complete_handler(
      [&flow](const ftp::IqFtpReceiver::Report& rep) {
        if (!rep.missing.empty()) flow.sender->fill_holes(rep.missing);
      });
  hook_ftp_pair(r, flow);

  r.sim.at(TimePoint::zero() + r.cfg.start_at, [&flow] {
    flow.conns->server.listen();
    flow.conns->client.connect();
  });
}

void build_video(Run& r) {
  if (!r.cfg.video) return;
  auto& db = *r.dumbbell;
  // The video rides the last dumbbell pair, after the FTP senders.
  const std::size_t pair = r.cfg.net.pairs - 1;
  IQ_CHECK(pair >= r.cfg.senders);
  rudp::RudpConfig rc;
  rc.conn_id = 1;
  rudp::RudpConfig rc_rcv = rc;
  if (r.cfg.coordinated) rc_rcv.recv_loss_tolerance = 0.3;
  r.video = audited_pair(r, {db.left(pair).id(), kVideoPort},
                         {db.right(pair).id(), kVideoPort}, kVideoFlow, rc,
                         rc_rcv);

  r.video_chan_snd =
      std::make_unique<echo::EventChannel>("video", r.video->client);
  r.video_chan_rcv =
      std::make_unique<echo::EventChannel>("video", r.video->server);
  r.video_sink =
      std::make_unique<echo::MetricSink>(*r.video_chan_rcv, r.video_metrics);

  echo::AdaptiveSourceConfig sc;
  sc.frame_rate = r.cfg.video_frame_rate;
  sc.total_frames = static_cast<std::uint64_t>(
      r.cfg.video_frame_rate * r.cfg.run_for.to_seconds());
  sc.fixed_frame_bytes = r.cfg.video_frame_bytes;
  // Coordinated runs adapt via marking; uncoordinated video is rigid. In
  // both cases a bounded backlog sheds stale frames through a blackout
  // instead of wedging behind it.
  sc.adaptation = r.cfg.coordinated ? echo::AdaptKind::Marking
                                    : echo::AdaptKind::None;
  sc.backlog_limit_segments = 256;
  r.video_source = std::make_unique<echo::AdaptiveSource>(
      *r.video_chan_snd, nullptr, sc, &r.video_metrics);

  r.video->client.set_established_handler([&r] { r.video_source->start(); });
  r.sim.at(TimePoint::zero() + r.cfg.start_at, [&r] {
    r.video->server.listen();
    r.video->client.connect();
  });
}

double total_delivered_bytes(const Run& r) {
  double total = static_cast<double>(r.video_metrics.delivered_bytes());
  for (const auto& f : r.flows) {
    total += static_cast<double>(f->receiver->report().bytes_received);
  }
  return total;
}

bool trace_enabled() {
  const char* v = std::getenv("IQ_SCN_TRACE");
  return v != nullptr && v[0] != '\0';
}

bool all_transfers_done(const Run& r) {
  for (const auto& f : r.flows) {
    if (!f->receiver->complete()) return false;
    if (!f->receiver->report().missing.empty()) return false;
  }
  return true;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  IQ_CHECK(cfg.senders >= 1 && cfg.net.pairs >= cfg.senders);
  Run r(cfg);
  r.dumbbell = std::make_unique<net::Dumbbell>(r.network, cfg.net);

  // Target 0 = forward bottleneck, 1 = reverse (the profile convention).
  r.injector.add_target(r.dumbbell->bottleneck());
  r.injector.add_target(r.dumbbell->bottleneck_reverse());
  r.injector.arm(cfg.plan);

  for (std::size_t i = 0; i < cfg.senders; ++i) build_flow(r, i);
  build_video(r);

  r.sampler = std::make_unique<sim::PeriodicTask>(
      r.sim, cfg.rate_score.sample_every,
      [&r] { r.samples.push_back(total_delivered_bytes(r)); });
  r.sampler->start();

  const TimePoint stop = TimePoint::zero() + cfg.run_for;
  const TimePoint earliest_finish = TimePoint::zero() + cfg.blackout_at +
                                    cfg.blackout_dur +
                                    cfg.settle_after_blackout;
  const bool trace = trace_enabled();
  double last_total = 0.0;
  while (r.sim.now() < stop) {
    r.sim.run_for(Duration::millis(250));
    if (trace) {
      const double total = total_delivered_bytes(r);
      std::uint64_t blocks = 0;
      for (const auto& f : r.flows) blocks += f->receiver->report().blocks_received;
      std::fprintf(stderr, "  [%s t=%6.2fs] %10.0fB (+%6.0fB) blocks %llu%s\n",
                   cfg.name.c_str(), r.sim.now().to_seconds(), total,
                   total - last_total, static_cast<unsigned long long>(blocks),
                   all_transfers_done(r) ? " done" : "");
      last_total = total;
    }
    if (r.sim.now() >= earliest_finish && all_transfers_done(r)) break;
  }

  ScenarioResult result;
  result.name = cfg.name;
  result.completed = all_transfers_done(r);
  result.wedged = !result.completed &&
                  is_wedged(r.samples, cfg.rate_score.sample_every,
                            Duration::seconds(5));
  result.crc_ok = true;
  result.critical_complete = true;
  for (const auto& f : r.flows) {
    const auto& rep = f->receiver->report();
    result.blocks_total += rep.blocks_total;
    result.blocks_received += rep.blocks_received;
    result.blocks_on_time += rep.blocks_on_time;
    result.critical_blocks_total += f->sender->critical_blocks();
    result.critical_on_time += rep.critical_on_time;
    result.reconnects += f->reconnects;
    if (!f->receiver->matches(*f->image)) result.crc_ok = false;
    // Hole fills arrive marked, so delivered criticals can exceed the
    // sender's first-pass count — never fall short.
    if (rep.critical_received < f->sender->critical_blocks()) {
      result.critical_complete = false;
    }
    harvest(r, f->conns->client, /*quiescent_check=*/true);
    harvest(r, f->conns->server, /*quiescent_check=*/true);
  }
  if (cfg.video) {
    harvest(r, r.video->client, /*quiescent_check=*/true);
    harvest(r, r.video->server, /*quiescent_check=*/true);
  }
  result.deadline_hit_ratio =
      result.blocks_total == 0
          ? 1.0
          : static_cast<double>(result.blocks_on_time) /
                static_cast<double>(result.blocks_total);
  // Hole fills arrive marked, so clamp: the ratio reads "fraction of truly
  // critical blocks that met their deadline".
  result.critical_deadline_hit_ratio =
      result.critical_blocks_total == 0
          ? 1.0
          : std::min(1.0, static_cast<double>(result.critical_on_time) /
                              static_cast<double>(result.critical_blocks_total));
  result.messages_shed = r.shed;
  result.blackout_recoveries = r.recoveries;
  result.failures = r.failures;
  result.audits_clean = r.audits_clean;
  result.recovery = score_recovery(r.samples, cfg.blackout_at,
                                   cfg.blackout_at + cfg.blackout_dur,
                                   cfg.rate_score);
  result.video_frames_delivered = r.video_metrics.delivered();
  result.video_frames_offered = r.video_metrics.offered_count();
  result.sim_seconds = r.sim.now().to_seconds();
  result.events_executed = r.sim.events_executed();
  return result;
}

}  // namespace iq::scenario
