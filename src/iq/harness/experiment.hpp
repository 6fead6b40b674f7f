#pragma once
// Experiment harness: builds the paper's Emulab scenario — a dumbbell with a
// 20 Mb/s, 30 ms-RTT bottleneck, the application flow, and configurable
// cross traffic — runs one transport scheme over it, and returns the metrics
// the paper's tables report.
//
// Every scheme sees the *identical* workload (same trace seed, same cross
// traffic), so scheme-vs-scheme deltas isolate the coordination effect.

#include <optional>
#include <string>

#include "iq/core/coordinator.hpp"
#include "iq/echo/source.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/rudp/connection.hpp"
#include "iq/stats/metrics.hpp"
#include "iq/stats/timeseries.hpp"

namespace iq::harness {

/// Which transport runs the application flow.
struct SchemeSpec {
  std::string label;
  bool use_tcp = false;
  rudp::CcKind cc = rudp::CcKind::Lda;
  core::CoordinationMode mode = core::CoordinationMode::Uncoordinated;
  bool enable_cond = true;
  bool enable_conflict = true;      ///< scheme 1 toggle (ablation)
  bool enable_overreaction = true;  ///< scheme 2/3 rescale toggle (ablation)
  bool rescale_on_frequency = false;  ///< counterfactual ablation (§3.4)

  /// TCP baseline (Table 1 row 1, Table 2).
  static SchemeSpec tcp();
  /// Plain RUDP: transport and application adapt independently.
  static SchemeSpec rudp();
  /// Coordinated IQ-RUDP.
  static SchemeSpec iq_rudp();
  /// IQ-RUDP with eq. (1) compensation disabled (Table 8 middle row).
  static SchemeSpec iq_rudp_no_cond();
  /// Congestion window instrumented off — application adaptation only
  /// (Table 1 row 3). The window is ExperimentConfig::fixed_cwnd.
  static SchemeSpec app_only();
};

struct ExperimentConfig {
  // --- network ---------------------------------------------------------
  net::DumbbellConfig net{.pairs = 3};

  // --- cross traffic ---------------------------------------------------
  std::int64_t cbr_rate_bps = 0;       ///< iperf-style CBR; 0 = none
  Duration cross_start = Duration::seconds(1);
  bool vbr_cross = false;              ///< trace-driven VBR UDP
  std::int64_t vbr_bytes_per_member = 2000;
  double vbr_frames_per_sec = 500.0;
  bool tcp_cross = false;              ///< TCP bulk flow (fairness test)

  // --- application workload -------------------------------------------
  double frame_rate = 30.0;            ///< 0 = as fast as transport allows
  std::uint64_t total_frames = 2000;
  /// 0 = trace-driven (group × trace_bytes_per_member).
  std::int64_t fixed_frame_bytes = 0;
  std::int64_t trace_bytes_per_member = 3000;

  // --- adaptation ------------------------------------------------------
  echo::AdaptKind adaptation = echo::AdaptKind::None;
  double upper_threshold = 0.15;
  double lower_threshold = 0.01;
  std::uint64_t adapt_granularity = 0;
  bool attach_cond = false;
  double recv_loss_tolerance = 0.0;
  echo::MarkingPolicyConfig marking{};
  echo::ResolutionPolicyConfig resolution{};
  attr::FiringMode firing = attr::FiringMode::EveryEpoch;

  // --- run control -----------------------------------------------------
  SchemeSpec scheme = SchemeSpec::iq_rudp();
  Duration max_sim_time = Duration::seconds(600);
  std::uint64_t seed = 1;
  std::uint64_t trace_seed = 0x1b0e5;  ///< shared across schemes
  std::uint32_t loss_epoch_packets = 100;
  double initial_cwnd = 2.0;  ///< larger for long-RTT scenarios (Table 8)
  /// Window used when the scheme disables congestion control (app-only).
  double fixed_cwnd = 32.0;
  bool collect_jitter_series = false;
  /// Sample cwnd over time (window-evolution figures / ablations).
  bool collect_cwnd_series = false;
};

struct ExperimentResult {
  stats::FlowSummary summary;
  rudp::RudpStats rudp;             ///< zeroed for TCP runs
  core::CoordinatorStats coordination;
  double app_lifetime_loss_ratio = 0.0;
  std::uint64_t epochs = 0;         ///< loss-measuring epochs closed
  double max_epoch_loss = 0.0;
  double mean_epoch_loss = 0.0;
  /// Packet-level inter-arrival at the receiver (what the paper's Table 1/2
  /// report), as opposed to the message-level numbers in `summary`.
  double pkt_interarrival_s = 0.0;
  double pkt_jitter_s = 0.0;
  double sim_seconds = 0.0;         ///< simulated span of the run
  std::uint64_t events_executed = 0;
  stats::TimeSeries jitter_series{"jitter_ms"};
  stats::TimeSeries cwnd_series{"cwnd_pkts"};
  bool completed = false;           ///< workload finished before max time
};

/// Run one configuration to completion and return its metrics.
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace iq::harness
