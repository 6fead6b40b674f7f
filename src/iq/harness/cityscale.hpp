#pragma once
// City-scale fan-out scenario: one IQ-ECho publisher, thousands of
// subscribers, on the sharded simulator.
//
// Topology (application-level multicast, the shape of the paper's MBone
// experiments scaled up):
//
//   hub group (shard A)          site group s (shard B)
//   ┌──────────┐  trunk, portal  ┌─────────┐      ┌────────┐ access ┌─────┐
//   │  pub s   ├────────────────► repeater├──────┤ router ├────────┤ sub │
//   └──────────┘  ≥ lookahead    └─────────┘ back └────────┘  ...   └─────┘
//
// The publisher has one endpoint node per trunk ("pub s", node id s in the
// hub group); its only route is its default route, the trunk's portal link.
// Each site is a star (repeater, router, subscribers) routed by the site
// Network's computed next-hop tables; the repeater's default route is its
// portal link back to the hub.
//
// Every group (the hub plus each site) owns its own Network and pools on
// its group's Simulator; the only cross-group channel is the trunk through
// a wire::ShardPortal, whose latency is the ShardedSim lookahead bound.
// The publisher streams frames sized by an MboneTrace member count; each
// site repeater fans the frame out to its subscribers over per-subscriber
// RUDP connections with heterogeneous access links. Site membership is
// churned by a per-site MboneTrace via workload::GroupMembership; each
// fan-out flow adapts resolution from error-ratio threshold callbacks
// (coordinated or uncoordinated — the paper's comparison, in aggregate),
// optionally under a per-site congestion manager.
//
// Determinism: the group set, all identities (node ids, ports, seeds,
// rates) and all per-group schedules are independent of the shard count,
// so results — including the FNV-1a digest over every per-subscriber
// record — are bit-identical at any shard count, threaded or inline.
// ci.sh --scale pins exactly that.

#include <cstdint>
#include <memory>
#include <vector>

#include "iq/core/coordinator.hpp"
#include "iq/sim/sharded.hpp"

namespace iq::harness {

struct CityScaleConfig {
  std::size_t sites = 64;
  std::size_t subs_per_site = 160;  ///< 64 × 160 = 10240 subscriber flows
  std::size_t shards = 1;
  bool threaded = false;  ///< worker threads per shard (false: inline lockstep)

  core::CoordinationMode mode = core::CoordinationMode::Coordinated;
  /// Attach every site's fan-out flows to a per-site CongestionManager
  /// (shared repeater-uplink state, docs/CM.md).
  bool attach_cm = false;

  Duration sim_time = Duration::seconds(20);
  Duration drain_time = Duration::seconds(2);  ///< publisher stops, net drains
  double publisher_fps = 10.0;
  std::int64_t bytes_per_member = 150;  ///< trunk frame = member count × this
  std::int64_t min_fanout_bytes = 256;
  Duration deadline = Duration::millis(250);  ///< frames-on-time budget

  Duration trunk_latency = Duration::millis(10);  ///< = lookahead bound
  std::int64_t trunk_rate_bps = 50'000'000;
  std::int64_t site_backbone_bps = 100'000'000;

  Duration churn_interval = Duration::millis(500);
  std::uint64_t trace_seed = 0x1b0e5;

  double adapt_upper = 0.05;  ///< error-ratio threshold: shrink resolution
  double adapt_lower = 0.01;  ///< error-ratio threshold: grow resolution
};

struct CityScaleResult {
  std::uint64_t flows = 0;             ///< subscriber fan-out connections
  std::uint64_t frames_published = 0;  ///< trunk submits (ticks × sites)
  std::uint64_t fanout_forwarded = 0;
  std::uint64_t fanout_delivered = 0;
  std::uint64_t fanout_on_time = 0;
  std::uint64_t fanout_discarded = 0;  ///< shed by coordination/backpressure
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;

  double on_time_ratio = 0.0;    ///< on_time / delivered
  double delivery_ratio = 0.0;   ///< delivered / forwarded
  double mean_latency_ms = 0.0;  ///< publish → subscriber delivery
  /// Jain fairness over per-subscriber access-link utilization
  /// (delivered bits / access rate), across subscribers that ever received.
  double jain_utilization = 0.0;
  double goodput_mbps = 0.0;  ///< aggregate subscriber goodput
  double mean_scale = 0.0;    ///< mean final resolution scale across subs

  std::uint64_t events_executed = 0;
  std::uint64_t parcels_delivered = 0;
  std::uint64_t epochs = 0;

  /// FNV-1a over every per-subscriber record (plus per-site and aggregate
  /// counters) in canonical order — the bit-identical-across-shard-counts
  /// witness.
  std::uint64_t digest = 0;
};

class CityScale {
 public:
  explicit CityScale(const CityScaleConfig& cfg);
  ~CityScale();
  CityScale(const CityScale&) = delete;
  CityScale& operator=(const CityScale&) = delete;

  /// Run to sim_time + drain_time and collect.
  CityScaleResult run();
  /// Step the clock (for alloc-window instrumentation in benches).
  void run_for(Duration d) { sharded_->run_for(d); }
  CityScaleResult collect() const;

  sim::ShardedSim& sharded() { return *sharded_; }

 private:
  struct Hub;
  struct Site;
  void build_hub();
  void build_site(std::size_t s);
  void start();

  CityScaleConfig cfg_;
  std::unique_ptr<sim::ShardedSim> sharded_;
  std::uint32_t hub_group_ = 0;
  std::unique_ptr<Hub> hub_;
  std::vector<std::unique_ptr<Site>> sites_;
};

/// Build, run, tear down.
CityScaleResult run_cityscale(const CityScaleConfig& cfg);

/// Default shard count for city-scale runs: IQ_HARNESS_THREADS when set
/// (the same override the experiment runner honors, so CI forces serial and
/// sharded runs on any machine), else hardware concurrency, else 1.
std::size_t cityscale_shards();

}  // namespace iq::harness
