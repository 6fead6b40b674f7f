#include "iq/harness/cityscale.hpp"

#include <algorithm>
#include <bit>
#include <thread>

#include "iq/cm/manager.hpp"
#include "iq/common/check.hpp"
#include "iq/core/iq_connection.hpp"
#include "iq/echo/channel.hpp"
#include "iq/echo/policies.hpp"
#include "iq/harness/flow_pair.hpp"
#include "iq/harness/runner.hpp"
#include "iq/net/network.hpp"
#include "iq/sim/timer.hpp"
#include "iq/stats/jain.hpp"
#include "iq/wire/shard_portal.hpp"
#include "iq/wire/sim_wire.hpp"
#include "iq/workload/membership.hpp"

namespace iq::harness {

namespace {

// Identity scheme (all independent of the shard count):
//   node ids:  hub group at base 0 (publisher endpoint s is node s), site s
//              at base (s+1) * kIdStride
//   ports:     publisher 1000+s per trunk; repeater 1000 (trunk) and
//              2000+i (fan-out to sub i); subscriber 100
//   flows:     trunk s+1; fan-out kFanFlowBase + global sub index
constexpr net::NodeId kIdStride = 100'000;
constexpr std::uint16_t kTrunkPortBase = 1000;
constexpr std::uint16_t kRepTrunkPort = 1000;
constexpr std::uint16_t kFanPortBase = 2000;
constexpr std::uint16_t kSubPort = 100;
constexpr std::uint32_t kFanFlowBase = 1000;
constexpr const char* kPubTsAttr = "city.pub_ts";

// Heterogeneous access links, cycled by global subscriber index: the mix of
// modem-to-broadband bottlenecks the fan-out adapts across.
constexpr std::int64_t kAccessRates[] = {4'000'000, 2'000'000, 1'000'000,
                                         512'000, 256'000};
constexpr std::int64_t kAccessPropMs[] = {2, 5, 10, 20};

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
};

struct SubStats {
  std::uint64_t forwarded = 0;
  std::uint64_t discarded = 0;
  std::uint64_t delivered = 0;
  std::uint64_t on_time = 0;
  std::uint64_t bytes = 0;
  std::int64_t latency_ns = 0;
};

}  // namespace

struct CityScale::Hub {
  net::Network net;
  /// One publisher endpoint node per trunk; its default route is that
  /// site's portal link.
  std::vector<net::Node*> pub;
  workload::MboneTrace trace;
  std::vector<std::unique_ptr<wire::ShardPortal>> to_site;
  std::vector<std::unique_ptr<wire::SimWire>> trunk_wire;
  std::vector<std::unique_ptr<core::IqRudpConnection>> trunk_conn;
  std::vector<std::unique_ptr<echo::EventChannel>> trunk_chan;
  std::unique_ptr<sim::PeriodicTask> ticker;
  TimePoint publish_until;
  std::uint64_t frames = 0;

  Hub(sim::Simulator& sim, std::uint64_t trace_seed)
      : net(sim, 0),
        trace(workload::MboneTraceConfig{.seed = trace_seed}) {}
};

struct CityScale::Site {
  std::uint32_t group = 0;
  net::Network net;
  net::Node* rep = nullptr;
  net::Node* router = nullptr;
  std::vector<net::Node*> subs;

  std::unique_ptr<wire::ShardPortal> to_hub;

  // Trunk receiver endpoint.
  std::unique_ptr<wire::SimWire> trunk_wire;
  std::unique_ptr<core::IqRudpConnection> trunk_conn;
  std::unique_ptr<echo::EventChannel> trunk_chan;

  // Per-site congestion manager: declared before the fan-out connections so
  // they detach (at destruction) while the manager is still alive.
  std::unique_ptr<cm::CongestionManager> cmgr;

  // Fan-out flows, one per subscriber: repeater client, subscriber server.
  std::vector<std::unique_ptr<FlowPair>> fan;
  std::vector<std::unique_ptr<echo::EventChannel>> fan_chan_snd;
  std::vector<std::unique_ptr<echo::EventChannel>> fan_chan_rcv;
  std::vector<echo::ResolutionPolicy> policy;
  std::vector<SubStats> stats;

  workload::MboneTrace trace;
  std::unique_ptr<workload::GroupMembership> membership;
  std::unique_ptr<sim::PeriodicTask> churn;

  Site(std::uint32_t g, sim::Simulator& sim, net::NodeId id_base,
       const workload::MboneTraceConfig& tcfg)
      : group(g), net(sim, id_base), trace(tcfg) {}
};

std::size_t cityscale_shards() {
  const char* serial = std::getenv("IQ_HARNESS_SERIAL");
  if (serial != nullptr && serial[0] != '\0' && serial[0] != '0') return 1;
  const std::size_t env = harness_threads_env();
  if (env != 0) return env;
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

CityScale::CityScale(const CityScaleConfig& cfg) : cfg_(cfg) {
  IQ_CHECK_MSG(cfg_.sites >= 1 && cfg_.sites <= 60'000, "sites out of range");
  IQ_CHECK_MSG(cfg_.subs_per_site >= 1 && cfg_.subs_per_site <= 60'000,
               "subs_per_site out of range");
  sim::ShardedSim::Config scfg;
  scfg.shards = cfg_.shards == 0 ? cityscale_shards() : cfg_.shards;
  scfg.lookahead = cfg_.trunk_latency;
  scfg.threaded = cfg_.threaded;
  sharded_ = std::make_unique<sim::ShardedSim>(scfg);

  // Fixed group set — one hub plus one group per site, independent of K.
  hub_group_ = sharded_->add_group();
  std::vector<std::uint32_t> site_groups;
  site_groups.reserve(cfg_.sites);
  for (std::size_t s = 0; s < cfg_.sites; ++s) {
    site_groups.push_back(sharded_->add_group());
  }

  hub_ = std::make_unique<Hub>(sharded_->group_sim(hub_group_),
                               cfg_.trace_seed);
  hub_->pub.reserve(cfg_.sites);
  for (std::size_t s = 0; s < cfg_.sites; ++s) {
    hub_->pub.push_back(&hub_->net.add_node("pub" + std::to_string(s)));
  }

  sites_.reserve(cfg_.sites);
  for (std::size_t s = 0; s < cfg_.sites; ++s) {
    workload::MboneTraceConfig tcfg;
    tcfg.seed = cfg_.trace_seed + 7919 * (s + 1);
    tcfg.min_group = 1;
    tcfg.max_group = static_cast<int>(cfg_.subs_per_site);
    tcfg.start_group = static_cast<int>(cfg_.subs_per_site / 2);
    sites_.push_back(std::make_unique<Site>(
        site_groups[s], sharded_->group_sim(site_groups[s]),
        static_cast<net::NodeId>(s + 1) * kIdStride, tcfg));
    build_site(s);
  }
  build_hub();
  start();
}

CityScale::~CityScale() = default;

void CityScale::build_site(std::size_t s) {
  Site& site = *sites_[s];
  site.rep = &site.net.add_node("rep");
  site.router = &site.net.add_node("router");

  net::LinkConfig backbone;
  backbone.rate_bps = cfg_.site_backbone_bps;
  backbone.propagation = Duration::millis(1);
  backbone.queue_capacity_bytes = 256 * 1500;
  site.net.add_duplex_link(*site.rep, *site.router, backbone);

  site.subs.reserve(cfg_.subs_per_site);
  for (std::size_t i = 0; i < cfg_.subs_per_site; ++i) {
    const std::size_t global = s * cfg_.subs_per_site + i;
    net::Node& sub = site.net.add_node("sub" + std::to_string(i));
    site.subs.push_back(&sub);
    net::LinkConfig access;
    access.rate_bps = kAccessRates[global % std::size(kAccessRates)];
    access.propagation =
        Duration::millis(kAccessPropMs[global % std::size(kAccessPropMs)]);
    access.queue_capacity_bytes = 24 * 1500;
    site.net.add_duplex_link(*site.router, sub, access);
  }
  site.net.compute_routes();

  // Return path to the hub: everything not local leaves through the portal.
  site.to_hub = std::make_unique<wire::ShardPortal>(
      *sharded_, hub_->net,
      wire::ShardPortal::Config{.src_group = site.group,
                                .dst_group = hub_group_,
                                .latency = cfg_.trunk_latency});
  net::LinkConfig trunk;
  trunk.rate_bps = cfg_.trunk_rate_bps;
  trunk.propagation = Duration::zero();  // the portal carries the latency
  trunk.queue_capacity_bytes = 256 * 1500;
  net::Link& up =
      site.net.add_portal_link(*site.rep, *site.to_hub, "hub", trunk);
  site.rep->set_default_route(&up);

  // Trunk receiver (server side).
  const net::Endpoint rep_ep{site.rep->id(), kRepTrunkPort};
  const net::Endpoint pub_ep{hub_->pub[s]->id(),
                             static_cast<std::uint16_t>(kTrunkPortBase + s)};
  site.trunk_wire = std::make_unique<wire::SimWire>(
      site.net, rep_ep, pub_ep, static_cast<std::uint32_t>(s + 1));
  rudp::RudpConfig rcfg;
  rcfg.conn_id = static_cast<std::uint32_t>(s + 1);
  site.trunk_conn = std::make_unique<core::IqRudpConnection>(
      *site.trunk_wire, rcfg, rudp::Role::Server,
      core::CoordinatorConfig{.mode = cfg_.mode});
  site.trunk_conn->listen();
  site.trunk_chan = std::make_unique<echo::EventChannel>(
      "trunk" + std::to_string(s), *site.trunk_conn);

  if (cfg_.attach_cm) {
    cm::CmConfig mcfg;
    mcfg.id = 900'000 + static_cast<std::uint32_t>(s);
    site.cmgr = std::make_unique<cm::CongestionManager>(mcfg);
  }

  // Fan-out flows.
  site.policy.assign(cfg_.subs_per_site, echo::ResolutionPolicy{});
  site.stats.assign(cfg_.subs_per_site, SubStats{});
  for (std::size_t i = 0; i < cfg_.subs_per_site; ++i) {
    const std::size_t global = s * cfg_.subs_per_site + i;
    const net::Endpoint snd_ep{
        site.rep->id(), static_cast<std::uint16_t>(kFanPortBase + i)};
    const net::Endpoint rcv_ep{site.subs[i]->id(), kSubPort};
    const auto flow = static_cast<std::uint32_t>(kFanFlowBase + global);

    rudp::RudpConfig fcfg;
    fcfg.conn_id = flow;
    fcfg.loss_epoch_packets = 50;  // adapt on a few seconds of slow flows
    site.fan.push_back(std::make_unique<FlowPair>(
        site.net, snd_ep, rcv_ep, flow, fcfg, fcfg,
        core::CoordinatorConfig{.mode = cfg_.mode}));
    FlowPair& pair = *site.fan[i];
    pair.server.listen();
    pair.client.connect();
    if (site.cmgr) pair.client.attach_cm(*site.cmgr, 1.0);

    site.fan_chan_snd.push_back(std::make_unique<echo::EventChannel>(
        "fan" + std::to_string(global), pair.client));
    site.fan_chan_rcv.push_back(std::make_unique<echo::EventChannel>(
        "fan" + std::to_string(global), pair.server));

    // Application adaptation: resolution policy on error-ratio thresholds.
    // The returned attrs describe the step; the coordinator consumes them
    // when Coordinated and ignores them when Uncoordinated — the app
    // adapts identically either way, which is the paper's comparison.
    Site* sp = &site;
    pair.client.register_error_ratio_callbacks(
        cfg_.adapt_upper, cfg_.adapt_lower,
        [sp, i](const attr::CallbackContext& ctx) {
          return sp->policy[i].shrink(ctx.value).to_attrs();
        },
        [sp, i](const attr::CallbackContext&) {
          return sp->policy[i].grow().to_attrs();
        });

    // Subscriber delivery accounting.
    site.fan_chan_rcv[i]->set_event_handler(
        [this, sp, i](const echo::ReceivedEvent& re) {
          SubStats& st = sp->stats[i];
          ++st.delivered;
          st.bytes += static_cast<std::uint64_t>(re.event.bytes);
          const auto ts = re.event.meta.get_int(kPubTsAttr);
          const std::int64_t lat =
              re.delivered.ns() - (ts ? *ts : re.sent.ns());
          st.latency_ns += lat;
          if (lat <= cfg_.deadline.ns()) ++st.on_time;
        });
  }

  // Repeater: fan every trunk frame out to the current members, scaled by
  // each subscriber's resolution policy.
  Site* sp = &site;
  site.trunk_chan->set_event_handler([this, sp](const echo::ReceivedEvent& re) {
    const std::size_t n = sp->membership->active();
    for (std::size_t i = 0; i < n; ++i) {
      echo::Event fev;
      fev.bytes = std::max<std::int64_t>(cfg_.min_fanout_bytes,
                                         sp->policy[i].apply(re.event.bytes));
      fev.tagged = true;
      fev.meta = re.event.meta;  // carries the publish timestamp onward
      const auto r = sp->fan_chan_snd[i]->submit(fev);
      SubStats& st = sp->stats[i];
      ++st.forwarded;
      if (r.discarded) ++st.discarded;
    }
  });

  // Membership churn from the site's own trace.
  site.membership = std::make_unique<workload::GroupMembership>(
      cfg_.subs_per_site, nullptr, nullptr);
  sim::Simulator& ssim = sharded_->group_sim(site.group);
  site.churn = std::make_unique<sim::PeriodicTask>(
      ssim, cfg_.churn_interval, [this, sp, &ssim] {
        sp->membership->advance_to_trace(
            sp->trace, ssim.now() - TimePoint::zero(), 1.0);
      });
}

void CityScale::build_hub() {
  Hub& hub = *hub_;
  for (std::size_t s = 0; s < cfg_.sites; ++s) {
    Site& site = *sites_[s];
    // Egress: one portal (and portal link) per site, the default route of
    // the site's publisher endpoint.
    hub.to_site.push_back(std::make_unique<wire::ShardPortal>(
        *sharded_, site.net,
        wire::ShardPortal::Config{.src_group = hub_group_,
                                  .dst_group = site.group,
                                  .latency = cfg_.trunk_latency}));
    net::LinkConfig trunk;
    trunk.rate_bps = cfg_.trunk_rate_bps;
    trunk.propagation = Duration::zero();
    trunk.queue_capacity_bytes = 256 * 1500;
    net::Link& down = hub.net.add_portal_link(
        *hub.pub[s], *hub.to_site[s], "site" + std::to_string(s), trunk);
    hub.pub[s]->set_default_route(&down);

    const net::Endpoint pub_ep{
        hub.pub[s]->id(), static_cast<std::uint16_t>(kTrunkPortBase + s)};
    const net::Endpoint rep_ep{site.rep->id(), kRepTrunkPort};
    hub.trunk_wire.push_back(std::make_unique<wire::SimWire>(
        hub.net, pub_ep, rep_ep, static_cast<std::uint32_t>(s + 1)));
    rudp::RudpConfig rcfg;
    rcfg.conn_id = static_cast<std::uint32_t>(s + 1);
    hub.trunk_conn.push_back(std::make_unique<core::IqRudpConnection>(
        *hub.trunk_wire[s], rcfg, rudp::Role::Client,
        core::CoordinatorConfig{.mode = cfg_.mode}));
    hub.trunk_conn[s]->connect();
    hub.trunk_chan.push_back(std::make_unique<echo::EventChannel>(
        "trunk" + std::to_string(s), *hub.trunk_conn[s]));
  }
}

void CityScale::start() {
  // Publisher: frame per tick per site, sized by the hub trace's member
  // count (the paper's group × bytes rule), stamped with the publish time.
  hub_->publish_until = TimePoint::zero() + cfg_.sim_time;
  sim::Simulator& hsim = sharded_->group_sim(hub_group_);
  const auto period = Duration::from_seconds(1.0 / cfg_.publisher_fps);
  hub_->ticker =
      std::make_unique<sim::PeriodicTask>(hsim, period, [this, &hsim] {
        if (hsim.now() >= hub_->publish_until) return;  // drain phase
        const int members =
            hub_->trace.group_at_time(hsim.now() - TimePoint::zero());
        echo::Event ev;
        ev.bytes = cfg_.bytes_per_member * members;
        ev.tagged = true;
        ev.meta.set(kPubTsAttr, hsim.now().ns());
        for (auto& chan : hub_->trunk_chan) {
          chan->submit(ev);
          ++hub_->frames;
        }
      });
  hub_->ticker->start(false);
  for (auto& site : sites_) site->churn->start(true);
}

CityScaleResult CityScale::run() {
  sharded_->run_until(TimePoint::zero() + cfg_.sim_time + cfg_.drain_time);
  return collect();
}

CityScaleResult CityScale::collect() const {
  CityScaleResult r;
  r.flows = cfg_.sites * cfg_.subs_per_site;
  r.frames_published = hub_->frames;
  Fnv1a digest;
  std::vector<double> utilization;
  utilization.reserve(r.flows);
  double scale_sum = 0.0;
  const double seconds = (cfg_.sim_time + cfg_.drain_time).to_seconds();

  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const Site& site = *sites_[s];
    r.joins += site.membership->joins();
    r.leaves += site.membership->leaves();
    digest.mix(site.membership->joins());
    digest.mix(site.membership->leaves());
    digest.mix(site.trunk_chan->events_received());
    for (std::size_t i = 0; i < site.stats.size(); ++i) {
      const SubStats& st = site.stats[i];
      const std::size_t global = s * cfg_.subs_per_site + i;
      r.fanout_forwarded += st.forwarded;
      r.fanout_discarded += st.discarded;
      r.fanout_delivered += st.delivered;
      r.fanout_on_time += st.on_time;
      if (st.delivered > 0) {
        const auto rate = kAccessRates[global % std::size(kAccessRates)];
        utilization.push_back(static_cast<double>(st.bytes) * 8.0 /
                              (static_cast<double>(rate) * seconds));
        r.goodput_mbps += static_cast<double>(st.bytes) * 8.0 / seconds / 1e6;
        r.mean_latency_ms += static_cast<double>(st.latency_ns) / 1e6;
      }
      scale_sum += site.policy[i].scale();
      digest.mix(st.forwarded);
      digest.mix(st.discarded);
      digest.mix(st.delivered);
      digest.mix(st.on_time);
      digest.mix(st.bytes);
      digest.mix(static_cast<std::uint64_t>(st.latency_ns));
      digest.mix_double(site.policy[i].scale());
    }
  }
  if (r.fanout_delivered > 0) {
    r.mean_latency_ms /= static_cast<double>(r.fanout_delivered);
  }
  r.on_time_ratio = r.fanout_delivered > 0
                        ? static_cast<double>(r.fanout_on_time) /
                              static_cast<double>(r.fanout_delivered)
                        : 0.0;
  r.delivery_ratio = r.fanout_forwarded > 0
                         ? static_cast<double>(r.fanout_delivered) /
                               static_cast<double>(r.fanout_forwarded)
                         : 0.0;
  r.jain_utilization = stats::jain_index(utilization);
  r.mean_scale = scale_sum / static_cast<double>(r.flows);

  r.events_executed = sharded_->events_executed();
  r.parcels_delivered = sharded_->parcels_delivered();
  r.epochs = sharded_->epochs();
  digest.mix(r.frames_published);
  digest.mix(r.events_executed);
  digest.mix(r.parcels_delivered);
  r.digest = digest.h;
  return r;
}

CityScaleResult run_cityscale(const CityScaleConfig& cfg) {
  CityScale scenario(cfg);
  return scenario.run();
}

}  // namespace iq::harness
