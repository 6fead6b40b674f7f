// Tests for the FEC reliability class: XOR parity group encoder/decoder,
// the adaptive redundancy controller, the transport integration (recovery
// without retransmission, deferral + RTO fallback), the coordinator's
// parity-overhead window debit, and the end-to-end path over LossyWire.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "iq/core/iq_connection.hpp"
#include "iq/echo/policies.hpp"
#include "iq/fec/group.hpp"
#include "iq/fec/redundancy.hpp"
#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"

namespace iq {
namespace {

using rudp::DeliveredMessage;
using rudp::RecvSegment;
using rudp::Segment;
using rudp::SegmentType;

Segment data_seg(rudp::WireSeq seq, std::int32_t bytes = 1000,
                 std::uint32_t msg_id = 0) {
  Segment s;
  s.type = SegmentType::Data;
  s.seq = seq;
  s.msg_id = msg_id != 0 ? msg_id : seq;
  s.frag_index = 0;
  s.frag_count = 1;
  s.payload_bytes = bytes;
  s.fec_protected = true;
  return s;
}

// --------------------------------------------------------------- encoder --

TEST(FecEncoderTest, ClosesGroupAtK) {
  fec::FecEncoder enc({.group_size = 3, .interleave = 1});
  EXPECT_FALSE(enc.add(data_seg(1)).has_value());
  EXPECT_FALSE(enc.add(data_seg(2, 500)).has_value());
  auto parity = enc.add(data_seg(3, 2000));
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->type, SegmentType::Parity);
  ASSERT_EQ(parity->fec_members.size(), 3u);
  EXPECT_EQ(parity->fec_members[0].seq, 1u);
  EXPECT_EQ(parity->fec_members[2].seq, 3u);
  // Parity payload is the largest member payload (XOR width).
  EXPECT_EQ(parity->payload_bytes, 2000);
  EXPECT_EQ(enc.groups_closed(), 1u);
  EXPECT_EQ(enc.open_groups(), 0u);
}

TEST(FecEncoderTest, InterleaveRoundRobinsLanes) {
  fec::FecEncoder enc({.group_size = 2, .interleave = 2});
  EXPECT_FALSE(enc.add(data_seg(1)).has_value());  // lane 0
  EXPECT_FALSE(enc.add(data_seg(2)).has_value());  // lane 1
  auto p0 = enc.add(data_seg(3));                  // closes lane 0
  ASSERT_TRUE(p0.has_value());
  ASSERT_EQ(p0->fec_members.size(), 2u);
  EXPECT_EQ(p0->fec_members[0].seq, 1u);
  EXPECT_EQ(p0->fec_members[1].seq, 3u);  // non-consecutive: burst-tolerant
  auto p1 = enc.add(data_seg(4));          // closes lane 1
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->fec_members[0].seq, 2u);
  EXPECT_NE(p0->fec_group, p1->fec_group);
}

TEST(FecEncoderTest, FlushClosesPartialGroups) {
  fec::FecEncoder enc({.group_size = 4, .interleave = 1});
  enc.add(data_seg(1));
  enc.add(data_seg(2));
  EXPECT_EQ(enc.open_groups(), 1u);
  auto flushed = enc.flush();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].fec_members.size(), 2u);
  EXPECT_EQ(enc.open_groups(), 0u);
  EXPECT_TRUE(enc.flush().empty());
}

TEST(FecEncoderTest, RetuneAppliesToNextGroup) {
  fec::FecEncoder enc({.group_size = 4, .interleave = 1});
  enc.add(data_seg(1));
  enc.set_group_size(2);
  // The open group keeps its captured target of 4.
  EXPECT_FALSE(enc.add(data_seg(2)).has_value());
  EXPECT_FALSE(enc.add(data_seg(3)).has_value());
  EXPECT_TRUE(enc.add(data_seg(4)).has_value());
  // The next group closes at the retuned size.
  EXPECT_FALSE(enc.add(data_seg(5)).has_value());
  EXPECT_TRUE(enc.add(data_seg(6)).has_value());
}

// --------------------------------------------------------------- decoder --

std::vector<RecvSegment> members(std::initializer_list<rudp::Seq> seqs) {
  std::vector<RecvSegment> out;
  for (rudp::Seq s : seqs) {
    RecvSegment rs;
    rs.seq = s;
    rs.msg_id = static_cast<std::uint32_t>(s);
    rs.payload_bytes = 1000;
    rs.fec = true;
    out.push_back(rs);
  }
  return out;
}

fec::FecDecoder::HaveFn have_all_except(std::vector<rudp::Seq> missing) {
  return [missing](rudp::Seq s) {
    for (rudp::Seq m : missing) {
      if (m == s) return false;
    }
    return true;
  };
}

TEST(FecDecoderTest, RecoversSingleMissingMember) {
  fec::FecDecoder dec;
  auto out = dec.on_parity(1, members({10, 11, 12}), have_all_except({11}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 11u);
  EXPECT_EQ(dec.recovered(), 1u);
  EXPECT_EQ(dec.held_groups(), 0u);
}

TEST(FecDecoderTest, SettledGroupIsDiscarded) {
  fec::FecDecoder dec;
  auto out = dec.on_parity(1, members({10, 11}), have_all_except({}));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dec.held_groups(), 0u);
  EXPECT_EQ(dec.recovered(), 0u);
}

TEST(FecDecoderTest, HoldsThenRecoversOnLateArrival) {
  fec::FecDecoder dec;
  // Two members missing: XOR cannot reconstruct yet.
  auto out = dec.on_parity(7, members({20, 21, 22}), have_all_except({20, 22}));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(dec.held_groups(), 1u);
  // Seq 20 arrives late (reordering): 22 becomes the lone missing member.
  out = dec.on_data(20, have_all_except({22}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 22u);
  EXPECT_EQ(dec.held_groups(), 0u);
}

TEST(FecDecoderTest, PruneDropsGroupsBelowCumulative) {
  fec::FecDecoder dec;
  dec.on_parity(1, members({5, 6}), have_all_except({5, 6}));
  dec.on_parity(2, members({30, 31}), have_all_except({30, 31}));
  EXPECT_EQ(dec.held_groups(), 2u);
  dec.prune_below(20);
  EXPECT_EQ(dec.held_groups(), 1u);
}

// ---------------------------------------------------- redundancy control --

rudp::EpochReport epoch_with_loss(double ratio) {
  rudp::EpochReport r;
  r.loss_ratio = ratio;
  return r;
}

TEST(RedundancyControllerTest, StartsAtCheapestProtection) {
  fec::AdaptiveRedundancyController ctrl;
  EXPECT_EQ(ctrl.group_size(), 16);
  EXPECT_NEAR(ctrl.redundancy(), 1.0 / 16.0, 1e-12);
}

TEST(RedundancyControllerTest, TightensUnderLossAndDecaysWhenQuiet) {
  fec::AdaptiveRedundancyController ctrl;
  for (int i = 0; i < 20; ++i) ctrl.on_epoch(epoch_with_loss(0.10));
  // smoothed → 0.10, target = 0.30 ⇒ k = round(1/0.3) = 3.
  EXPECT_EQ(ctrl.group_size(), 3);
  EXPECT_GE(ctrl.retunes(), 1u);
  for (int i = 0; i < 60; ++i) ctrl.on_epoch(epoch_with_loss(0.0));
  EXPECT_EQ(ctrl.group_size(), 16);  // quiet network decays to min parity
}

TEST(RedundancyControllerTest, HeavyLossClampsAtMaxRedundancy) {
  fec::AdaptiveRedundancyController ctrl;
  for (int i = 0; i < 40; ++i) ctrl.on_epoch(epoch_with_loss(0.5));
  // target clamps at max_redundancy = 0.5 ⇒ k = 2 (the configured floor).
  EXPECT_EQ(ctrl.group_size(), 2);
}

TEST(RedundancyControllerTest, RetunesCountsOnlyChanges) {
  fec::AdaptiveRedundancyController ctrl;
  for (int i = 0; i < 10; ++i) ctrl.on_epoch(epoch_with_loss(0.0));
  EXPECT_EQ(ctrl.retunes(), 0u);
  EXPECT_EQ(ctrl.epochs(), 10u);
}

// ------------------------------------------------------------ fec policy --

TEST(FecPolicyTest, HysteresisAroundThresholds) {
  echo::FecPolicy policy({.activate_above = 0.01, .deactivate_below = 0.002});
  EXPECT_FALSE(policy.active());
  EXPECT_FALSE(policy.update(0.005));  // between bands: stays off
  EXPECT_TRUE(policy.update(0.02));    // crosses activate threshold
  EXPECT_TRUE(policy.active());
  EXPECT_FALSE(policy.update(0.005));  // between bands: stays on
  EXPECT_TRUE(policy.update(0.001));   // below deactivate threshold
  EXPECT_FALSE(policy.active());
  EXPECT_EQ(policy.activations(), 1u);
}

TEST(FecPolicyTest, ProtectStampsEvents) {
  echo::FecPolicy policy({.activate_above = 0.01, .protect_tagged = false});
  echo::Event tagged{.id = 1, .bytes = 100, .tagged = true};
  echo::Event untagged{.id = 2, .bytes = 100, .tagged = false};
  policy.protect(tagged);
  EXPECT_FALSE(tagged.fec);  // inactive: nothing protected
  policy.update(0.05);
  policy.protect(tagged);
  policy.protect(untagged);
  EXPECT_FALSE(tagged.fec);  // protect_tagged = false
  EXPECT_TRUE(untagged.fec);
}

// -------------------------------------------- transport, scripted losses --

/// Wraps a SegmentWire, dropping outbound segments a predicate selects.
class FilterWire final : public rudp::SegmentWire {
 public:
  explicit FilterWire(rudp::SegmentWire& inner) : inner_(inner) {}

  void send(const Segment& seg) override {
    if (drop && drop(seg)) {
      ++dropped;
      return;
    }
    inner_.send(seg);
  }
  void set_receiver(RecvFn fn) override { inner_.set_receiver(std::move(fn)); }
  sim::Executor& executor() override { return inner_.executor(); }

  std::function<bool(const Segment&)> drop;
  int dropped = 0;

 private:
  rudp::SegmentWire& inner_;
};

struct FecPair {
  sim::Simulator sim;
  wire::LossyWirePair wires{sim, {.one_way_delay = Duration::millis(15)}};
  FilterWire filter{wires.a()};
  std::unique_ptr<rudp::RudpConnection> snd;
  std::unique_ptr<rudp::RudpConnection> rcv;
  std::vector<DeliveredMessage> delivered;

  explicit FecPair(rudp::RudpConfig cfg = {}, rudp::RudpConfig rcfg = {}) {
    snd = std::make_unique<rudp::RudpConnection>(filter, cfg,
                                                 rudp::Role::Client);
    rcv = std::make_unique<rudp::RudpConnection>(wires.b(), rcfg,
                                                 rudp::Role::Server);
    rcv->set_message_handler(
        [this](const DeliveredMessage& m) { delivered.push_back(m); });
    rcv->listen();
    snd->connect();
  }

  void run_ms(std::int64_t ms) {
    sim.run_until(sim.now() + Duration::millis(ms));
  }
};

TEST(FecConnectionTest, RecoversLostSegmentWithoutRetransmission) {
  rudp::RudpConfig cfg;
  cfg.fec_group_size = 4;
  cfg.initial_cwnd = 16.0;  // whole burst in flight: groups fill, not flush
  FecPair p(cfg);
  p.run_ms(100);

  // Drop exactly the 3rd DATA segment; parity must cover the hole.
  int data_seen = 0;
  p.filter.drop = [&data_seen](const Segment& s) {
    return s.type == SegmentType::Data && ++data_seen == 3;
  };
  for (int i = 0; i < 8; ++i) {
    p.snd->send_message({.bytes = 1000, .fec = true});
  }
  p.run_ms(3000);

  EXPECT_EQ(p.filter.dropped, 1);
  ASSERT_EQ(p.delivered.size(), 8u);
  for (const auto& m : p.delivered) EXPECT_TRUE(m.fec);
  EXPECT_EQ(p.rcv->stats().segments_recovered, 1u);
  EXPECT_EQ(p.rcv->stats().parities_received, 2u);
  // The whole point: the hole was healed by parity, not by retransmission.
  EXPECT_EQ(p.snd->stats().segments_retransmitted, 0u);
}

TEST(FecConnectionTest, RecoveredFirstFragmentKeepsItsAttrs) {
  rudp::RudpConfig cfg;
  cfg.fec_group_size = 8;   // more members than any inline list held
  cfg.initial_cwnd = 16.0;  // whole burst in flight: the group fills
  FecPair p(cfg);
  p.run_ms(100);

  // Three 3-fragment messages: the first group covers seqs 1–8. Lose the
  // first transmission of message 2's fragment 0, the one carrying its
  // attrs; only the PARITY's member descriptor can bring them back.
  p.filter.drop = [&p](const Segment& s) {
    return p.filter.dropped == 0 && s.type == SegmentType::Data &&
           s.msg_id == 2 && s.frag_index == 0;
  };
  for (std::int64_t frame = 1; frame <= 3; ++frame) {
    rudp::MessageSpec spec{.bytes = 3500, .fec = true};
    spec.attrs.set("frame", frame);
    p.snd->send_message(spec);
  }
  p.run_ms(3000);

  EXPECT_EQ(p.filter.dropped, 1);
  ASSERT_EQ(p.delivered.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(p.delivered[i].bytes, 3500);
    EXPECT_EQ(p.delivered[i].attrs.get_int("frame"),
              static_cast<std::int64_t>(i + 1));
  }
  EXPECT_EQ(p.rcv->stats().segments_recovered, 1u);
  EXPECT_EQ(p.snd->stats().segments_retransmitted, 0u);
}

TEST(FecConnectionTest, PartialGroupIsFlushedAndProtects) {
  rudp::RudpConfig cfg;
  cfg.fec_group_size = 8;  // more than we send: only the flush closes it
  cfg.fec_flush = Duration::millis(20);
  cfg.initial_cwnd = 8.0;  // all three segments leave before the flush
  FecPair p(cfg);
  p.run_ms(100);

  int data_seen = 0;
  p.filter.drop = [&data_seen](const Segment& s) {
    return s.type == SegmentType::Data && ++data_seen == 2;
  };
  for (int i = 0; i < 3; ++i) {
    p.snd->send_message({.bytes = 800, .fec = true});
  }
  p.run_ms(3000);

  ASSERT_EQ(p.delivered.size(), 3u);
  EXPECT_EQ(p.rcv->stats().segments_recovered, 1u);
  EXPECT_EQ(p.snd->stats().segments_retransmitted, 0u);
  EXPECT_EQ(p.snd->stats().parities_sent, 1u);
}

TEST(FecConnectionTest, RtoRetransmitsWhenParityAlsoLost) {
  rudp::RudpConfig cfg;
  cfg.fec_group_size = 4;
  FecPair p(cfg);
  p.run_ms(100);

  // Lose a DATA segment *and* every parity: recovery cannot happen, so the
  // deferred fast retransmit must fall back to the RTO path.
  int data_seen = 0;
  p.filter.drop = [&data_seen](const Segment& s) {
    if (s.type == SegmentType::Parity) return true;
    return s.type == SegmentType::Data && ++data_seen == 3;
  };
  for (int i = 0; i < 8; ++i) {
    p.snd->send_message({.bytes = 1000, .fec = true});
  }
  p.run_ms(5000);

  ASSERT_EQ(p.delivered.size(), 8u);
  EXPECT_EQ(p.rcv->stats().segments_recovered, 0u);
  EXPECT_EQ(p.snd->stats().fec_deferrals, 1u);
  EXPECT_GE(p.snd->stats().segments_retransmitted, 1u);
  EXPECT_GE(p.snd->stats().timeouts, 1u);
}

TEST(FecConnectionTest, FecClassIsNeverSkippedOrDiscarded) {
  rudp::RudpConfig cfg;
  rudp::RudpConfig rcfg;
  rcfg.recv_loss_tolerance = 0.9;  // receiver tolerates almost anything
  FecPair p(cfg, rcfg);
  p.run_ms(100);
  p.snd->set_discard_unmarked(true);

  for (int i = 0; i < 20; ++i) {
    auto res = p.snd->send_message({.bytes = 500, .marked = false,
                                    .fec = true});
    EXPECT_FALSE(res.discarded);
  }
  // Unmarked non-FEC traffic IS discarded under the same settings.
  bool any_discarded = false;
  for (int i = 0; i < 20; ++i) {
    any_discarded |=
        p.snd->send_message({.bytes = 500, .marked = false}).discarded;
  }
  EXPECT_TRUE(any_discarded);
  p.run_ms(3000);
  EXPECT_EQ(p.snd->stats().segments_skipped, 0u);
  // All 20 FEC messages arrive despite being unmarked.
  std::size_t fec_delivered = 0;
  for (const auto& m : p.delivered) fec_delivered += m.fec ? 1 : 0;
  EXPECT_EQ(fec_delivered, 20u);
}

// --------------------------------------------------- coordinator & cwnd ---

TEST(FecCoordinatorTest, WindowDebitKeepsBitRateShareInvariant) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(15)});
  rudp::RudpConfig cfg;
  cfg.initial_cwnd = 32.0;
  rudp::RudpConnection conn(wires.a(), cfg, rudp::Role::Client);
  core::Coordinator coord(conn, {});

  const double w0 = conn.congestion().cwnd();
  // Enabling FEC at rho = 1/4 shrinks the window so cwnd·(1+rho) == w0:
  // goodput + parity stays at the pre-FEC bit-rate fair share (§3.4 logic).
  coord.on_fec_redundancy(0.25);
  EXPECT_NEAR(conn.congestion().cwnd() * 1.25, w0, 1e-9);
  EXPECT_EQ(coord.stats().fec_rescales, 1u);

  // Same ratio again: no-op.
  coord.on_fec_redundancy(0.25);
  EXPECT_EQ(coord.stats().fec_rescales, 1u);

  // Retune to rho = 1/8: invariant still holds against the original share.
  coord.on_fec_redundancy(0.125);
  EXPECT_NEAR(conn.congestion().cwnd() * 1.125, w0, 1e-9);

  // Disabling restores the full window.
  coord.on_fec_redundancy(0.0);
  EXPECT_NEAR(conn.congestion().cwnd(), w0, 1e-9);
}

TEST(FecCoordinatorTest, UncoordinatedModeLeavesWindowAlone) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(15)});
  rudp::RudpConnection conn(wires.a(), {}, rudp::Role::Client);
  core::CoordinatorConfig ccfg;
  ccfg.mode = core::CoordinationMode::Uncoordinated;
  core::Coordinator coord(conn, ccfg);

  const double w0 = conn.congestion().cwnd();
  coord.on_fec_redundancy(0.25);
  EXPECT_EQ(conn.congestion().cwnd(), w0);
  EXPECT_EQ(coord.stats().fec_rescales, 0u);
  EXPECT_EQ(coord.stats().fec_redundancy, 0.25);  // still tracked
}

TEST(FecFacadeTest, EnableFecPublishesAttributesAndDebitsWindow) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(15)});
  rudp::RudpConfig cfg;
  core::IqRudpConnection snd(wires.a(), cfg, rudp::Role::Client);
  core::IqRudpConnection rcv(wires.b(), cfg, rudp::Role::Server);
  rcv.listen();
  snd.connect();
  sim.run_until(sim.now() + Duration::millis(100));

  const double w0 = snd.transport().congestion().cwnd();
  snd.enable_fec();
  ASSERT_TRUE(snd.fec_enabled());
  // Controller starts at k = 16 ⇒ rho = 1/16; window debited immediately.
  EXPECT_EQ(snd.transport().fec_group_size(), 16);
  EXPECT_NEAR(snd.transport().congestion().cwnd() * (1.0 + 1.0 / 16.0), w0,
              1e-9);
  EXPECT_EQ(snd.attributes().query(attr::kFecEnabled)->as_int(), 1);
  EXPECT_EQ(snd.attributes().query(attr::kFecGroupSize)->as_int(), 16);
  EXPECT_NEAR(*snd.attributes().query_double(attr::kFecRedundancy),
              1.0 / 16.0, 1e-12);

  snd.disable_fec();
  EXPECT_FALSE(snd.fec_enabled());
  EXPECT_NEAR(snd.transport().congestion().cwnd(), w0, 1e-9);
  EXPECT_EQ(snd.attributes().query(attr::kFecEnabled)->as_int(), 0);
}

TEST(FecFacadeTest, EpochLossRetunesGroupSizeDownward) {
  sim::Simulator sim;
  wire::LossyConfig lcfg;
  lcfg.drop_probability = 0.08;
  lcfg.seed = 11;
  wire::LossyWirePair wires(sim, lcfg);
  rudp::RudpConfig cfg;
  cfg.loss_epoch_packets = 50;
  core::IqRudpConnection snd(wires.a(), cfg, rudp::Role::Client);
  core::IqRudpConnection rcv(wires.b(), cfg, rudp::Role::Server);
  rcv.listen();
  snd.connect();
  sim.run_until(sim.now() + Duration::millis(200));
  ASSERT_TRUE(snd.established());

  snd.enable_fec();
  for (int i = 0; i < 600; ++i) {
    snd.send({.bytes = 1000, .fec = true});
  }
  sim.run_until(sim.now() + Duration::seconds(30));

  // Sustained ~8% loss must have tightened the parity ratio well below the
  // starting 1/16, with the window re-debited on each retune.
  EXPECT_LT(snd.transport().fec_group_size(), 16);
  EXPECT_GE(snd.coordinator().stats().fec_rescales, 2u);
  EXPECT_EQ(snd.attributes().query(attr::kFecGroupSize)->as_int(),
            snd.transport().fec_group_size());
  EXPECT_GT(snd.transport().stats().parities_sent, 0u);
}

// ----------------------------------------------------------- end to end ---

struct E2eResult {
  std::size_t delivered = 0;
  std::size_t fec_delivered = 0;
  rudp::RudpStats snd_stats;
  rudp::RudpStats rcv_stats;
};

E2eResult run_e2e(double drop, std::uint64_t seed, bool use_fec,
                  int messages, double recv_tolerance,
                  Duration reorder_jitter = Duration::zero()) {
  sim::Simulator sim;
  wire::LossyConfig lcfg;
  lcfg.drop_probability = drop;
  lcfg.reorder_jitter = reorder_jitter;
  lcfg.seed = seed;
  wire::LossyWirePair wires(sim, lcfg);
  rudp::RudpConfig cfg;
  cfg.fec_group_size = 4;
  rudp::RudpConfig rcfg = cfg;
  rcfg.recv_loss_tolerance = recv_tolerance;
  rudp::RudpConnection snd(wires.a(), cfg, rudp::Role::Client);
  rudp::RudpConnection rcv(wires.b(), rcfg, rudp::Role::Server);
  E2eResult out;
  rcv.set_message_handler([&out](const DeliveredMessage& m) {
    ++out.delivered;
    out.fec_delivered += m.fec ? 1 : 0;
  });
  rcv.listen();
  snd.connect();
  sim.run_until(sim.now() + Duration::millis(200));
  for (int i = 0; i < messages; ++i) {
    snd.send_message({.bytes = 1000, .marked = !use_fec ? false : true,
                      .fec = use_fec});
  }
  sim.run_until(sim.now() + Duration::seconds(60));
  out.snd_stats = snd.stats();
  out.rcv_stats = rcv.stats();
  return out;
}

TEST(FecEndToEndTest, FecFullyDeliversWhereUnmarkedShowsSkips) {
  // Same 2% lossy pipe, same seed. The unmarked leg (tolerance 0.2) loses
  // messages to skips; the FEC leg delivers everything, recovering losses
  // from parity without a single DATA retransmission.
  const double kDrop = 0.02;
  const std::uint64_t kSeed = 7;
  const int kMessages = 300;

  auto unmarked = run_e2e(kDrop, kSeed, /*use_fec=*/false, kMessages, 0.2);
  EXPECT_GT(unmarked.rcv_stats.messages_dropped, 0u);
  EXPECT_LT(unmarked.delivered, static_cast<std::size_t>(kMessages));

  auto fec = run_e2e(kDrop, kSeed, /*use_fec=*/true, kMessages, 0.2);
  EXPECT_EQ(fec.delivered, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(fec.fec_delivered, static_cast<std::size_t>(kMessages));
  EXPECT_EQ(fec.rcv_stats.messages_dropped, 0u);
  EXPECT_GT(fec.rcv_stats.segments_recovered, 0u);
  // Acceptance criterion: recovered losses were NOT retransmitted.
  EXPECT_EQ(fec.snd_stats.segments_retransmitted, 0u);
  EXPECT_GT(fec.snd_stats.parities_sent, 0u);
}

TEST(FecEndToEndTest, SurvivesLossWithReordering) {
  auto fec = run_e2e(0.02, 21, /*use_fec=*/true, 200, 0.0,
                     /*reorder_jitter=*/Duration::millis(5));
  EXPECT_EQ(fec.delivered, 200u);
  EXPECT_GT(fec.rcv_stats.segments_recovered, 0u);
}

}  // namespace
}  // namespace iq
