// Tests for the wire layer itself: LossyWirePair delay semantics,
// drop/duplicate/reorder statistics and determinism, and SimWire binding on
// the simulated network.

#include <gtest/gtest.h>

#include <vector>

#include "iq/net/dumbbell.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"
#include "iq/wire/sim_wire.hpp"

namespace iq::wire {
namespace {

rudp::Segment data_seg(rudp::WireSeq seq) {
  rudp::Segment s;
  s.type = rudp::SegmentType::Data;
  s.conn_id = 1;
  s.seq = seq;
  s.payload_bytes = 100;
  return s;
}

TEST(LossyWireTest, DeliversAfterExactDelay) {
  sim::Simulator sim;
  LossyWirePair pair(sim, {.one_way_delay = Duration::millis(15)});
  std::vector<std::int64_t> arrivals;
  pair.b().set_receiver([&](const rudp::Segment&) {
    arrivals.push_back(sim.now().ns());
  });
  pair.a().send(data_seg(1));
  sim.after(Duration::millis(5), [&] { pair.a().send(data_seg(2)); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], Duration::millis(15).ns());
  EXPECT_EQ(arrivals[1], Duration::millis(20).ns());
  EXPECT_EQ(pair.carried(), 2u);
}

TEST(LossyWireTest, BothDirectionsIndependent) {
  sim::Simulator sim;
  LossyWirePair pair(sim, {.one_way_delay = Duration::millis(1)});
  int at_a = 0, at_b = 0;
  pair.a().set_receiver([&](const rudp::Segment&) { ++at_a; });
  pair.b().set_receiver([&](const rudp::Segment&) { ++at_b; });
  pair.a().send(data_seg(1));
  pair.b().send(data_seg(2));
  pair.b().send(data_seg(3));
  sim.run();
  EXPECT_EQ(at_b, 1);
  EXPECT_EQ(at_a, 2);
}

TEST(LossyWireTest, ZeroConfigIsLossless) {
  sim::Simulator sim;
  LossyWirePair pair(sim, {});
  int received = 0;
  pair.b().set_receiver([&](const rudp::Segment&) { ++received; });
  for (int i = 0; i < 100; ++i) pair.a().send(data_seg(i));
  sim.run();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(pair.dropped(), 0u);
  EXPECT_EQ(pair.duplicated(), 0u);
}

TEST(LossyWireTest, DropRateApproximatesConfig) {
  sim::Simulator sim;
  LossyConfig cfg;
  cfg.drop_probability = 0.3;
  cfg.seed = 5;
  LossyWirePair pair(sim, cfg);
  int received = 0;
  pair.b().set_receiver([&](const rudp::Segment&) { ++received; });
  const int n = 5000;
  for (int i = 0; i < n; ++i) pair.a().send(data_seg(i));
  sim.run();
  EXPECT_NEAR(static_cast<double>(pair.dropped()) / n, 0.3, 0.03);
  EXPECT_EQ(received, n - static_cast<int>(pair.dropped()));
}

TEST(LossyWireTest, DuplicationDeliversTwice) {
  sim::Simulator sim;
  LossyConfig cfg;
  cfg.duplicate_probability = 0.5;
  cfg.seed = 9;
  LossyWirePair pair(sim, cfg);
  int received = 0;
  pair.b().set_receiver([&](const rudp::Segment&) { ++received; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) pair.a().send(data_seg(i));
  sim.run();
  EXPECT_EQ(received, n + static_cast<int>(pair.duplicated()));
  EXPECT_NEAR(static_cast<double>(pair.duplicated()) / n, 0.5, 0.05);
}

TEST(LossyWireTest, ReorderJitterActuallyReorders) {
  sim::Simulator sim;
  LossyConfig cfg;
  cfg.reorder_jitter = Duration::millis(50);
  cfg.seed = 11;
  LossyWirePair pair(sim, cfg);
  std::vector<rudp::WireSeq> order;
  pair.b().set_receiver([&](const rudp::Segment& s) { order.push_back(s.seq); });
  for (int i = 0; i < 200; ++i) pair.a().send(data_seg(i));
  sim.run();
  ASSERT_EQ(order.size(), 200u);
  int inversions = 0;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) ++inversions;
  }
  EXPECT_GT(inversions, 10);
}

TEST(LossyWireTest, DeterministicForSeed) {
  auto run = [] {
    sim::Simulator sim;
    LossyConfig cfg;
    cfg.drop_probability = 0.2;
    cfg.duplicate_probability = 0.1;
    cfg.reorder_jitter = Duration::millis(10);
    cfg.seed = 99;
    LossyWirePair pair(sim, cfg);
    std::vector<rudp::WireSeq> order;
    pair.b().set_receiver(
        [&](const rudp::Segment& s) { order.push_back(s.seq); });
    for (int i = 0; i < 500; ++i) pair.a().send(data_seg(i));
    sim.run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(LossyWireTest, MidRunDropChange) {
  sim::Simulator sim;
  LossyWirePair pair(sim, {});
  int received = 0;
  pair.b().set_receiver([&](const rudp::Segment&) { ++received; });
  for (int i = 0; i < 50; ++i) pair.a().send(data_seg(i));
  sim.run();
  EXPECT_EQ(received, 50);
  pair.set_drop_probability(1.0);
  for (int i = 0; i < 50; ++i) pair.a().send(data_seg(i));
  sim.run();
  EXPECT_EQ(received, 50);
  EXPECT_EQ(pair.dropped(), 50u);
}

TEST(SimWireTest, CarriesSegmentsThroughNetwork) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Dumbbell db(network, {.pairs = 1});
  SimWire a(network, {db.left(0).id(), 10}, {db.right(0).id(), 10}, 1);
  SimWire b(network, {db.right(0).id(), 10}, {db.left(0).id(), 10}, 1);
  std::vector<rudp::WireSeq> got;
  b.set_receiver([&](const rudp::Segment& s) { got.push_back(s.seq); });
  for (int i = 0; i < 10; ++i) a.send(data_seg(i));
  sim.run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], static_cast<unsigned>(i));
  EXPECT_EQ(a.sent(), 10u);
  EXPECT_EQ(b.received(), 10u);
}

TEST(SimWireTest, WireBytesChargedToLinks) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Dumbbell db(network, {.pairs = 1});
  SimWire a(network, {db.left(0).id(), 10}, {db.right(0).id(), 10}, 1);
  SimWire b(network, {db.right(0).id(), 10}, {db.left(0).id(), 10}, 1);
  b.set_receiver([](const rudp::Segment&) {});
  rudp::Segment seg = data_seg(1);
  a.send(seg);
  sim.run();
  EXPECT_EQ(db.bottleneck().transmitted_bytes(), seg.wire_bytes());
}

TEST(SimWireTest, UnbindsOnDestruction) {
  sim::Simulator sim;
  net::Network network(sim);
  net::Dumbbell db(network, {.pairs = 1});
  {
    SimWire a(network, {db.left(0).id(), 10}, {db.right(0).id(), 10}, 1);
  }
  // Port free again: rebinding must not crash or double-deliver.
  SimWire a2(network, {db.left(0).id(), 10}, {db.right(0).id(), 10}, 1);
  int got = 0;
  a2.set_receiver([&](const rudp::Segment&) { ++got; });
  SimWire b(network, {db.right(0).id(), 10}, {db.left(0).id(), 10}, 1);
  b.send(data_seg(5));
  sim.run();
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace iq::wire
