// Tests for the simulated network: queues, links, routing, dumbbell.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "iq/net/dumbbell.hpp"
#include "iq/net/network.hpp"
#include "iq/net/parking_lot.hpp"
#include "iq/net/sinks.hpp"

namespace iq::net {
namespace {

PacketPtr make_test_packet(Network& net, Endpoint src, Endpoint dst,
                           std::int64_t bytes, std::uint32_t flow = 1) {
  return net.make_packet(src, dst, flow, bytes);
}

// ---------------------------------------------------------------- Queue ---

TEST(DropTailQueueTest, FifoOrder) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(10'000);
  auto p1 = make_test_packet(net, {0, 1}, {1, 1}, 100);
  auto p2 = make_test_packet(net, {0, 1}, {1, 1}, 200);
  ASSERT_TRUE(q.enqueue(p1));
  ASSERT_TRUE(q.enqueue(p2));
  EXPECT_EQ(q.bytes(), 300);
  EXPECT_EQ(q.dequeue()->id, p1->id);
  EXPECT_EQ(q.dequeue()->id, p2->id);
  EXPECT_TRUE(q.empty());
}

TEST(DropTailQueueTest, DropsWhenFull) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(250);
  EXPECT_TRUE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 200)));
  EXPECT_FALSE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 100)));
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.dropped_bytes(), 100);
  // A packet that fits still gets in.
  EXPECT_TRUE(q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 50)));
}

TEST(DropTailQueueTest, TracksPeakOccupancy) {
  sim::Simulator sim;
  Network net(sim);
  DropTailQueue q(1000);
  q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 400));
  q.enqueue(make_test_packet(net, {0, 1}, {1, 1}, 400));
  q.dequeue();
  EXPECT_EQ(q.max_bytes_seen(), 800);
  EXPECT_EQ(q.bytes(), 400);
}

// ----------------------------------------------------------------- Link ---

TEST(LinkTest, SerializationPlusPropagationDelay) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  // 12 Mb/s, 3 ms propagation: 1500 B = 1 ms serialization.
  Link link(sim, "l", {.rate_bps = 12'000'000,
                       .propagation = Duration::millis(3),
                       .queue_capacity_bytes = 100'000},
            sink);
  link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(sim.now().ns(), Duration::millis(4).ns());
}

TEST(LinkTest, BackToBackPacketsSerialize) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  Link link(sim, "l", {.rate_bps = 12'000'000,
                       .propagation = Duration::zero(),
                       .queue_capacity_bytes = 100'000},
            sink);
  for (int i = 0; i < 5; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  }
  sim.run();
  EXPECT_EQ(sink.packets(), 5u);
  // Five 1 ms transmissions, sequential.
  EXPECT_EQ(sim.now().ns(), Duration::millis(5).ns());
}

TEST(LinkTest, QueueOverflowDrops) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  // Queue only fits 2 x 1500 while one is transmitting.
  Link link(sim, "l", {.rate_bps = 1'000'000,
                       .propagation = Duration::zero(),
                       .queue_capacity_bytes = 3000},
            sink);
  for (int i = 0; i < 10; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1500));
  }
  sim.run();
  // 1 transmitting + 2 queued delivered; the rest dropped.
  EXPECT_EQ(sink.packets(), 3u);
  EXPECT_EQ(link.queue().dropped(), 7u);
}

TEST(LinkTest, ThroughputMatchesRate) {
  sim::Simulator sim;
  Network net(sim);
  CountingSink sink;
  Link link(sim, "l", {.rate_bps = 20'000'000,
                       .propagation = Duration::millis(1),
                       .queue_capacity_bytes = 10'000'000},
            sink);
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    link.deliver(make_test_packet(net, {0, 1}, {1, 1}, 1400));
  }
  sim.run();
  const double expected_s = n * 1400 * 8.0 / 20e6 + 0.001;
  EXPECT_NEAR(sim.now().to_seconds(), expected_s, 1e-6);
}

// ------------------------------------------------------ Link RNG streams ---
//
// Golden dropped / corrupted / duplicated packet indices of seeded links.
// A link creates each generator only when its probability first becomes
// non-zero; these pins hold every stream to the sequence a generator
// created with the link would draw.

struct StreamProbe {
  sim::Simulator sim;
  Network net{sim};
  std::vector<int> arrivals;  ///< deliveries per packet index
  std::vector<int> corrupted;
  CallbackSink sink{[this](PacketPtr p) {
    // Packet ids count from 1 in send order.
    const auto i = static_cast<std::size_t>(p->id - 1);
    ++arrivals[i];
    if (p->corrupted) corrupted.push_back(static_cast<int>(i));
  }};
  Link link;

  explicit StreamProbe(LinkConfig cfg) : link(sim, "l", cfg, sink) {}

  /// Send `n` more packets back to back and run until all are through.
  void send(int n) {
    for (int k = 0; k < n; ++k) {
      arrivals.push_back(0);
      link.deliver(net.make_packet({0, 1}, {1, 1}, 1, 1000));
    }
    sim.run();
  }

  std::vector<int> indices_with(int count) const {
    std::vector<int> out;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      if (arrivals[i] == count) out.push_back(static_cast<int>(i));
    }
    return out;
  }
  std::vector<int> dropped() const { return indices_with(0); }
  std::vector<int> duplicated() const { return indices_with(2); }
};

LinkConfig stream_link(double drop_probability, std::uint64_t seed) {
  return {.rate_bps = 100'000'000,
          .propagation = Duration::millis(1),
          .queue_capacity_bytes = 10'000'000,
          .drop_probability = drop_probability,
          .drop_seed = seed};
}

// 300 packets at drop_probability 0.1, drop_seed 7.
const std::vector<int> kSeed7Drops = {
    5,   22,  23,  31,  44,  55,  57,  59,  60,  69,  76,  79,  86,  99, 100,
    101, 105, 111, 123, 145, 152, 153, 199, 203, 233, 246, 253, 270, 287, 292};

TEST(LinkStreamTest, DropStreamFromConstructionIsPinned) {
  StreamProbe probe(stream_link(0.1, 7));
  probe.send(300);
  EXPECT_EQ(probe.dropped(), kSeed7Drops);
  EXPECT_EQ(probe.link.random_drops(), kSeed7Drops.size());
}

TEST(LinkStreamTest, FaultStreamsWithConstructionDropArePinned) {
  StreamProbe probe(stream_link(0.1, 7));
  probe.link.set_corrupt_probability(0.05);
  probe.link.set_duplicate_probability(0.05);
  probe.send(300);
  // The fault stream is separate: the drop stream is unperturbed.
  EXPECT_EQ(probe.dropped(), kSeed7Drops);
  EXPECT_EQ(probe.corrupted,
            (std::vector<int>{15, 21, 33, 56, 63, 75, 89, 103, 124, 125, 129,
                              135, 138, 139, 146, 188, 204, 237, 248, 257,
                              280}));
  EXPECT_EQ(probe.duplicated(),
            (std::vector<int>{9, 27, 68, 91, 130, 155, 189, 190, 196, 214, 221,
                              273}));
}

TEST(LinkStreamTest, StreamsSwitchedOnMidRunArePinned) {
  StreamProbe probe(stream_link(0.0, 11));
  probe.send(100);  // clean: no generator draws
  EXPECT_TRUE(probe.dropped().empty());
  probe.link.set_drop_probability(0.1);
  probe.send(100);
  probe.link.set_corrupt_probability(0.05);
  probe.link.set_duplicate_probability(0.05);
  probe.send(100);
  // Off and on again: the drop stream resumes where it stopped.
  probe.link.set_drop_probability(0.0);
  probe.send(50);
  probe.link.set_drop_probability(0.2);
  probe.send(50);
  EXPECT_EQ(probe.dropped(),
            (std::vector<int>{104, 111, 117, 127, 128, 139, 146, 149, 158,
                              195, 202, 206, 228, 235, 242, 245, 247, 278,
                              290, 355, 356, 358, 374, 386, 390, 391}));
  EXPECT_EQ(probe.corrupted,
            (std::vector<int>{209, 229, 261, 267, 271, 288, 333, 334, 393}));
  EXPECT_EQ(probe.duplicated(),
            (std::vector<int>{200, 207, 308, 309, 314, 319, 327, 339, 345, 353,
                              354, 368, 394}));
}

// -------------------------------------------------------- Node routing ----

TEST(NodeTest, LocalDeliveryByPort) {
  sim::Simulator sim;
  Network net(sim);
  Node& n = net.add_node("host");
  CountingSink sink;
  n.bind(5, &sink);
  n.deliver(make_test_packet(net, {9, 1}, {n.id(), 5}, 100));
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(n.delivered_local(), 1u);
}

TEST(NodeTest, UnboundPortDeadLetters) {
  sim::Simulator sim;
  Network net(sim);
  Node& n = net.add_node("host");
  n.deliver(make_test_packet(net, {9, 1}, {n.id(), 5}, 100));
  EXPECT_EQ(n.dead_lettered(), 1u);
}

TEST(NetworkTest, ComputeRoutesForwardsAcrossHops) {
  sim::Simulator sim;
  Network net(sim);
  Node& a = net.add_node("a");
  Node& r = net.add_node("r");
  Node& b = net.add_node("b");
  LinkConfig fast{.rate_bps = 100'000'000,
                  .propagation = Duration::millis(1),
                  .queue_capacity_bytes = 1'000'000};
  net.add_duplex_link(a, r, fast);
  net.add_duplex_link(r, b, fast);
  net.compute_routes();

  CountingSink sink;
  b.bind(7, &sink);
  a.send(make_test_packet(net, {a.id(), 7}, {b.id(), 7}, 500));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(r.forwarded(), 1u);
}

// Hop counts from every node to every other, by BFS over the links'
// "from->to" names: an oracle that shares nothing with compute_routes().
// -1 marks an unreachable pair.
std::vector<std::vector<int>> bfs_hops(const Network& net) {
  const std::size_t n = net.nodes().size();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(index.emplace(net.nodes()[i]->name(), i).second)
        << "node names must be unique for the oracle";
  }
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& link : net.links()) {
    const std::string& name = link->name();
    const std::size_t arrow = name.find("->");
    adj[index.at(name.substr(0, arrow))].push_back(
        index.at(name.substr(arrow + 2)));
  }
  std::vector<std::vector<int>> hops(n, std::vector<int>(n, -1));
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::size_t> frontier{src};
    hops[src][src] = 0;
    for (std::size_t k = 0; k < frontier.size(); ++k) {
      const std::size_t cur = frontier[k];
      for (const std::size_t next : adj[cur]) {
        if (hops[src][next] < 0) {
          hops[src][next] = hops[src][cur] + 1;
          frontier.push_back(next);
        }
      }
    }
  }
  return hops;
}

// For every ordered pair of nodes: one packet arrives, and the nodes
// forward it exactly (hops - 1) times between them.
void expect_routes_match_bfs(sim::Simulator& sim, Network& net) {
  const auto& nodes = net.nodes();
  const std::size_t n = nodes.size();
  const std::vector<std::vector<int>> hops = bfs_hops(net);
  std::vector<CountingSink> sinks(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i]->bind(7, &sinks[i]);
  const auto total_forwarded = [&] {
    std::uint64_t sum = 0;
    for (const auto& node : nodes) sum += node->forwarded();
    return sum;
  };
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      ASSERT_GT(hops[src][dst], 0) << "topology is not strongly connected";
      const std::uint64_t arrived = sinks[dst].packets();
      const std::uint64_t forwarded = total_forwarded();
      Node& from = *nodes[src];
      from.send(net.make_packet({from.id(), 7}, {nodes[dst]->id(), 7}, 1,
                                100));
      sim.run();
      EXPECT_EQ(sinks[dst].packets(), arrived + 1)
          << from.name() << " -> " << nodes[dst]->name();
      EXPECT_EQ(total_forwarded() - forwarded,
                static_cast<std::uint64_t>(hops[src][dst] - 1))
          << from.name() << " -> " << nodes[dst]->name();
    }
  }
  for (const auto& node : nodes) EXPECT_EQ(node->dead_lettered(), 0u);
}

TEST(RoutingTest, DumbbellRoutesEveryPairByShortestPath) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 3});
  expect_routes_match_bfs(sim, net);
}

TEST(RoutingTest, ParkingLotRoutesEveryPairByShortestPath) {
  sim::Simulator sim;
  Network net(sim);
  ParkingLot lot(net, {.hops = 3});
  expect_routes_match_bfs(sim, net);
}

TEST(RoutingTest, StarRoutesEveryPairByShortestPath) {
  // A CityScale site: repeater, router, N subscribers, on an offset id
  // range as sharded scenarios use.
  sim::Simulator sim;
  Network net(sim, /*node_id_base=*/300'000);
  const LinkConfig cfg{.rate_bps = 10'000'000,
                       .propagation = Duration::millis(1),
                       .queue_capacity_bytes = 100'000};
  Node& rep = net.add_node("rep");
  Node& router = net.add_node("router");
  net.add_duplex_link(rep, router, cfg);
  for (int i = 0; i < 6; ++i) {
    net.add_duplex_link(router, net.add_node("sub" + std::to_string(i)), cfg);
  }
  net.compute_routes();
  expect_routes_match_bfs(sim, net);
}

TEST(RoutingTest, OffNetworkDestinationTakesDefaultRouteOrDeadLetters) {
  sim::Simulator sim;
  Network net(sim, /*node_id_base=*/100);
  const LinkConfig cfg{.rate_bps = 10'000'000,
                       .propagation = Duration::millis(1),
                       .queue_capacity_bytes = 100'000};
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.add_duplex_link(a, b, cfg);
  net.compute_routes();
  CountingSink at_b;
  b.bind(7, &at_b);

  // Ids below and above this network's range.
  const Endpoint below{5, 7};
  const Endpoint above{100'000, 7};
  a.send(net.make_packet({a.id(), 7}, below, 1, 100));
  a.send(net.make_packet({a.id(), 7}, above, 1, 100));
  sim.run();
  EXPECT_EQ(a.dead_lettered(), 2u);

  CountingSink gateway;
  a.set_default_route(&net.add_portal_link(a, gateway, "gw", cfg));
  a.send(net.make_packet({a.id(), 7}, below, 1, 100));
  a.send(net.make_packet({a.id(), 7}, above, 1, 100));
  // An in-network destination still takes its computed route.
  a.send(net.make_packet({a.id(), 7}, {b.id(), 7}, 1, 100));
  sim.run();
  EXPECT_EQ(gateway.packets(), 2u);
  EXPECT_EQ(at_b.packets(), 1u);
  EXPECT_EQ(a.dead_lettered(), 2u);

  // Transit traffic too: a forwards an arriving off-network packet by its
  // default route; b, without one, dead-letters it.
  a.deliver(net.make_packet({b.id(), 7}, above, 1, 100));
  b.deliver(net.make_packet({a.id(), 7}, above, 1, 100));
  sim.run();
  EXPECT_EQ(gateway.packets(), 3u);
  EXPECT_EQ(a.forwarded(), 1u);
  EXPECT_EQ(b.dead_lettered(), 1u);
}

// ------------------------------------------------------------- Dumbbell ---

TEST(DumbbellTest, EndToEndRttMatchesConfig) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 2, .path_rtt = Duration::millis(30)});

  CountingSink sink;
  db.right(0).bind(7, &sink);
  TimePoint arrival;
  CallbackSink capture([&](PacketPtr) { arrival = sim.now(); });
  db.right(0).bind(7, &capture);

  db.left(0).send(
      make_test_packet(net, {db.left(0).id(), 7}, {db.right(0).id(), 7}, 100));
  sim.run();
  // One-way propagation is rtt/2 plus (tiny) serialization delays.
  EXPECT_GE((arrival - TimePoint::zero()).ms(), 14);
  EXPECT_LE((arrival - TimePoint::zero()).ms(), 17);
}

TEST(DumbbellTest, CrossTrafficSharesBottleneck) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 2});
  CountingSink s0, s1;
  db.right(0).bind(7, &s0);
  db.right(1).bind(7, &s1);
  db.left(0).send(
      make_test_packet(net, {db.left(0).id(), 7}, {db.right(0).id(), 7}, 100));
  db.left(1).send(
      make_test_packet(net, {db.left(1).id(), 7}, {db.right(1).id(), 7}, 100));
  sim.run();
  EXPECT_EQ(s0.packets(), 1u);
  EXPECT_EQ(s1.packets(), 1u);
  EXPECT_EQ(db.bottleneck().transmitted(), 2u);
}

TEST(DumbbellTest, ReverseBottleneckCarriesAcks) {
  sim::Simulator sim;
  Network net(sim);
  Dumbbell db(net, {.pairs = 1});
  CountingSink sink;
  db.left(0).bind(7, &sink);
  db.right(0).send(
      make_test_packet(net, {db.right(0).id(), 7}, {db.left(0).id(), 7}, 40));
  sim.run();
  EXPECT_EQ(sink.packets(), 1u);
  EXPECT_EQ(db.bottleneck_reverse().transmitted(), 1u);
}

}  // namespace
}  // namespace iq::net
