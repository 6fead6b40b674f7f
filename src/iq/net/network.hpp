#pragma once
// Network: owner of nodes and links, route computation, packet factory.
//
// Topologies are built by adding nodes and (unidirectional) links, then
// calling compute_routes() which gives every node a dense next-hop table of
// shortest-path (hop-count) static routes — the equivalent of Emulab's
// static topology routing.

#include <memory>
#include <string>
#include <vector>

#include "iq/net/link.hpp"
#include "iq/net/node.hpp"
#include "iq/net/pool.hpp"
#include "iq/sim/simulator.hpp"

namespace iq::net {

class Network {
 public:
  /// `node_id_base` offsets every node id this network assigns. Sharded
  /// scenarios build one Network per group; giving each a disjoint id range
  /// keeps node ids globally unique, so a packet addressed to a remote
  /// group's node can never collide with a local id (Node::send's
  /// local-delivery shortcut keys on the id).
  explicit Network(sim::Simulator& sim, NodeId node_id_base = 0)
      : sim_(sim), node_id_base_(node_id_base) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Node& add_node(const std::string& name);
  /// Add a one-way link from `from` to `to`. Returns the link for stats.
  Link& add_link(Node& from, Node& to, const LinkConfig& cfg);
  /// Add a symmetric pair of links with identical configs.
  void add_duplex_link(Node& a, Node& b, const LinkConfig& cfg);

  /// Add a one-way link from `from` into an arbitrary sink that is NOT a
  /// node of this network — the egress half of a cross-shard portal. The
  /// link is excluded from route computation (make it the node's default
  /// route with Node::set_default_route). Zero propagation is typical:
  /// the portal itself accounts for cross-shard latency.
  Link& add_portal_link(Node& from, PacketSink& sink, const std::string& name,
                        const LinkConfig& cfg);

  /// Install hop-count shortest-path routes at every node (BFS per
  /// destination): each node gets one next-hop entry per node of this
  /// network, indexed by local index.
  void compute_routes();

  /// Create a packet stamped with a fresh id and the current sim time.
  /// Packets come from a freelist pool: steady-state traffic performs no
  /// heap allocation per packet. `corrupted` lets a portal re-materializing
  /// a packet from another shard carry the in-flight corruption flag over.
  PacketPtr make_packet(Endpoint src, Endpoint dst, std::uint32_t flow,
                        std::int64_t wire_bytes,
                        std::shared_ptr<const PacketBody> body = nullptr,
                        bool corrupted = false);

  PoolStats packet_pool_stats() const { return packet_pool_.stats(); }

  sim::Simulator& sim() { return sim_; }
  Node& node(NodeId id);
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  const std::vector<std::unique_ptr<Link>>& links() const { return links_; }

 private:
  struct Edge {
    NodeId from;
    NodeId to;
    Link* link;
  };

  sim::Simulator& sim_;
  NodeId node_id_base_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
  std::uint64_t next_packet_id_ = 1;
  ObjectPool<Packet> packet_pool_;
};

}  // namespace iq::net
