#include "iq/net/network.hpp"

#include <deque>
#include <limits>

#include "iq/common/check.hpp"

namespace iq::net {

Node& Network::add_node(const std::string& name) {
  const NodeId id = node_id_base_ + static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, name));
  return *nodes_.back();
}

Link& Network::add_link(Node& from, Node& to, const LinkConfig& cfg) {
  links_.push_back(std::make_unique<Link>(
      sim_, from.name() + "->" + to.name(), cfg, to));
  edges_.push_back(Edge{from.id(), to.id(), links_.back().get()});
  return *links_.back();
}

void Network::add_duplex_link(Node& a, Node& b, const LinkConfig& cfg) {
  add_link(a, b, cfg);
  add_link(b, a, cfg);
}

Link& Network::add_portal_link(Node& from, PacketSink& sink,
                               const std::string& name,
                               const LinkConfig& cfg) {
  links_.push_back(std::make_unique<Link>(
      sim_, from.name() + "->" + name, cfg, sink));
  // Deliberately not an Edge: the sink is outside this network's node set,
  // so compute_routes() must not see it.
  return *links_.back();
}

void Network::compute_routes() {
  // Node ids are node_id_base_ + local index; all graph arrays use the
  // local index.
  const std::size_t n = nodes_.size();
  const auto li = [this](NodeId id) {
    return static_cast<std::size_t>(id - node_id_base_);
  };
  // Adjacency: for each node, outgoing edges.
  std::vector<std::vector<const Edge*>> adj(n);
  for (const Edge& e : edges_) adj[li(e.from)].push_back(&e);

  // For each destination, BFS on the reversed graph to find, for every
  // source, the first-hop link of a shortest path.
  std::vector<std::vector<const Edge*>> radj(n);
  for (const Edge& e : edges_) radj[li(e.to)].push_back(&e);

  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::vector<Link*>> next_hop(n, std::vector<Link*>(n, nullptr));
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::vector<std::uint32_t> dist(n, kInf);
    std::deque<std::size_t> bfs;
    dist[dst] = 0;
    bfs.push_back(dst);
    while (!bfs.empty()) {
      std::size_t cur = bfs.front();
      bfs.pop_front();
      for (const Edge* e : radj[cur]) {
        if (dist[li(e->from)] == kInf) {
          dist[li(e->from)] = dist[cur] + 1;
          bfs.push_back(li(e->from));
        }
      }
    }
    // First hop at each source: any outgoing edge that decreases distance.
    for (std::size_t src = 0; src < n; ++src) {
      if (src == dst || dist[src] == kInf) continue;
      for (const Edge* e : adj[src]) {
        if (dist[li(e->to)] != kInf && dist[li(e->to)] + 1 == dist[src]) {
          next_hop[src][dst] = e->link;
          break;
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i]->set_routes(node_id_base_, std::move(next_hop[i]));
  }
}

PacketPtr Network::make_packet(Endpoint src, Endpoint dst, std::uint32_t flow,
                               std::int64_t wire_bytes,
                               std::shared_ptr<const PacketBody> body,
                               bool corrupted) {
  IQ_CHECK(wire_bytes > 0);
  auto p = packet_pool_.make();
  p->id = next_packet_id_++;
  p->src = src;
  p->dst = dst;
  p->flow = flow;
  p->wire_bytes = wire_bytes;
  p->created = sim_.now();
  p->corrupted = corrupted;
  p->body = std::move(body);
  return p;
}

Node& Network::node(NodeId id) {
  IQ_CHECK(id >= node_id_base_ && id - node_id_base_ < nodes_.size());
  return *nodes_[id - node_id_base_];
}

}  // namespace iq::net
