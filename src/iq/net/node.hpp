#pragma once
// Node: a host or router. Hosts bind local ports to sinks (sockets); routers
// forward by destination node id through the static next-hop table that
// Network::compute_routes() installs, indexed by the destination's local
// index in the node's Network, and otherwise by a default route. The same
// class serves both roles — a host with routes forwards, a router with bound
// ports delivers locally — mirroring how Emulab end hosts and delay nodes
// are all just machines.

#include <cstdint>
#include <string>
#include <vector>

#include "iq/net/link.hpp"
#include "iq/net/packet.hpp"

namespace iq::net {

class Node final : public PacketSink {
 public:
  Node(NodeId id, std::string name) : id_(id), name_(std::move(name)) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Attach a local sink to a port. Overwrites any existing binding.
  void bind(std::uint16_t port, PacketSink* sink);
  void unbind(std::uint16_t port);

  /// Fallback used when the computed routing table has no entry for the
  /// destination — the "default gateway". Lets a gateway node reach
  /// destinations outside its own Network (e.g. another shard's groups, via
  /// a portal link) without enumerating every remote node id.
  void set_default_route(Link* link) { default_route_ = link; }
  Link* default_route() const { return default_route_; }

  /// Inject a locally-originated packet (from a socket on this node).
  void send(PacketPtr packet);

  /// PacketSink: a packet arrived from a link.
  void deliver(PacketPtr packet) override;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t delivered_local() const { return delivered_local_; }
  std::uint64_t dead_lettered() const { return dead_lettered_; }

 private:
  friend class Network;  // installs the table compute_routes() computed

  struct Port {
    std::uint16_t port;
    PacketSink* sink;
  };

  /// `next_hop[i]` is the outgoing link toward node `base + i`, or null
  /// where there is none (this node itself, unreachable nodes).
  void set_routes(NodeId base, std::vector<Link*> next_hop);
  std::vector<Port>::iterator find_port(std::uint16_t port);
  void route_or_drop(PacketPtr packet);

  NodeId id_;
  std::string name_;
  std::vector<Port> ports_;  ///< sorted by port
  NodeId route_base_ = 0;
  std::vector<Link*> next_hop_;
  Link* default_route_ = nullptr;
  std::uint64_t forwarded_ = 0;
  std::uint64_t delivered_local_ = 0;
  std::uint64_t dead_lettered_ = 0;
};

}  // namespace iq::net
