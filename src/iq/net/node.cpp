#include "iq/net/node.hpp"

#include <algorithm>

#include "iq/common/check.hpp"
#include "iq/common/log.hpp"

namespace iq::net {

std::vector<Node::Port>::iterator Node::find_port(std::uint16_t port) {
  return std::lower_bound(
      ports_.begin(), ports_.end(), port,
      [](const Port& p, std::uint16_t v) { return p.port < v; });
}

void Node::bind(std::uint16_t port, PacketSink* sink) {
  IQ_CHECK(sink != nullptr);
  auto it = find_port(port);
  if (it != ports_.end() && it->port == port) {
    it->sink = sink;
  } else {
    ports_.insert(it, Port{port, sink});
  }
}

void Node::unbind(std::uint16_t port) {
  auto it = find_port(port);
  if (it != ports_.end() && it->port == port) ports_.erase(it);
}

void Node::set_routes(NodeId base, std::vector<Link*> next_hop) {
  route_base_ = base;
  next_hop_ = std::move(next_hop);
}

void Node::send(PacketPtr packet) {
  if (packet->dst.node == id_) {
    deliver(std::move(packet));
    return;
  }
  route_or_drop(std::move(packet));
}

void Node::deliver(PacketPtr packet) {
  if (packet->dst.node != id_) {
    ++forwarded_;
    route_or_drop(std::move(packet));
    return;
  }
  auto it = find_port(packet->dst.port);
  if (it == ports_.end() || it->port != packet->dst.port) {
    ++dead_lettered_;
    log_debug("node ", name_, ": no sink on port ", packet->dst.port);
    return;
  }
  ++delivered_local_;
  it->sink->deliver(std::move(packet));
}

void Node::route_or_drop(PacketPtr packet) {
  // An id below the base wraps to a huge index, so one compare rejects
  // off-network ids on both sides of this network's range.
  const std::size_t i = packet->dst.node - route_base_;
  Link* link = i < next_hop_.size() ? next_hop_[i] : nullptr;
  if (link == nullptr) link = default_route_;
  if (link == nullptr) {
    ++dead_lettered_;
    log_debug("node ", name_, ": no route to ", packet->dst.node);
    return;
  }
  link->deliver(std::move(packet));
}

}  // namespace iq::net
