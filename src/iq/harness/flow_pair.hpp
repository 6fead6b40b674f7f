#pragma once
// FlowPair: one simulated IQ-RUDP connection pair — a client and a server
// SimWire on mirrored endpoints under one flow label, and the connection
// over each. Every harness that builds a simulated flow builds it here.
//
// Connections hold references to their wires, so the wires are declared
// first and outlive them. The client is built before the server, the order
// perfbench/table1.cpp follows when it rebuilds the Table-1 run from public
// parts.

#include <cstdint>

#include "iq/core/iq_connection.hpp"
#include "iq/wire/sim_wire.hpp"

namespace iq::harness {

struct FlowPair {
  FlowPair(net::Network& net, net::Endpoint client_ep,
           net::Endpoint server_ep, std::uint32_t flow,
           const rudp::RudpConfig& client_cfg,
           const rudp::RudpConfig& server_cfg,
           const core::CoordinatorConfig& ccfg)
      : client_wire(net, client_ep, server_ep, flow),
        server_wire(net, server_ep, client_ep, flow),
        client(client_wire, client_cfg, rudp::Role::Client, ccfg),
        server(server_wire, server_cfg, rudp::Role::Server, ccfg) {}

  wire::SimWire client_wire;
  wire::SimWire server_wire;
  core::IqRudpConnection client;
  core::IqRudpConnection server;
};

}  // namespace iq::harness
