#pragma once
// Packet: the unit that flows through simulated links and queues.
//
// A packet carries addressing, a wire size (what queues and links account
// for), and an optional protocol-specific body (e.g. an RUDP segment or TCP
// header) as a shared immutable object. Payload contents are not materialized
// in simulation — only sizes matter to the network — which keeps multi-
// million-packet runs cheap.

#include <cstdint>
#include <memory>

#include "iq/common/time.hpp"

namespace iq::net {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffff;

struct Endpoint {
  NodeId node = kNoNode;
  std::uint16_t port = 0;
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// Base for protocol-specific packet bodies (RUDP segments, TCP headers).
struct PacketBody {
  virtual ~PacketBody() = default;
};

/// Per-packet fixed overhead we charge for UDP/IP encapsulation.
inline constexpr std::int64_t kUdpIpHeaderBytes = 28;

struct Packet {
  std::uint64_t id = 0;          ///< unique per network
  Endpoint src;
  Endpoint dst;
  std::uint32_t flow = 0;        ///< flow label
  std::int64_t wire_bytes = 0;   ///< total size on the wire, headers included
  TimePoint created;             ///< when the packet entered the network
  /// Set by fault injection: delivered with bit errors. Receivers must treat
  /// the body/payload as garbage — in simulation the wire layers reject it
  /// the way a real checksum would.
  bool corrupted = false;
  std::shared_ptr<const PacketBody> body;
};

using PacketPtr = std::shared_ptr<const Packet>;

/// Anything that accepts packets (link endpoint, local socket, sink app).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(PacketPtr packet) = 0;
};

}  // namespace iq::net
