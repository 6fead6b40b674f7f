#pragma once
// RUDP segment model.
//
// Follows the shape of draft-ietf-sigtran-reliable-udp-00: SYN handshake,
// sequence-numbered DATA, cumulative ACK with extended (selective) acks,
// NUL keepalive, RST teardown — extended with the paper's adaptive
// reliability: a per-segment marked/unmarked bit and an ADVANCE segment (in
// the spirit of PR-SCTP forward-TSN) that tells the receiver which unmarked
// sequence numbers the sender has abandoned.
//
// Segments exist as structs in simulation (only sizes hit the simulated
// wire) and serialize to a real byte format via codec.hpp for the UDP-socket
// backend. Payload bytes are virtual in simulation: `payload_bytes` is the
// length the wire accounts for.

#include <cstdint>
#include <string>
#include <vector>

#include "iq/attr/list.hpp"
#include "iq/common/inline_vec.hpp"
#include "iq/common/time.hpp"
#include "iq/net/packet.hpp"
#include "iq/rudp/seq.hpp"

namespace iq::rudp {

enum class SegmentType : std::uint8_t {
  Syn = 1,
  SynAck = 2,
  Data = 3,
  Ack = 4,
  Advance = 5,
  Nul = 6,
  Rst = 7,
  Parity = 8,
};

/// Wire-valid type range — the single source of truth for codec validation
/// and fuzz tests. Keep in sync when adding segment types.
inline constexpr std::uint8_t kSegmentTypeMin =
    static_cast<std::uint8_t>(SegmentType::Syn);
inline constexpr std::uint8_t kSegmentTypeMax =
    static_cast<std::uint8_t>(SegmentType::Parity);

const char* segment_type_name(SegmentType t);

/// A sequence abandoned by the sender, with the message it belonged to and
/// that message's fragment count, so the receiver can finalize partially- or
/// fully-skipped messages as dropped exactly once.
struct SkippedSeq {
  WireSeq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_count = 1;
  friend bool operator==(const SkippedSeq&, const SkippedSeq&) = default;
};

/// One DATA segment covered by a PARITY group: enough metadata to
/// reconstruct the segment at the receiver when it is the group's only
/// missing member (the parity payload is the XOR of the member payloads; a
/// member's attrs ride the descriptor so a recovered first fragment keeps
/// its in-band attributes).
struct FecMember {
  WireSeq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  std::int32_t payload_bytes = 0;
  attr::AttrList attrs;
  friend bool operator==(const FecMember&, const FecMember&) = default;
};

// Small-buffer list types for the per-segment containers. Inline capacities
// are sized to the protocol's steady-state caps so segment copies through
// the sim wires and object pools never allocate: eacks spill only past 16
// out-of-order holes per ack (connections that must never spill set
// max_eacks_per_ack accordingly), skip batches past 8 abandoned sequences.
using EackList = iq::InlineVec<WireSeq, 16>;
using SkippedList = iq::InlineVec<SkippedSeq, 8>;
// PARITY's member list lives out of line: only PARITY segments fill it, and
// inline it would make every segment (every simulated packet body, every
// pooled block) pay for FecMembers it never holds. A PARITY allocates its
// list once; the encoder reserves the group size when a group opens.
using FecMemberList = std::vector<FecMember>;

struct Segment : net::PacketBody {
  SegmentType type = SegmentType::Data;
  std::uint32_t conn_id = 0;

  // Data.
  WireSeq seq = 0;
  std::uint32_t msg_id = 0;
  std::uint16_t frag_index = 0;
  std::uint16_t frag_count = 1;
  bool marked = true;
  /// Third reliability class: never skipped, protected by XOR parity groups;
  /// the sender defers fast retransmission to give recovery a chance.
  bool fec_protected = false;
  std::int32_t payload_bytes = 0;

  // Ack.
  WireSeq cum_ack = 0;               ///< next expected sequence
  EackList eacks;                    ///< out-of-order sequences held
  std::uint32_t rwnd_packets = 0;    ///< advertised receive window
  /// Echo of the sender timestamp that triggered this ack (µs since run
  /// start, 0 = none) — RTT measurement without Karn ambiguity.
  std::uint64_t ts_echo_us = 0;

  // Advance.
  SkippedList skipped;

  // Parity: XOR group descriptor; payload_bytes is the parity payload
  // length (the largest member payload).
  std::uint32_t fec_group = 0;
  FecMemberList fec_members;

  // Handshake.
  double recv_loss_tolerance = 0.0;  ///< SynAck: receiver's tolerance

  /// Sender clock at transmission, µs since run start (also the ts that
  /// ts_echo_us echoes back).
  std::uint64_t ts_us = 0;

  /// Optional in-band quality attributes (first fragment of a message).
  attr::AttrList attrs;

  /// Header size on the wire (excl. payload, excl. UDP/IP encapsulation).
  std::int64_t header_bytes() const;
  /// Full wire footprint: header + payload + UDP/IP.
  std::int64_t wire_bytes() const {
    return header_bytes() + payload_bytes + net::kUdpIpHeaderBytes;
  }

  std::string describe() const;
};

}  // namespace iq::rudp
