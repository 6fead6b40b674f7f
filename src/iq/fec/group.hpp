#pragma once
// XOR parity groups — the "recover without retransmitting" reliability
// class (FlEC-style forward error correction on top of RUDP).
//
// The sender enrolls every freshly transmitted FEC-protected DATA segment
// into an open group; when a group reaches its configured size k (or is
// flushed on idle) a PARITY segment is emitted carrying the group's member
// descriptors plus a parity payload (the XOR of the member payloads — sized
// as the largest member, virtual in simulation). Interleaving depth d
// round-robins consecutive segments over d open groups so a loss burst of
// up to d consecutive segments stays recoverable (one loss per group).
//
// The receiver holds PARITY segments whose groups still miss more than one
// member; as soon as exactly one member is missing, that member is
// reconstructed from its descriptor and handed to the reassembly buffer as
// if the DATA segment had arrived. Parity is fire-and-forget: it is never
// acknowledged, retransmitted, or sequenced.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "iq/rudp/recv_buffer.hpp"
#include "iq/rudp/segment.hpp"

namespace iq::fec {

struct FecConfig {
  /// Members per parity group (k): redundancy overhead ≈ 1/k.
  std::uint16_t group_size = 4;
  /// Open groups filled round-robin; > 1 tolerates short loss bursts.
  std::uint16_t interleave = 1;
};

class FecEncoder {
 public:
  explicit FecEncoder(FecConfig cfg = {});

  /// Enroll a freshly transmitted FEC-protected DATA segment; returns the
  /// PARITY segment when this completes its group. Retransmissions must not
  /// be enrolled (the original descriptor still covers them).
  std::optional<rudp::Segment> add(const rudp::Segment& data);

  /// Close every non-empty group (idle flush); partial groups still protect
  /// the members they cover.
  std::vector<rudp::Segment> flush();

  /// Retune the group size; applies to groups opened from now on.
  void set_group_size(std::uint16_t k);
  std::uint16_t group_size() const { return cfg_.group_size; }
  /// Parity overhead fraction at the current group size.
  double redundancy() const { return 1.0 / cfg_.group_size; }

  std::size_t open_groups() const;
  std::uint64_t groups_closed() const { return groups_closed_; }

 private:
  struct Lane {
    std::uint32_t group_id = 0;
    std::uint16_t target = 0;  ///< group size captured when the group opened
    /// Moves straight into Segment::fec_members when the group closes, so
    /// an idle lane holds no capacity; reserved to `target` on opening.
    rudp::FecMemberList members;
    std::int32_t parity_bytes = 0;  ///< max member payload so far
  };

  rudp::Segment close(Lane& lane);

  FecConfig cfg_;
  std::vector<Lane> lanes_;
  std::size_t next_lane_ = 0;
  std::uint32_t next_group_ = 1;
  std::uint64_t groups_closed_ = 0;
};

class FecDecoder {
 public:
  /// Receiver-side predicate: does the reassembly buffer already account
  /// for this (unwrapped) sequence — received, recovered, or finalized?
  using HaveFn = std::function<bool(rudp::Seq)>;

  /// Digest a PARITY segment whose member seqs were already unwrapped into
  /// RecvSegments by the caller. Returns the reconstructed segment when
  /// exactly one member is missing; holds the group while more are missing.
  std::vector<rudp::RecvSegment> on_parity(
      std::uint32_t group_id, std::vector<rudp::RecvSegment> members,
      const HaveFn& have);

  /// A DATA segment arrived (possibly late, after its parity): re-check any
  /// held group it belongs to. Returns newly reconstructable segments.
  std::vector<rudp::RecvSegment> on_data(rudp::Seq seq, const HaveFn& have);

  /// Drop held groups entirely below the cumulative point (already
  /// finalized by the reassembly buffer).
  void prune_below(rudp::Seq cum);

  std::size_t held_groups() const { return held_.size(); }
  std::uint64_t parities_seen() const { return parities_seen_; }
  std::uint64_t recovered() const { return recovered_; }

 private:
  std::map<std::uint32_t, std::vector<rudp::RecvSegment>> held_;
  std::uint64_t parities_seen_ = 0;
  std::uint64_t recovered_ = 0;
};

}  // namespace iq::fec
