#include "iq/fec/group.hpp"

#include <algorithm>

#include "iq/common/check.hpp"

namespace iq::fec {

// --------------------------------------------------------------- encoder --

FecEncoder::FecEncoder(FecConfig cfg) : cfg_(cfg) {
  IQ_CHECK(cfg_.group_size >= 1);
  IQ_CHECK(cfg_.interleave >= 1);
  lanes_.resize(cfg_.interleave);
}

void FecEncoder::set_group_size(std::uint16_t k) {
  IQ_CHECK(k >= 1);
  cfg_.group_size = k;
}

std::optional<rudp::Segment> FecEncoder::add(const rudp::Segment& data) {
  Lane& lane = lanes_[next_lane_];
  next_lane_ = (next_lane_ + 1) % lanes_.size();

  if (lane.members.empty()) {
    lane.group_id = next_group_++;
    lane.target = std::max<std::uint16_t>(1, cfg_.group_size);
    lane.parity_bytes = 0;
    lane.members.reserve(lane.target);  // the PARITY's one allocation
  }
  rudp::FecMember m;
  m.seq = data.seq;
  m.msg_id = data.msg_id;
  m.frag_index = data.frag_index;
  m.frag_count = data.frag_count;
  m.payload_bytes = data.payload_bytes;
  m.attrs = data.attrs;
  lane.parity_bytes = std::max(lane.parity_bytes, data.payload_bytes);
  lane.members.push_back(std::move(m));

  if (lane.members.size() >= lane.target) return close(lane);
  return std::nullopt;
}

std::vector<rudp::Segment> FecEncoder::flush() {
  std::vector<rudp::Segment> out;
  for (Lane& lane : lanes_) {
    if (!lane.members.empty()) out.push_back(close(lane));
  }
  return out;
}

std::size_t FecEncoder::open_groups() const {
  std::size_t n = 0;
  for (const Lane& lane : lanes_) {
    if (!lane.members.empty()) ++n;
  }
  return n;
}

rudp::Segment FecEncoder::close(Lane& lane) {
  rudp::Segment p;
  p.type = rudp::SegmentType::Parity;
  p.fec_protected = true;
  p.fec_group = lane.group_id;
  p.fec_members = std::move(lane.members);
  p.payload_bytes = lane.parity_bytes;
  lane.members.clear();
  ++groups_closed_;
  return p;
}

// --------------------------------------------------------------- decoder --

namespace {

/// Split `members` into have/missing under the predicate; returns indices
/// of the missing members.
std::vector<std::size_t> missing_members(
    const std::vector<rudp::RecvSegment>& members,
    const FecDecoder::HaveFn& have) {
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (!have(members[i].seq)) missing.push_back(i);
  }
  return missing;
}

}  // namespace

std::vector<rudp::RecvSegment> FecDecoder::on_parity(
    std::uint32_t group_id, std::vector<rudp::RecvSegment> members,
    const HaveFn& have) {
  ++parities_seen_;
  std::vector<rudp::RecvSegment> out;
  const auto missing = missing_members(members, have);
  if (missing.empty()) {
    held_.erase(group_id);  // duplicate parity for a settled group
    return out;
  }
  if (missing.size() == 1) {
    ++recovered_;
    out.push_back(std::move(members[missing.front()]));
    held_.erase(group_id);
    return out;
  }
  // More than one member missing: XOR cannot reconstruct yet. Hold the
  // group — a reordered late arrival may make it recoverable.
  held_[group_id] = std::move(members);
  return out;
}

std::vector<rudp::RecvSegment> FecDecoder::on_data(rudp::Seq seq,
                                                   const HaveFn& have) {
  std::vector<rudp::RecvSegment> out;
  for (auto it = held_.begin(); it != held_.end();) {
    auto& members = it->second;
    const bool contains =
        std::any_of(members.begin(), members.end(),
                    [seq](const rudp::RecvSegment& m) { return m.seq == seq; });
    if (!contains) {
      ++it;
      continue;
    }
    const auto missing = missing_members(members, have);
    if (missing.empty()) {
      it = held_.erase(it);
    } else if (missing.size() == 1) {
      ++recovered_;
      out.push_back(std::move(members[missing.front()]));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

void FecDecoder::prune_below(rudp::Seq cum) {
  for (auto it = held_.begin(); it != held_.end();) {
    const auto& members = it->second;
    const bool stale =
        std::all_of(members.begin(), members.end(),
                    [cum](const rudp::RecvSegment& m) { return m.seq < cum; });
    it = stale ? held_.erase(it) : std::next(it);
  }
}

}  // namespace iq::fec
