#include "iq/rudp/codec.hpp"

#include <algorithm>

namespace iq::rudp {

namespace {
constexpr std::uint8_t kFlagMarked = 0x01;
constexpr std::uint8_t kFlagAttrs = 0x02;
constexpr std::uint8_t kFlagFec = 0x04;

bool valid_type(std::uint8_t t) {
  return t >= kSegmentTypeMin && t <= kSegmentTypeMax;
}

std::optional<SegmentView> fail(DecodeStatus why, DecodeStatus* status) {
  if (status != nullptr) *status = why;
  return std::nullopt;
}
}  // namespace

std::uint32_t segment_checksum(BytesView datagram) {
  // CRC over the datagram with the checksum field zeroed, so the stored
  // value doesn't feed its own computation.
  static constexpr std::uint8_t kZeros[4] = {0, 0, 0, 0};
  // Too short to even hold the field (never produced by encode, but tests
  // may probe): checksum over what's there.
  if (datagram.size() < kChecksumOffset + 4) return crc32(datagram);
  std::uint32_t s = kCrc32Init;
  s = crc32_update(s, datagram.subspan(0, kChecksumOffset));
  s = crc32_update(s, BytesView(kZeros, 4));
  s = crc32_update(s, datagram.subspan(kChecksumOffset + 4));
  return s ^ kCrc32Init;
}

void seal_segment(Bytes& datagram) {
  const std::uint32_t c = segment_checksum(datagram);
  for (int i = 0; i < 4; ++i) {
    datagram[kChecksumOffset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(c >> (24 - 8 * i));
  }
}

BytesView encode_segment_into(ByteWriter& w, const Segment& seg,
                              BytesView payload) {
  w.clear();
  // header_bytes() mirrors this format exactly, so one reservation covers
  // the whole datagram and the writer never reallocates.
  w.reserve(static_cast<std::size_t>(seg.header_bytes()) +
            ((seg.type == SegmentType::Data || seg.type == SegmentType::Parity)
                 ? static_cast<std::size_t>(std::max<std::int32_t>(
                       seg.payload_bytes, 0))
                 : 0));
  w.u16(kWireMagic);
  w.u8(static_cast<std::uint8_t>(seg.type));
  std::uint8_t flags = 0;
  if (seg.marked) flags |= kFlagMarked;
  if (!seg.attrs.empty()) flags |= kFlagAttrs;
  if (seg.fec_protected) flags |= kFlagFec;
  w.u8(flags);
  w.u32(0);  // checksum placeholder; sealed below once the bytes are final
  w.u32(seg.conn_id);
  w.u32(seg.seq);
  w.u32(seg.cum_ack);
  w.u32(seg.rwnd_packets);
  w.u64(seg.ts_us);
  w.u64(seg.ts_echo_us);

  switch (seg.type) {
    case SegmentType::Data:
      w.u32(seg.msg_id);
      w.u16(seg.frag_index);
      w.u16(seg.frag_count);
      w.u32(static_cast<std::uint32_t>(seg.payload_bytes));
      break;
    case SegmentType::Ack:
      w.u16(static_cast<std::uint16_t>(seg.eacks.size()));
      for (WireSeq e : seg.eacks) w.u32(e);
      break;
    case SegmentType::Advance:
      w.u16(static_cast<std::uint16_t>(seg.skipped.size()));
      for (const SkippedSeq& s : seg.skipped) {
        w.u32(s.seq);
        w.u32(s.msg_id);
        w.u16(s.frag_count);
      }
      break;
    case SegmentType::SynAck:
      w.f64(seg.recv_loss_tolerance);
      break;
    case SegmentType::Parity:
      w.u32(seg.fec_group);
      w.u32(static_cast<std::uint32_t>(seg.payload_bytes));
      w.u16(static_cast<std::uint16_t>(seg.fec_members.size()));
      for (const FecMember& m : seg.fec_members) {
        w.u32(m.seq);
        w.u32(m.msg_id);
        w.u16(m.frag_index);
        w.u16(m.frag_count);
        w.u32(static_cast<std::uint32_t>(m.payload_bytes));
        w.u8(m.attrs.empty() ? 0 : 1);
        if (!m.attrs.empty()) m.attrs.encode(w);
      }
      break;
    default:
      break;
  }

  if (!seg.attrs.empty()) seg.attrs.encode(w);

  if ((seg.type == SegmentType::Data || seg.type == SegmentType::Parity) &&
      seg.payload_bytes > 0) {
    const auto want = static_cast<std::size_t>(seg.payload_bytes);
    const std::size_t real = std::min(payload.size(), want);
    w.raw(payload.subspan(0, real));
    // Virtual remainder: zeros() skips the fill for any tail the arena
    // already guarantees zero, so steady-state virtual-payload encodes
    // write ~a header, not ~a datagram.
    w.zeros(want - real);
  }
  w.poke_u32(kChecksumOffset, segment_checksum(w.view()));
  return w.view();
}

Bytes encode_segment(const Segment& seg, BytesView payload) {
  ByteWriter w;
  encode_segment_into(w, seg, payload);
  return w.take();
}

std::optional<SegmentView> decode_segment_view(BytesView datagram,
                                               DecodeStatus* status) {
  if (status != nullptr) *status = DecodeStatus::Ok;
  ByteReader r(datagram);
  auto magic = r.u16();
  if (!magic || *magic != kWireMagic) {
    return fail(DecodeStatus::BadMagic, status);
  }
  auto type = r.u8();
  auto flags = r.u8();
  auto stored_checksum = r.u32();
  if (!type || !flags || !stored_checksum) {
    return fail(DecodeStatus::Malformed, status);
  }
  // Integrity before semantics: a flipped bit anywhere — type byte included
  // — reads as corruption, not as a different (malformed) segment.
  if (*stored_checksum != segment_checksum(datagram)) {
    return fail(DecodeStatus::BadChecksum, status);
  }
  if (!valid_type(*type)) return fail(DecodeStatus::Malformed, status);
  auto conn = r.u32();
  auto seq = r.u32();
  auto cum = r.u32();
  auto rwnd = r.u32();
  auto ts = r.u64();
  auto ts_echo = r.u64();
  if (!conn || !seq || !cum || !rwnd || !ts || !ts_echo) {
    return fail(DecodeStatus::Malformed, status);
  }

  SegmentView out;
  Segment& seg = out.segment;
  seg.type = static_cast<SegmentType>(*type);
  seg.marked = (*flags & kFlagMarked) != 0;
  seg.fec_protected = (*flags & kFlagFec) != 0;
  seg.conn_id = *conn;
  seg.seq = *seq;
  seg.cum_ack = *cum;
  seg.rwnd_packets = *rwnd;
  seg.ts_us = *ts;
  seg.ts_echo_us = *ts_echo;

  switch (seg.type) {
    case SegmentType::Data: {
      auto msg = r.u32();
      auto fi = r.u16();
      auto fc = r.u16();
      auto len = r.u32();
      if (!msg || !fi || !fc || !len) return fail(DecodeStatus::Malformed, status);
      if (*fc == 0 || *fi >= *fc) return fail(DecodeStatus::Malformed, status);
      seg.msg_id = *msg;
      seg.frag_index = *fi;
      seg.frag_count = *fc;
      seg.payload_bytes = static_cast<std::int32_t>(*len);
      break;
    }
    case SegmentType::Ack: {
      auto n = r.u16();
      if (!n) return fail(DecodeStatus::Malformed, status);
      for (std::uint16_t i = 0; i < *n; ++i) {
        auto e = r.u32();
        if (!e) return fail(DecodeStatus::Malformed, status);
        seg.eacks.push_back(*e);
      }
      break;
    }
    case SegmentType::Advance: {
      auto n = r.u16();
      if (!n) return fail(DecodeStatus::Malformed, status);
      for (std::uint16_t i = 0; i < *n; ++i) {
        auto s = r.u32();
        auto m = r.u32();
        auto fc = r.u16();
        if (!s || !m || !fc || *fc == 0) return fail(DecodeStatus::Malformed, status);
        seg.skipped.push_back(SkippedSeq{*s, *m, *fc});
      }
      break;
    }
    case SegmentType::SynAck: {
      auto tol = r.f64();
      if (!tol) return fail(DecodeStatus::Malformed, status);
      seg.recv_loss_tolerance = *tol;
      break;
    }
    case SegmentType::Parity: {
      auto group = r.u32();
      auto len = r.u32();
      auto n = r.u16();
      if (!group || !len || !n) return fail(DecodeStatus::Malformed, status);
      seg.fec_group = *group;
      seg.payload_bytes = static_cast<std::int32_t>(*len);
      // No reserve(*n): the count is the peer's claim, not a fact. Growth
      // stays bounded by the member records the datagram actually holds.
      for (std::uint16_t i = 0; i < *n; ++i) {
        FecMember m;
        auto s = r.u32();
        auto msg = r.u32();
        auto fi = r.u16();
        auto fc = r.u16();
        auto plen = r.u32();
        auto has_attrs = r.u8();
        if (!s || !msg || !fi || !fc || !plen || !has_attrs) {
          return fail(DecodeStatus::Malformed, status);
        }
        if (*fc == 0 || *fi >= *fc) return fail(DecodeStatus::Malformed, status);
        m.seq = *s;
        m.msg_id = *msg;
        m.frag_index = *fi;
        m.frag_count = *fc;
        m.payload_bytes = static_cast<std::int32_t>(*plen);
        if (*has_attrs != 0) {
          auto attrs = attr::AttrList::decode(r);
          if (!attrs) return fail(DecodeStatus::Malformed, status);
          m.attrs = std::move(*attrs);
        }
        seg.fec_members.push_back(std::move(m));
      }
      break;
    }
    default:
      break;
  }

  if ((*flags & kFlagAttrs) != 0) {
    auto attrs = attr::AttrList::decode(r);
    if (!attrs) return fail(DecodeStatus::Malformed, status);
    seg.attrs = std::move(*attrs);
  }

  if ((seg.type == SegmentType::Data || seg.type == SegmentType::Parity) &&
      seg.payload_bytes > 0) {
    const auto want = static_cast<std::size_t>(seg.payload_bytes);
    auto view = r.view(want);
    if (!view) return fail(DecodeStatus::Malformed, status);
    out.payload = *view;  // borrows `datagram`; the caller owns the lifetime
  }
  return out;
}

std::optional<DecodedSegment> decode_segment(BytesView datagram,
                                             DecodeStatus* status) {
  auto view = decode_segment_view(datagram, status);
  if (!view) return std::nullopt;
  DecodedSegment out;
  out.segment = std::move(view->segment);
  out.payload.assign(view->payload.begin(), view->payload.end());
  return out;
}

}  // namespace iq::rudp
