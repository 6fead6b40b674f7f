// Wire-codec tests: exact round trips for every segment type, randomized
// property round trips, malformed-input rejection.

#include <gtest/gtest.h>

#include <algorithm>

#include "iq/common/rng.hpp"
#include "iq/rudp/codec.hpp"

namespace iq::rudp {
namespace {

Segment data_segment() {
  Segment s;
  s.type = SegmentType::Data;
  s.conn_id = 7;
  s.seq = 1234;
  s.msg_id = 55;
  s.frag_index = 2;
  s.frag_count = 5;
  s.marked = false;
  s.payload_bytes = 100;
  s.cum_ack = 77;
  s.ts_us = 999999;
  return s;
}

void expect_equal(const Segment& a, const Segment& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.conn_id, b.conn_id);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.msg_id, b.msg_id);
  EXPECT_EQ(a.frag_index, b.frag_index);
  EXPECT_EQ(a.frag_count, b.frag_count);
  EXPECT_EQ(a.marked, b.marked);
  EXPECT_EQ(a.payload_bytes, b.payload_bytes);
  EXPECT_EQ(a.cum_ack, b.cum_ack);
  EXPECT_EQ(a.eacks, b.eacks);
  EXPECT_EQ(a.rwnd_packets, b.rwnd_packets);
  EXPECT_EQ(a.ts_us, b.ts_us);
  EXPECT_EQ(a.ts_echo_us, b.ts_echo_us);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.fec_protected, b.fec_protected);
  EXPECT_EQ(a.fec_group, b.fec_group);
  EXPECT_EQ(a.fec_members, b.fec_members);
  EXPECT_DOUBLE_EQ(a.recv_loss_tolerance, b.recv_loss_tolerance);
  EXPECT_EQ(a.attrs, b.attrs);
}

TEST(CodecTest, DataRoundTrip) {
  const Segment s = data_segment();
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(decoded->segment, s);
}

TEST(CodecTest, DataWithRealPayload) {
  Segment s = data_segment();
  s.payload_bytes = 5;
  Bytes payload{10, 20, 30, 40, 50};
  auto decoded = decode_segment(encode_segment(s, payload));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload, payload);
}

TEST(CodecTest, VirtualPayloadZeroFilled) {
  Segment s = data_segment();
  s.payload_bytes = 8;
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->payload.size(), 8u);
  for (auto b : decoded->payload) EXPECT_EQ(b, 0);
}

TEST(CodecTest, AckWithEacksRoundTrip) {
  Segment s;
  s.type = SegmentType::Ack;
  s.conn_id = 3;
  s.cum_ack = 500;
  s.eacks = {502, 505, 510};
  s.rwnd_packets = 4000;
  s.ts_us = 123;
  s.ts_echo_us = 456;
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(decoded->segment, s);
}

TEST(CodecTest, AdvanceRoundTrip) {
  Segment s;
  s.type = SegmentType::Advance;
  s.conn_id = 3;
  s.skipped = {{100, 9, 3}, {101, 9, 3}, {150, 12, 1}};
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(decoded->segment, s);
}

TEST(CodecTest, SynAckCarriesTolerance) {
  Segment s;
  s.type = SegmentType::SynAck;
  s.conn_id = 1;
  s.recv_loss_tolerance = 0.4;
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->segment.recv_loss_tolerance, 0.4);
}

TEST(CodecTest, AttrsRideInBand) {
  Segment s = data_segment();
  s.attrs.set("ADAPT_PKTSIZE", 0.25);
  s.attrs.set("ADAPT_COND_ERATIO", 0.18);
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->segment.attrs.get_double("ADAPT_PKTSIZE"), 0.25);
  EXPECT_EQ(decoded->segment.attrs.get_double("ADAPT_COND_ERATIO"), 0.18);
}

TEST(CodecTest, ControlTypesRoundTrip) {
  for (SegmentType t : {SegmentType::Syn, SegmentType::Nul, SegmentType::Rst}) {
    Segment s;
    s.type = t;
    s.conn_id = 9;
    s.cum_ack = 10;
    s.ts_us = 42;
    auto decoded = decode_segment(encode_segment(s));
    ASSERT_TRUE(decoded.has_value());
    expect_equal(decoded->segment, s);
  }
}

TEST(CodecTest, FecFlagRoundTrip) {
  Segment s = data_segment();
  s.fec_protected = true;
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(decoded->segment, s);
}

Segment parity_segment() {
  Segment s;
  s.type = SegmentType::Parity;
  s.conn_id = 7;
  s.fec_group = 31;
  s.payload_bytes = 900;
  s.cum_ack = 12;
  s.ts_us = 5555;
  FecMember m0{.seq = 100, .msg_id = 40, .frag_index = 0, .frag_count = 2,
               .payload_bytes = 900};
  m0.attrs.set("ADAPT_PKTSIZE", 0.25);
  FecMember m1{.seq = 101, .msg_id = 40, .frag_index = 1, .frag_count = 2,
               .payload_bytes = 350};
  s.fec_members = {m0, m1};
  return s;
}

TEST(CodecTest, ParityRoundTrip) {
  const Segment s = parity_segment();
  auto decoded = decode_segment(encode_segment(s));
  ASSERT_TRUE(decoded.has_value());
  expect_equal(decoded->segment, s);
  ASSERT_EQ(decoded->segment.fec_members.size(), 2u);
  EXPECT_EQ(decoded->segment.fec_members[0].attrs.get_double("ADAPT_PKTSIZE"),
            0.25);
}

TEST(CodecTest, ParityRejectsEveryTruncation) {
  const Bytes wire = encode_segment(parity_segment());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    BytesView prefix(wire.data(), len);
    EXPECT_FALSE(decode_segment(prefix).has_value())
        << "accepted a " << len << "-byte prefix of a " << wire.size()
        << "-byte parity segment";
  }
}

TEST(CodecTest, ParityRejectsInflatedMemberCount) {
  // The member count is the peer's claim: a sealed datagram that claims
  // 65535 members but holds two is malformed, not a 65535-slot list.
  Bytes wire = encode_segment(parity_segment());
  constexpr std::size_t kCountOffset = 48;  // fixed header, group, length
  ASSERT_EQ(wire[kCountOffset], 0);
  ASSERT_EQ(wire[kCountOffset + 1], 2);
  wire[kCountOffset] = 0xFF;
  wire[kCountOffset + 1] = 0xFF;
  seal_segment(wire);
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode_segment(wire, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

// Layout pin. Every simulated packet body is a Segment, and each per-wire
// segment pool keeps its high-water mark of blocks for the whole run, so
// this size multiplies into a many-flow run's resident memory. Lists that
// only a rare segment type fills (PARITY's members) stay out of line.
TEST(CodecTest, SegmentStaysSmall) {
  EXPECT_LE(sizeof(Segment), 512u);
}

TEST(CodecTest, RejectsBadMagic) {
  Bytes wire = encode_segment(data_segment());
  wire[0] ^= 0xff;
  EXPECT_FALSE(decode_segment(wire).has_value());
}

TEST(CodecTest, RejectsBadType) {
  Bytes wire = encode_segment(data_segment());
  wire[2] = 0x7f;
  // Re-seal so the corruption is not masked by the checksum: this test is
  // about the type-range validation specifically.
  seal_segment(wire);
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode_segment(wire, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

// ------------------------------------------------------------- checksum ---

TEST(CodecTest, ChecksumRejectsBitFlip) {
  Segment s = data_segment();
  s.payload_bytes = 4;
  const Bytes clean = encode_segment(s, Bytes{1, 2, 3, 4});
  // Flip one bit at every offset past the magic (a flipped magic reads as
  // BadMagic, not BadChecksum) — every single-bit error must be caught.
  for (std::size_t i = 2; i < clean.size(); ++i) {
    Bytes corrupted = clean;
    corrupted[i] ^= 0x01;
    DecodeStatus status = DecodeStatus::Ok;
    EXPECT_FALSE(decode_segment(corrupted, &status).has_value())
        << "bit flip at offset " << i << " accepted";
    EXPECT_EQ(status, DecodeStatus::BadChecksum) << "offset " << i;
  }
}

TEST(CodecTest, ChecksumFieldItselfIsProtected) {
  Bytes wire = encode_segment(data_segment());
  wire[kChecksumOffset] ^= 0xff;  // corrupt the stored checksum
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode_segment(wire, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::BadChecksum);
}

TEST(CodecTest, DecodeStatusDistinguishesFailureModes) {
  const Bytes wire = encode_segment(data_segment());
  {
    Bytes bad_magic = wire;
    bad_magic[0] ^= 0xff;
    DecodeStatus status = DecodeStatus::Ok;
    EXPECT_FALSE(decode_segment(bad_magic, &status).has_value());
    EXPECT_EQ(status, DecodeStatus::BadMagic);
  }
  {
    BytesView truncated(wire.data(), wire.size() - 1);
    DecodeStatus status = DecodeStatus::Ok;
    EXPECT_FALSE(decode_segment(truncated, &status).has_value());
    EXPECT_EQ(status, DecodeStatus::BadChecksum);
  }
  {
    DecodeStatus status = DecodeStatus::BadMagic;
    EXPECT_TRUE(decode_segment(wire, &status).has_value());
    EXPECT_EQ(status, DecodeStatus::Ok);
  }
}

TEST(CodecTest, SealAfterMutationRestoresDecodability) {
  Bytes wire = encode_segment(data_segment());
  wire[kChecksumOffset + 8] ^= 0x01;  // perturb a header field
  EXPECT_FALSE(decode_segment(wire).has_value());
  seal_segment(wire);
  EXPECT_TRUE(decode_segment(wire).has_value());
}

TEST(CodecTest, RejectsEveryTruncation) {
  Segment s = data_segment();
  s.attrs.set("k", 1.0);
  s.payload_bytes = 4;
  const Bytes wire = encode_segment(s);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    BytesView prefix(wire.data(), len);
    EXPECT_FALSE(decode_segment(prefix).has_value())
        << "accepted a " << len << "-byte prefix of a " << wire.size()
        << "-byte segment";
  }
}

TEST(CodecTest, RejectsZeroFragCount) {
  Segment s = data_segment();
  s.frag_count = 1;
  s.frag_index = 0;
  Bytes wire = encode_segment(s);
  // frag_count lives 4+2 bytes after the 40-byte fixed header.
  wire[kFixedHeaderBytes + 4 + 2] = 0;
  wire[kFixedHeaderBytes + 4 + 3] = 0;
  seal_segment(wire);  // re-seal: the semantic check must fire, not the CRC
  DecodeStatus status = DecodeStatus::Ok;
  EXPECT_FALSE(decode_segment(wire, &status).has_value());
  EXPECT_EQ(status, DecodeStatus::Malformed);
}

TEST(CodecTest, HeaderBytesMatchesEncodedSizeWithoutPayload) {
  // wire_bytes() is what the simulator charges; it must agree with the
  // actual encoding (modulo the UDP/IP encapsulation constant).
  Segment ack;
  ack.type = SegmentType::Ack;
  ack.eacks = {5, 9};
  EXPECT_EQ(static_cast<std::int64_t>(encode_segment(ack).size()),
            ack.header_bytes());

  Segment adv;
  adv.type = SegmentType::Advance;
  adv.skipped = {{1, 2, 3}};
  EXPECT_EQ(static_cast<std::int64_t>(encode_segment(adv).size()),
            adv.header_bytes());

  Segment data = data_segment();
  data.payload_bytes = 0;
  EXPECT_EQ(static_cast<std::int64_t>(encode_segment(data).size()),
            data.header_bytes());
}

TEST(CodecTest, SurvivesSingleByteCorruptionEverywhere) {
  // Fuzz-style: flip every byte of every encoding (data with payload and
  // attrs, ack with eacks, parity with members) at every offset, with a few
  // different corruption values. The decoder must never crash or read out
  // of bounds — rejecting or mis-decoding are both acceptable outcomes.
  std::vector<Bytes> wires;
  {
    Segment s = data_segment();
    s.attrs.set("k", 1.0);
    s.payload_bytes = 4;
    wires.push_back(encode_segment(s, Bytes{1, 2, 3, 4}));
  }
  {
    Segment s;
    s.type = SegmentType::Ack;
    s.eacks = {5, 9, 12};
    wires.push_back(encode_segment(s));
  }
  wires.push_back(encode_segment(parity_segment()));

  for (const Bytes& wire : wires) {
    for (std::size_t i = 0; i < wire.size(); ++i) {
      for (std::uint8_t delta : {0x01, 0x80, 0xff}) {
        Bytes corrupted = wire;
        corrupted[i] = static_cast<std::uint8_t>(corrupted[i] ^ delta);
        auto decoded = decode_segment(corrupted);  // must not crash
        if (decoded.has_value()) {
          // Whatever came back must at least be internally consistent
          // enough to describe.
          (void)decoded->segment.describe();
        }
      }
    }
  }
}

// ------------------------------------------------- randomized round trip --

class CodecPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

Segment random_segment(Rng& rng) {
  Segment s;
  const int type = static_cast<int>(rng.uniform_int(1, 8));
  s.type = static_cast<SegmentType>(type);
  s.conn_id = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  s.seq = static_cast<WireSeq>(rng.uniform_int(0, 0xffffffffLL));
  s.cum_ack = static_cast<WireSeq>(rng.uniform_int(0, 0xffffffffLL));
  s.rwnd_packets = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  s.ts_us = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 50));
  s.ts_echo_us = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 50));
  s.marked = rng.chance(0.5);
  switch (s.type) {
    case SegmentType::Data:
      s.msg_id = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
      s.frag_count = static_cast<std::uint16_t>(rng.uniform_int(1, 400));
      s.frag_index =
          static_cast<std::uint16_t>(rng.uniform_int(0, s.frag_count - 1));
      s.payload_bytes = static_cast<std::int32_t>(rng.uniform_int(0, 1400));
      s.fec_protected = rng.chance(0.3);
      break;
    case SegmentType::Parity:
      s.fec_group = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
      s.payload_bytes = static_cast<std::int32_t>(rng.uniform_int(0, 1400));
      for (int i = rng.uniform_int(1, 16); i > 0; --i) {
        FecMember m;
        m.seq = static_cast<WireSeq>(rng.uniform_int(0, 0xffffffffLL));
        m.msg_id = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
        m.frag_count = static_cast<std::uint16_t>(rng.uniform_int(1, 400));
        m.frag_index =
            static_cast<std::uint16_t>(rng.uniform_int(0, m.frag_count - 1));
        m.payload_bytes = static_cast<std::int32_t>(rng.uniform_int(0, 1400));
        if (rng.chance(0.3)) m.attrs.set("m", rng.uniform01());
        s.fec_members.push_back(std::move(m));
      }
      break;
    case SegmentType::Ack:
      for (int i = rng.uniform_int(0, 64); i > 0; --i) {
        s.eacks.push_back(
            static_cast<WireSeq>(rng.uniform_int(0, 0xffffffffLL)));
      }
      break;
    case SegmentType::Advance:
      for (int i = rng.uniform_int(0, 32); i > 0; --i) {
        s.skipped.push_back(SkippedSeq{
            static_cast<WireSeq>(rng.uniform_int(0, 0xffffffffLL)),
            static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint16_t>(rng.uniform_int(1, 100))});
      }
      break;
    case SegmentType::SynAck:
      s.recv_loss_tolerance = rng.uniform01();
      break;
    default:
      break;
  }
  if (rng.chance(0.3)) {
    s.attrs.set("a", rng.uniform01());
    s.attrs.set("b", rng.uniform_int(0, 100));
  }
  return s;
}

TEST_P(CodecPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Segment s = random_segment(rng);
    auto decoded = decode_segment(encode_segment(s));
    ASSERT_TRUE(decoded.has_value()) << s.describe();
    expect_equal(decoded->segment, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------- golden bytes (wire freeze) --

// A sealed v2 datagram, byte for byte. Any codec or CRC change that alters
// the wire image — field order, widths, checksum algorithm — fails here.
// Captured from the v2 sealing implementation and cross-checked against an
// independently hand-assembled header below.
TEST(CodecGoldenTest, SealedV2DatagramIsBitIdentical) {
  Segment s;
  s.type = SegmentType::Data;
  s.conn_id = 7;
  s.seq = 0x01020304;
  s.cum_ack = 0x0a0b0c0d;
  s.rwnd_packets = 512;
  s.ts_us = 0x1122334455ull;
  s.ts_echo_us = 0x5544332211ull;
  s.msg_id = 9;
  s.frag_index = 0;
  s.frag_count = 1;
  s.marked = true;
  s.payload_bytes = 8;
  const Bytes payload{1, 2, 3, 4, 5, 6, 7, 8};

  static const std::uint8_t kGolden[] = {
      0x49, 0x51, 0x03, 0x01, 0xf2, 0x56, 0x5d, 0xcb, 0x00, 0x00, 0x00,
      0x07, 0x01, 0x02, 0x03, 0x04, 0x0a, 0x0b, 0x0c, 0x0d, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x00,
      0x00, 0x00, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00, 0x00, 0x00, 0x09,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x08, 0x01, 0x02, 0x03,
      0x04, 0x05, 0x06, 0x07, 0x08};

  const Bytes wire = encode_segment(s, payload);
  ASSERT_EQ(wire.size(), sizeof(kGolden));
  EXPECT_EQ(wire, Bytes(kGolden, kGolden + sizeof(kGolden)));

  // Cross-check: assemble the same datagram field by field, independent of
  // the codec, and seal it with crc32 (whose polynomial is pinned by the
  // check-vector test in common_test). Golden bytes can't drift silently.
  ByteWriter w;
  w.u16(kWireMagic);
  w.u8(0x03);  // Data
  w.u8(0x01);  // marked
  w.u32(0);    // checksum placeholder
  w.u32(s.conn_id);
  w.u32(s.seq);
  w.u32(s.cum_ack);
  w.u32(s.rwnd_packets);
  w.u64(s.ts_us);
  w.u64(s.ts_echo_us);
  w.u32(s.msg_id);
  w.u16(s.frag_index);
  w.u16(s.frag_count);
  w.u32(static_cast<std::uint32_t>(s.payload_bytes));
  w.raw(payload);
  Bytes manual = w.take();
  w.clear();
  seal_segment(manual);
  EXPECT_EQ(manual, wire);
  ASSERT_TRUE(decode_segment(manual).has_value());
}

// --------------------------------------- in-place decode (SegmentView) ---

TEST(CodecViewTest, ViewMatchesOwningDecode) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    Segment s = random_segment(rng);
    Bytes payload;
    if ((s.type == SegmentType::Data || s.type == SegmentType::Parity) &&
        s.payload_bytes > 0) {
      payload.resize(static_cast<std::size_t>(s.payload_bytes));
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
    }
    const Bytes wire = encode_segment(s, payload);
    auto owned = decode_segment(wire);
    auto view = decode_segment_view(wire);
    ASSERT_TRUE(owned.has_value());
    ASSERT_TRUE(view.has_value());
    expect_equal(view->segment, owned->segment);
    ASSERT_EQ(view->payload.size(), owned->payload.size());
    EXPECT_TRUE(std::equal(view->payload.begin(), view->payload.end(),
                           owned->payload.begin()));
  }
}

TEST(CodecViewTest, PayloadAliasesTheDatagram) {
  Segment s = data_segment();
  s.payload_bytes = 4;
  Bytes wire = encode_segment(s, Bytes{9, 9, 9, 9});
  auto view = decode_segment_view(wire);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->payload.size(), 4u);
  EXPECT_EQ(view->payload[0], 9);
  // The view borrows the datagram: mutating the buffer shows through. This
  // is the contract (and the hazard) zero-copy callers sign up for.
  wire[wire.size() - 4] = 123;
  EXPECT_EQ(view->payload[0], 123);
  EXPECT_EQ(view->payload.data(), wire.data() + wire.size() - 4);
}

TEST(CodecViewTest, RejectsSameInputsAsOwningDecode) {
  Rng rng(7);
  const Bytes wire = encode_segment(data_segment());
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = wire;
    // Truncate, corrupt, or extend at random; both decoders must agree.
    const auto mode = rng.uniform_int(0, 2);
    if (mode == 0) {
      mutated.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    } else if (mode == 1) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
      mutated[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    } else {
      mutated.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    DecodeStatus st_owned = DecodeStatus::Ok;
    DecodeStatus st_view = DecodeStatus::Ok;
    auto owned = decode_segment(mutated, &st_owned);
    auto view = decode_segment_view(mutated, &st_view);
    ASSERT_EQ(owned.has_value(), view.has_value());
    ASSERT_EQ(st_owned, st_view);
    if (owned.has_value()) expect_equal(view->segment, owned->segment);
  }
}

// ------------------------------------------ arena reuse & virtual zeros --

TEST(CodecArenaTest, ArenaEncodeMatchesOwningEncode) {
  Rng rng(31);
  ByteWriter arena;
  for (int i = 0; i < 200; ++i) {
    const Segment s = random_segment(rng);
    const Bytes fresh = encode_segment(s);
    const BytesView reused = encode_segment_into(arena, s);
    ASSERT_EQ(Bytes(reused.begin(), reused.end()), fresh) << s.describe();
  }
}

// Regression: encode_segment used to zero-fill the whole virtual payload
// byte by byte on every encode. The arena now skips the memset for any tail
// it already keeps zeroed — which must not change the bytes (or checksum)
// even when a previous encode dirtied the buffer with a real payload.
TEST(CodecArenaTest, VirtualPayloadIdenticalAfterDirtyArenaReuse) {
  Segment virt = data_segment();
  virt.payload_bytes = 1000;  // no real bytes: fully virtual payload

  const Bytes reference = encode_segment(virt);
  // The virtual payload region must be all zeros on the wire.
  for (std::size_t i = reference.size() - 1000; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i], 0u);
  }

  // Dirty the arena with a real nonzero payload, then re-encode the
  // virtual segment through it: bit-identical, checksum included.
  ByteWriter arena;
  Segment real = data_segment();
  real.payload_bytes = 1400;
  const Bytes junk(1400, 0xee);
  (void)encode_segment_into(arena, real, junk);
  const BytesView reused = encode_segment_into(arena, virt);
  EXPECT_EQ(Bytes(reused.begin(), reused.end()), reference);
  EXPECT_EQ(segment_checksum(reused), segment_checksum(reference));
}

}  // namespace
}  // namespace iq::rudp

