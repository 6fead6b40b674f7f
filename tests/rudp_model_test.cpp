// Model-based stress tests: drive RecvBuffer and SendBuffer with long
// randomized operation sequences and check them against simple reference
// models. These catch bookkeeping bugs (double counting, leaks, missed
// deliveries) that example-based tests miss.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "iq/common/rng.hpp"
#include "iq/rudp/recv_buffer.hpp"
#include "iq/rudp/send_buffer.hpp"

namespace iq::rudp {
namespace {

TimePoint at(std::int64_t n) { return TimePoint::from_ns(n); }

// ----------------------------------------------------------- RecvBuffer ---
//
// Model: a stream of messages, each 1..4 fragments. Each fragment is either
// delivered to the buffer (possibly out of order, possibly duplicated) or
// skipped. Forged arrivals at or beyond the receive window's end are mixed
// in. Expectation: a message with all fragments received is delivered
// exactly once; a message with any skipped fragment is dropped exactly
// once; a forged arrival is refused and leaves no trace; cum() ends one
// past the last sequence; nothing leaks.

struct FragmentPlan {
  Seq seq;
  std::uint32_t msg_id;
  std::uint16_t frag_index;
  std::uint16_t frag_count;
  bool skipped;
};

class RecvBufferModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecvBufferModelTest, RandomizedArrivalOrder) {
  Rng rng(GetParam());
  // Build the plan: ~150 messages.
  std::vector<FragmentPlan> plan;
  std::map<std::uint32_t, bool> msg_has_skip;
  std::map<std::uint32_t, std::int64_t> msg_bytes;
  Seq next_seq = 1;
  std::uint32_t next_msg = 1;
  for (int m = 0; m < 150; ++m) {
    const auto frags = static_cast<std::uint16_t>(rng.uniform_int(1, 4));
    const std::uint32_t id = next_msg++;
    for (std::uint16_t f = 0; f < frags; ++f) {
      const bool skip = rng.chance(0.15);
      plan.push_back(FragmentPlan{next_seq++, id, f, frags, skip});
      msg_has_skip[id] = msg_has_skip[id] || skip;
      if (!skip) msg_bytes[id] += 100;
    }
  }
  const Seq end_seq = next_seq;

  // Shuffle the arrival order within a bounded reordering window so the
  // buffer (4096 slots) never overflows.
  std::vector<std::size_t> order(plan.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_int(
                                  0, std::min<std::int64_t>(20, order.size() - 1 - i)));
    std::swap(order[i], order[j]);
  }

  constexpr std::uint32_t kWindow = 4096;
  RecvBuffer buf(kWindow, 1);
  RecvBuffer::Result r;
  std::map<std::uint32_t, std::int64_t> delivered_bytes;
  std::uint64_t dropped = 0;
  std::int64_t t = 0;
  int forged = 0;

  auto absorb = [&] {
    for (const auto& msg : r.delivered) {
      auto [it, inserted] = delivered_bytes.emplace(msg.msg_id, msg.bytes);
      ASSERT_TRUE(inserted) << "message " << msg.msg_id << " delivered twice";
    }
    dropped += r.dropped_messages;
  };

  for (std::size_t idx : order) {
    const FragmentPlan& f = plan[idx];
    if (f.skipped) {
      const SkippedSeq info{to_wire(f.seq), f.msg_id, f.frag_count};
      buf.on_skip({&info, 1}, at(++t), r);
      absorb();
    } else {
      RecvSegment seg;
      seg.seq = f.seq;
      seg.msg_id = f.msg_id;
      seg.frag_index = f.frag_index;
      seg.frag_count = f.frag_count;
      seg.payload_bytes = 100;
      buf.on_data(seg, at(++t), r);
      absorb();
      // Occasionally duplicate the arrival.
      if (rng.chance(0.1)) {
        buf.on_data(seg, at(++t), r);
        absorb();
      }
    }
    // Occasionally a forged segment or skip at or beyond the window's end,
    // claiming a message id the plan never uses.
    if (rng.chance(0.1)) {
      const Seq seq =
          buf.cum() + kWindow +
          (rng.chance(0.5) ? 0 : static_cast<Seq>(rng.uniform_int(1, 1 << 30)));
      const std::size_t held = buf.buffered();
      if (rng.chance(0.5)) {
        RecvSegment seg;
        seg.seq = seq;
        seg.msg_id = 1'000'000 + static_cast<std::uint32_t>(forged);
        seg.payload_bytes = 100;
        buf.on_data(seg, at(++t), r);
      } else {
        const SkippedSeq info{to_wire(seq), 1'000'000, 1};
        buf.on_skip({&info, 1}, at(++t), r);
      }
      EXPECT_FALSE(r.duplicate);
      EXPECT_FALSE(r.advanced);
      EXPECT_TRUE(r.delivered.empty());
      EXPECT_EQ(r.dropped_messages, 0u);
      EXPECT_FALSE(buf.has(seq)) << "forged seq " << seq << " admitted";
      EXPECT_EQ(buf.buffered(), held);
      ++forged;
    }
  }

  EXPECT_GT(forged, 20);
  EXPECT_EQ(buf.cum(), end_seq);
  EXPECT_EQ(buf.buffered(), 0u);
  EXPECT_EQ(buf.rwnd(), kWindow);
  EXPECT_LE(buf.capacity(), kWindow);  // forgeries never grew the ring
  EXPECT_TRUE(buf.eacks(16).empty());

  std::uint64_t expect_dropped = 0;
  for (const auto& [id, has_skip] : msg_has_skip) {
    if (has_skip) {
      ++expect_dropped;
      EXPECT_FALSE(delivered_bytes.contains(id))
          << "message " << id << " delivered despite a skipped fragment";
    } else {
      ASSERT_TRUE(delivered_bytes.contains(id)) << "message " << id << " lost";
      EXPECT_EQ(delivered_bytes[id], msg_bytes[id]);
    }
  }
  EXPECT_EQ(dropped, expect_dropped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecvBufferModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

// ----------------------------------------------------------- SendBuffer ---
//
// Model: add N segments, then apply a random sequence of acks (advancing
// cumulative point + random eack subsets) and adaptive-reliability abandons
// of unevidenced segments. Invariants: inflight equals the count of
// segments neither evidenced nor abandoned; each segment contributes to
// newly_acked exactly once, an abandoned one never; a segment is reported
// lost at most once, an abandoned one never; lost segments really were
// >= dup_threshold below the high-water mark; an abandoned seq is never
// returned by find() or first_unacked() and stays a skip record until the
// cumulative ack passes it.

class SendBufferModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SendBufferModelTest, RandomizedAckSequences) {
  Rng rng(GetParam());
  SendBuffer buf;
  const Seq n = 400;
  for (Seq s = 1; s <= n; ++s) {
    Outstanding o;
    o.seq = s;
    o.msg_id = static_cast<std::uint32_t>(s);
    o.payload_bytes = 10;
    buf.add(o);
  }

  std::set<Seq> evidenced;
  std::set<Seq> abandoned;
  std::set<Seq> reported_lost;
  std::set<Seq> counted;
  std::vector<Seq> acked_now;
  Seq cum = 1;
  int total_newly_acked = 0;

  while (cum <= n) {
    // Random abandons of unevidenced segments at or above cum.
    for (int i = 0; i < 2; ++i) {
      const Seq s = cum + static_cast<Seq>(rng.uniform_int(0, 30));
      if (s > n || !rng.chance(0.3) || evidenced.contains(s)) continue;
      ASSERT_EQ(buf.abandon(s), abandoned.insert(s).second) << "seq " << s;
      EXPECT_EQ(buf.find(s), nullptr);
      EXPECT_TRUE(buf.is_skip(s));
    }
    // Random eacks above cum, skip records included.
    std::vector<Seq> eacks;
    for (int i = 0; i < 5; ++i) {
      const Seq e = cum + static_cast<Seq>(rng.uniform_int(0, 30));
      if (e <= n) eacks.push_back(e);
    }
    if (rng.chance(0.7)) {
      cum += static_cast<Seq>(rng.uniform_int(0, 10));
    }
    cum = std::min(cum, n + 1);

    acked_now.clear();
    auto out = buf.on_ack(cum, eacks, 3, &acked_now);
    total_newly_acked += out.newly_acked;
    ASSERT_EQ(acked_now.size(), static_cast<std::size_t>(out.newly_acked));
    for (Seq s : acked_now) {
      EXPECT_FALSE(abandoned.contains(s)) << "abandoned " << s << " acked";
      EXPECT_TRUE(counted.insert(s).second) << "segment " << s
                                            << " acked twice";
    }

    Seq high = 0;
    for (Seq s = 1; s < cum; ++s) {
      if (!abandoned.contains(s)) evidenced.insert(s);
    }
    for (Seq e : eacks) {
      if (!abandoned.contains(e)) evidenced.insert(e);
    }
    for (Seq s : evidenced) high = std::max(high, s);

    for (Seq lost : out.lost) {
      EXPECT_FALSE(evidenced.contains(lost));
      EXPECT_FALSE(abandoned.contains(lost)) << "abandoned " << lost
                                             << " reported lost";
      EXPECT_TRUE(reported_lost.insert(lost).second)
          << "segment " << lost << " reported lost twice";
      EXPECT_GE(high, lost + 3);
    }
    // inflight = segments with no receipt evidence, abandoned ones aside.
    int expect_inflight = 0;
    Outstanding* expect_first = nullptr;
    bool expect_skips = false;
    for (Seq s = 1; s <= n; ++s) {
      if (evidenced.contains(s) || abandoned.contains(s)) continue;
      ++expect_inflight;
      if (expect_first == nullptr) expect_first = buf.find(s);
    }
    for (Seq s : abandoned) {
      EXPECT_EQ(buf.is_skip(s), s >= cum) << "skip record " << s;
      expect_skips = expect_skips || s >= cum;
    }
    EXPECT_EQ(buf.inflight(), expect_inflight);
    EXPECT_EQ(buf.first_unacked(), expect_first);
    EXPECT_EQ(buf.holds_skips(), expect_skips);
  }

  auto final_out = buf.on_ack(n + 1, {}, 3);
  total_newly_acked += final_out.newly_acked;
  EXPECT_GT(abandoned.size(), 10u);
  EXPECT_EQ(total_newly_acked, static_cast<int>(n - abandoned.size()));
  EXPECT_TRUE(buf.empty());
  EXPECT_FALSE(buf.holds_skips());
  EXPECT_EQ(buf.inflight(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SendBufferModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66),
                         [](const auto& param_info) {
                           return "seed" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace iq::rudp
