// ShardedSim: conservative lockstep windows, canonical parcel ordering, and
// the determinism contract (bit-identical results at every shard count,
// threaded or inline).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "iq/common/affinity.hpp"
#include "iq/sim/sharded.hpp"

namespace iq::sim {
namespace {

ShardedSim::Config make_cfg(std::size_t shards, bool threaded) {
  ShardedSim::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = Duration::millis(10);
  cfg.threaded = threaded;
  return cfg;
}

TEST(ShardedSimTest, GroupsRoundRobinOntoShards) {
  ShardedSim ss(make_cfg(2, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  const auto g2 = ss.add_group();
  EXPECT_EQ(ss.shard_of(g0), 0u);
  EXPECT_EQ(ss.shard_of(g1), 1u);
  EXPECT_EQ(ss.shard_of(g2), 0u);
  EXPECT_EQ(&ss.group_sim(g0), &ss.group_sim(g2));
  EXPECT_NE(&ss.group_sim(g0), &ss.group_sim(g1));
}

TEST(ShardedSimTest, LocalEventsRunAndClockAdvances) {
  ShardedSim ss(make_cfg(2, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  int ran = 0;
  ss.group_sim(g0).after(Duration::millis(3), [&] { ++ran; });
  ss.group_sim(g1).after(Duration::millis(25), [&] { ++ran; });
  ss.run_until(TimePoint::zero() + Duration::millis(30));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ss.now(), TimePoint::zero() + Duration::millis(30));
  EXPECT_EQ(ss.group_sim(g0).now(), ss.now());
  EXPECT_EQ(ss.group_sim(g1).now(), ss.now());
  EXPECT_TRUE(ss.idle());
}

TEST(ShardedSimTest, ParcelDeliveredAtDueTimeOnDstShard) {
  ShardedSim ss(make_cfg(2, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  TimePoint seen = TimePoint::zero();
  // Post from g0 during the first window; due one lookahead later.
  ss.group_sim(g0).after(Duration::millis(2), [&] {
    const TimePoint due = ss.group_sim(g0).now() + Duration::millis(10);
    ss.post(g0, g1, due, [&ss, &seen, g1] { seen = ss.group_sim(g1).now(); });
  });
  ss.run_until(TimePoint::zero() + Duration::millis(30));
  EXPECT_EQ(seen, TimePoint::zero() + Duration::millis(12));
  EXPECT_EQ(ss.parcels_posted(), 1u);
  EXPECT_EQ(ss.parcels_delivered(), 1u);
}

TEST(ShardedSimTest, PostBelowLookaheadBoundAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ShardedSim ss(make_cfg(2, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  ss.group_sim(g0).after(Duration::millis(2), [&] {
    // Due inside the current window: violates the conservative bound.
    ss.post(g0, g1, ss.group_sim(g0).now() + Duration::millis(1), [] {});
  });
  EXPECT_DEATH(ss.run_until(TimePoint::zero() + Duration::millis(30)),
               "lockstep window");
}

TEST(ShardedSimTest, ParcelsOrderedByDueThenSrcGroupThenSeq) {
  // Two source groups race parcels to one destination at equal due times;
  // the canonical order (due, src_group, seq) must hold regardless of which
  // source posts first in wall time.
  for (const std::size_t shards : {1u, 2u, 3u}) {
    ShardedSim ss(make_cfg(shards, false));
    const auto a = ss.add_group();
    const auto b = ss.add_group();
    const auto dst = ss.add_group();
    std::vector<std::string> order;
    const TimePoint due = TimePoint::zero() + Duration::millis(20);
    // b posts first (earlier event time) but has the higher group id.
    ss.group_sim(b).after(Duration::millis(1), [&] {
      ss.post(b, dst, due, [&order] { order.push_back("b0"); });
      ss.post(b, dst, due, [&order] { order.push_back("b1"); });
    });
    ss.group_sim(a).after(Duration::millis(2), [&] {
      ss.post(a, dst, due, [&order] { order.push_back("a0"); });
    });
    ss.run_until(TimePoint::zero() + Duration::millis(40));
    EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "b1"}))
        << "shards=" << shards;
  }
}

TEST(ShardedSimTest, ParcelRunsBeforeLocalEventAtEqualTimestamp) {
  ShardedSim ss(make_cfg(1, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  std::vector<std::string> order;
  const TimePoint t = TimePoint::zero() + Duration::millis(20);
  ss.group_sim(g1).at(t, [&] { order.push_back("local"); });
  ss.group_sim(g0).after(Duration::millis(1), [&] {
    ss.post(g0, g1, t, [&order] { order.push_back("parcel"); });
  });
  ss.run_until(t + Duration::millis(1));
  EXPECT_EQ(order, (std::vector<std::string>{"parcel", "local"}));
}

TEST(ShardedSimTest, ParcelSchedulesLocalEventBeforePendingOne) {
  // The destination's window drains local events up to the parcel at 12 ms,
  // which refuses its pending event at 18 ms and leaves its wheel
  // positioned there. The parcel then schedules at 15 ms, between the clock
  // and that position, and at 18 ms: both run in (time, insertion) order,
  // identically at every shard count.
  const auto ms = [](std::int64_t v) {
    return TimePoint::zero() + Duration::millis(v);
  };
  std::vector<std::pair<std::string, TimePoint>> base;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardedSim ss(make_cfg(shards, false));
    const auto src = ss.add_group();
    const auto dst = ss.add_group();
    std::vector<std::pair<std::string, TimePoint>> log;
    Simulator& dsim = ss.group_sim(dst);
    const auto record = [&log, &dsim](const char* what) {
      return [&log, &dsim, what] { log.emplace_back(what, dsim.now()); };
    };
    dsim.at(ms(18), record("pending"));
    ss.group_sim(src).after(Duration::millis(2), [&] {
      ss.post(src, dst, ms(12), [&] {
        log.emplace_back("parcel", dsim.now());
        dsim.at(ms(15), record("early"));
        dsim.at(ms(18), record("late"));
      });
    });
    ss.run_until(ms(40));
    const std::vector<std::pair<std::string, TimePoint>> want{
        {"parcel", ms(12)}, {"early", ms(15)}, {"pending", ms(18)},
        {"late", ms(18)}};
    EXPECT_EQ(log, want) << "shards=" << shards;
    if (shards == 1) base = log;
    EXPECT_EQ(log, base) << "shards=" << shards;
  }
}

// A little deterministic ping-pong workload: `kGroups` logical groups, each
// bouncing counters to (g+1) mod groups with varying delays. Returns a
// digest of every group's receive log. When `chunk` is nonzero the clock is
// driven in chunks of that size instead of one run_until_idle — results must
// not depend on the run_until call pattern.
std::uint64_t pingpong_digest(std::size_t shards, bool threaded,
                              Duration chunk = Duration::zero()) {
  constexpr std::size_t kGroups = 5;
  ShardedSim ss(make_cfg(shards, threaded));
  std::vector<std::uint32_t> groups;
  for (std::size_t g = 0; g < kGroups; ++g) groups.push_back(ss.add_group());

  struct GroupState {
    std::vector<std::int64_t> log;
  };
  std::vector<GroupState> state(kGroups);

  // Each group seeds one token; on receipt, append (now ^ tag) to the log
  // and forward until hops run out.
  struct Forward {
    ShardedSim* ss;
    std::vector<std::uint32_t>* groups;
    std::vector<GroupState>* state;
    void send(std::uint32_t from, int hops, std::int64_t tag) const {
      if (hops <= 0) return;
      const std::uint32_t to = (*groups)[(from + 1) % groups->size()];
      const Duration delay = Duration::millis(10 + (tag % 7));
      const TimePoint due = ss->group_sim(from).now() + delay;
      auto self = *this;
      ss->post(from, to, due, [self, to, hops, tag] {
        (*self.state)[to].log.push_back(self.ss->group_sim(to).now().ns() ^
                                        tag);
        self.send(to, hops - 1, tag * 31 + 1);
      });
    }
  };
  Forward fw{&ss, &groups, &state};
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto src = groups[g];
    ss.group_sim(src).after(Duration::millis(1 + g), [fw, src, g] {
      fw.send(src, 8, static_cast<std::int64_t>(g + 1));
    });
  }
  const TimePoint deadline = TimePoint::zero() + Duration::seconds(2);
  if (chunk == Duration::zero()) {
    ss.run_until_idle(deadline);
  } else {
    while (!ss.idle() && ss.now() < deadline) ss.run_for(chunk);
  }

  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& gs : state) {
    mix(gs.log.size());
    for (const auto v : gs.log) mix(static_cast<std::uint64_t>(v));
  }
  mix(ss.events_executed());
  mix(ss.parcels_delivered());
  return h;
}

TEST(ShardedSimTest, DeterministicAcrossShardCounts) {
  const std::uint64_t base = pingpong_digest(1, false);
  EXPECT_EQ(pingpong_digest(2, false), base);
  EXPECT_EQ(pingpong_digest(3, false), base);
  EXPECT_EQ(pingpong_digest(5, false), base);
}

TEST(ShardedSimTest, ThreadedMatchesInline) {
  const std::uint64_t base = pingpong_digest(1, false);
  EXPECT_EQ(pingpong_digest(2, true), base);
  EXPECT_EQ(pingpong_digest(5, true), base);
}

TEST(ShardedSimTest, ChunkedRunUntilMatchesSingleRun) {
  // Chopping the run into odd-sized chunks must not change results: parcels
  // order by due time in the inbox heap, not by which window received them.
  const std::uint64_t base = pingpong_digest(2, false);
  EXPECT_EQ(pingpong_digest(2, false, Duration::millis(7)), base);
  EXPECT_EQ(pingpong_digest(2, false, Duration::millis(13)), base);
}

TEST(ShardedSimTest, SetupPostBeforeFirstRunIsAllowed) {
  ShardedSim ss(make_cfg(2, false));
  const auto g0 = ss.add_group();
  const auto g1 = ss.add_group();
  bool ran = false;
  // window_end_ == window_start_ == 0 outside a run; any due >= 0 is legal.
  ss.post(g0, g1, TimePoint::zero() + Duration::millis(5),
          [&ran] { ran = true; });
  ss.run_until(TimePoint::zero() + Duration::millis(20));
  EXPECT_TRUE(ran);
}

TEST(ShardedSimTest, StrictAffinityHeldDuringRun) {
  ShardedSim ss(make_cfg(1, false));
  const auto g0 = ss.add_group();
  bool strict_inside = false;
  ss.group_sim(g0).after(Duration::millis(1),
                         [&] { strict_inside = affinity::strict(); });
  EXPECT_FALSE(affinity::strict());
  ss.run_until(TimePoint::zero() + Duration::millis(5));
  EXPECT_TRUE(strict_inside);
  EXPECT_FALSE(affinity::strict());
}

TEST(ShardedSimTest, EpochsCountWindows) {
  ShardedSim ss(make_cfg(2, false));
  (void)ss.add_group();
  ss.run_until(TimePoint::zero() + Duration::millis(100));
  EXPECT_EQ(ss.epochs(), 10u);  // 100 ms / 10 ms lookahead
}

}  // namespace
}  // namespace iq::sim
