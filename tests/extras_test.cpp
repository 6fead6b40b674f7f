// Tests for the auxiliary tooling: trace file I/O, the protocol segment
// tap, and JSON result serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "iq/core/iq_connection.hpp"
#include "iq/harness/json.hpp"
#include "iq/harness/scenarios.hpp"
#include "iq/rudp/connection.hpp"
#include "iq/sim/simulator.hpp"
#include "iq/wire/lossy_wire.hpp"
#include "iq/workload/mbone_trace.hpp"

namespace iq {
namespace {

// ----------------------------------------------------------- trace I/O ----

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path(testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(TraceIoTest, SaveLoadRoundTrip) {
  TempFile f("trace_roundtrip.txt");
  workload::MboneTrace original;
  ASSERT_TRUE(original.save(f.path));
  auto loaded = workload::MboneTrace::load(f.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->groups(), original.groups());
}

TEST(TraceIoTest, LoadsPlainAndCsvForms) {
  TempFile f("trace_forms.txt");
  std::ofstream(f.path) << "# comment\n5\n\n10\n2,15\n";
  auto t = workload::MboneTrace::load(f.path);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->groups(), (std::vector<int>{5, 10, 15}));
}

TEST(TraceIoTest, MissingFileIsNullopt) {
  EXPECT_FALSE(workload::MboneTrace::load("/nonexistent/trace").has_value());
}

TEST(TraceIoTest, MalformedLineIsNullopt) {
  TempFile f("trace_bad.txt");
  std::ofstream(f.path) << "5\nnot-a-number\n";
  EXPECT_FALSE(workload::MboneTrace::load(f.path).has_value());
}

TEST(TraceIoTest, ExplicitSeriesConstructor) {
  workload::MboneTrace t(std::vector<int>{3, 9, 27});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.group_at(1), 9);
  EXPECT_EQ(t.group_at(4), 9);  // wraps
}

// ---------------------------------------------------------- segment tap ---

TEST(SegmentTapTest, SeesBothDirections) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(5)});
  rudp::RudpConnection snd(wires.a(), {}, rudp::Role::Client);
  rudp::RudpConnection rcv(wires.b(), {}, rudp::Role::Server);

  std::vector<std::pair<rudp::RudpConnection::TapDirection, rudp::SegmentType>>
      tapped;
  snd.set_segment_tap([&](rudp::RudpConnection::TapDirection dir,
                          const rudp::Segment& seg) {
    tapped.emplace_back(dir, seg.type);
  });

  rcv.listen();
  snd.connect();
  sim.run_until(TimePoint::zero() + Duration::millis(100));
  snd.send_message({.bytes = 1000});
  sim.run_until(TimePoint::zero() + Duration::seconds(1));

  // SYN out, SYN-ACK in, DATA out, ACK in — in that order.
  ASSERT_GE(tapped.size(), 4u);
  using Dir = rudp::RudpConnection::TapDirection;
  EXPECT_EQ(tapped[0], (std::pair{Dir::Out, rudp::SegmentType::Syn}));
  EXPECT_EQ(tapped[1], (std::pair{Dir::In, rudp::SegmentType::SynAck}));
  EXPECT_EQ(tapped[2], (std::pair{Dir::Out, rudp::SegmentType::Data}));
  EXPECT_EQ(tapped[3], (std::pair{Dir::In, rudp::SegmentType::Ack}));
}

TEST(SegmentTapTest, ForeignConnIdNotTapped) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(5)});
  rudp::RudpConfig cfg_a;
  cfg_a.conn_id = 1;
  rudp::RudpConfig cfg_b;
  cfg_b.conn_id = 2;  // mismatched: everything ignored
  rudp::RudpConnection snd(wires.a(), cfg_a, rudp::Role::Client);
  rudp::RudpConnection rcv(wires.b(), cfg_b, rudp::Role::Server);
  int tapped_in = 0;
  rcv.set_segment_tap([&](rudp::RudpConnection::TapDirection dir,
                          const rudp::Segment&) {
    if (dir == rudp::RudpConnection::TapDirection::In) ++tapped_in;
  });
  rcv.listen();
  snd.connect();
  sim.run_until(TimePoint::zero() + Duration::millis(600));
  EXPECT_EQ(tapped_in, 0);
}

// ------------------------------------------- receiver metric export -------

TEST(RecvMetricsTest, ReceiverPublishesDeliveryRate) {
  sim::Simulator sim;
  wire::LossyWirePair wires(sim, {.one_way_delay = Duration::millis(10)});
  core::IqRudpConnection snd(wires.a(), {}, rudp::Role::Client);
  core::IqRudpConnection rcv(wires.b(), {}, rudp::Role::Server);
  rcv.set_message_handler([](const rudp::DeliveredMessage&) {});
  rcv.listen();
  snd.connect();
  sim.run_until(TimePoint::zero() + Duration::millis(200));

  for (int i = 0; i < 20; ++i) snd.send({.bytes = 10'000});
  sim.run_until(TimePoint::zero() + Duration::seconds(3));

  auto& store = rcv.attributes();
  ASSERT_TRUE(store.has(attr::kRecvMsgsDelivered));
  EXPECT_EQ(store.query(attr::kRecvMsgsDelivered)->as_int(), 20);
  EXPECT_EQ(store.query(attr::kRecvMsgsDropped)->as_int(), 0);
  // Some one-second window saw a nonzero delivery rate.
  ASSERT_TRUE(store.has(attr::kRecvRateBps));
}

// ------------------------------------------------------------- JSON -------

TEST(JsonWriterTest, ObjectShape) {
  harness::JsonWriter w;
  w.begin_object();
  w.field("name", "iq-rudp");
  w.field("count", std::int64_t{3});
  w.field("ratio", 0.5);
  w.field("on", true);
  w.end_object();
  EXPECT_EQ(w.take(),
            R"({"name":"iq-rudp","count":3,"ratio":0.5,"on":true})");
}

TEST(JsonWriterTest, EscapesStrings) {
  harness::JsonWriter w;
  w.begin_object();
  w.field("k", "a\"b\\c\nd");
  w.end_object();
  EXPECT_EQ(w.take(), R"({"k":"a\"b\\c\nd"})");
}

TEST(JsonWriterTest, NestedObjects) {
  harness::JsonWriter w;
  w.begin_object();
  w.key("outer").begin_object();
  w.field("x", std::int64_t{1});
  w.end_object();
  w.field("y", std::int64_t{2});
  w.end_object();
  EXPECT_EQ(w.take(), R"({"outer":{"x":1},"y":2})");
}

TEST(JsonResultTest, ContainsAllSections) {
  auto cfg = harness::scenarios::base();
  cfg.scheme = harness::SchemeSpec::iq_rudp();
  cfg.frame_rate = 50;
  cfg.total_frames = 30;
  cfg.fixed_frame_bytes = 1000;
  cfg.max_sim_time = Duration::seconds(30);
  const auto r = harness::run_experiment(cfg);
  const std::string json = harness::result_to_json(cfg, r);
  for (const char* needle :
       {"\"config\":", "\"summary\":", "\"transport\":", "\"coordination\":",
        "\"scheme\":\"IQ-RUDP\"", "\"completed\":true",
        "\"duration_s\":", "\"window_rescales\":"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
  // Balanced braces.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace iq
