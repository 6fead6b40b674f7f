// City-scale fan-out scenario: bit-identical results at every shard count
// (the ShardedSim determinism contract carried through the full protocol
// stack), plus sanity on the aggregate metrics.
//
// Scaled down from the 10k-flow bench configuration so the matrix stays
// fast; bench/bench_cityscale.cpp and ci.sh --scale run the full size.

#include <gtest/gtest.h>

#include "iq/harness/cityscale.hpp"

namespace iq::harness {
namespace {

CityScaleConfig small_cfg() {
  CityScaleConfig cfg;
  cfg.sites = 6;
  cfg.subs_per_site = 8;
  cfg.sim_time = Duration::seconds(3);
  cfg.drain_time = Duration::seconds(1);
  return cfg;
}

TEST(CityScaleTest, TrafficFlowsEndToEnd) {
  CityScaleConfig cfg = small_cfg();
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.flows, 48u);
  EXPECT_GT(r.frames_published, 0u);
  EXPECT_GT(r.fanout_forwarded, 0u);
  EXPECT_GT(r.fanout_delivered, 0u);
  EXPECT_GT(r.joins, 0u);
  EXPECT_GT(r.delivery_ratio, 0.5);
  EXPECT_GT(r.jain_utilization, 0.0);
  EXPECT_LE(r.jain_utilization, 1.0 + 1e-9);
  EXPECT_GT(r.parcels_delivered, 0u);  // trunk traffic crossed the mailbox
  // Absolute goldens: the shard-count tests below only compare runs with
  // each other, so a change in how flows are built would pass them.
  EXPECT_EQ(r.events_executed, 18507u);
  EXPECT_EQ(r.parcels_delivered, 1056u);
  EXPECT_EQ(r.digest, 0x29a68f316f7b7537ull);
}

TEST(CityScaleTest, BitIdenticalAcrossShardCounts) {
  CityScaleConfig cfg = small_cfg();
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  for (const std::size_t shards : {2u, 4u, 7u}) {
    cfg.shards = shards;
    const CityScaleResult r = run_cityscale(cfg);
    EXPECT_EQ(r.digest, base.digest) << "shards=" << shards;
    EXPECT_EQ(r.events_executed, base.events_executed) << "shards=" << shards;
    EXPECT_EQ(r.parcels_delivered, base.parcels_delivered)
        << "shards=" << shards;
    EXPECT_EQ(r.fanout_delivered, base.fanout_delivered)
        << "shards=" << shards;
  }
}

TEST(CityScaleTest, ThreadedMatchesInline) {
  CityScaleConfig cfg = small_cfg();
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  cfg.shards = 4;
  cfg.threaded = true;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  EXPECT_EQ(r.events_executed, base.events_executed);
}

TEST(CityScaleTest, UncoordinatedModeIsDeterministicToo) {
  CityScaleConfig cfg = small_cfg();
  cfg.mode = core::CoordinationMode::Uncoordinated;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  cfg.shards = 3;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  EXPECT_GT(r.fanout_delivered, 0u);
}

TEST(CityScaleTest, CongestionManagerVariantIsDeterministic) {
  CityScaleConfig cfg = small_cfg();
  cfg.attach_cm = true;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  EXPECT_GT(base.fanout_delivered, 0u);
  cfg.shards = 4;
  cfg.threaded = true;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
}

TEST(CityScaleTest, OverloadedAdaptationPathIsDeterministic) {
  // Push the slow access links past saturation so losses trigger the
  // error-ratio callbacks and resolution policies actually shrink — the
  // adaptation path must be just as shard-count-invariant as the happy one.
  CityScaleConfig cfg = small_cfg();
  cfg.sim_time = Duration::seconds(4);
  cfg.publisher_fps = 30.0;
  cfg.bytes_per_member = 600;
  cfg.shards = 1;
  const CityScaleResult base = run_cityscale(cfg);
  EXPECT_LT(base.mean_scale, 1.0);  // somebody shrank
  EXPECT_LT(base.delivery_ratio, 1.0);
  cfg.shards = 3;
  const CityScaleResult r = run_cityscale(cfg);
  EXPECT_EQ(r.digest, base.digest);
  cfg.shards = 3;
  cfg.threaded = true;
  const CityScaleResult t = run_cityscale(cfg);
  EXPECT_EQ(t.digest, base.digest);
}

TEST(CityScaleTest, RerunIsBitIdentical) {
  // Same config twice — the scenario itself must be replay-deterministic
  // before cross-shard identity means anything.
  CityScaleConfig cfg = small_cfg();
  const CityScaleResult a = run_cityscale(cfg);
  const CityScaleResult b = run_cityscale(cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

}  // namespace
}  // namespace iq::harness
