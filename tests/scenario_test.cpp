// Hostile-network scenario matrix: the three canonical profiles must
// complete byte-identical transfers without wedging, the cellular profile
// must survive a terminal connection failure via reconnect + resume, and
// the recovery scorer itself is pinned on synthetic series.

#include <gtest/gtest.h>

#include "iq/scenario/profile.hpp"
#include "iq/scenario/runner.hpp"
#include "iq/scenario/score.hpp"

namespace iq::scenario {
namespace {

// ------------------------------------------------------------ the scorer --

std::vector<double> ramp(double rate_per_sample, std::size_t n,
                         std::size_t dark_from, std::size_t dark_to,
                         double post_rate) {
  std::vector<double> cum;
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k < dark_from) {
      total += rate_per_sample;
    } else if (k >= dark_to) {
      total += post_rate;
    }
    cum.push_back(total);
  }
  return cum;
}

TEST(RateScoreTest, FullRecoveryScoresOne) {
  // 1000 bytes per 250 ms sample, dark from 10 s to 12 s, same rate after.
  const auto cum = ramp(1000, 120, 40, 48, 1000);
  const RateScore s = score_recovery(cum, Duration::seconds(10),
                                     Duration::seconds(12));
  EXPECT_NEAR(s.prefault_rate_bps, 4000.0, 1.0);
  EXPECT_NEAR(s.recovery_ratio, 1.0, 0.01);
  EXPECT_GE(s.recovery_time_s, 0.0);
  EXPECT_LE(s.recovery_time_s, 3.0);
}

TEST(RateScoreTest, HalfRateRecoveryScoresHalf) {
  const auto cum = ramp(1000, 120, 40, 48, 500);
  const RateScore s = score_recovery(cum, Duration::seconds(10),
                                     Duration::seconds(12));
  EXPECT_NEAR(s.recovery_ratio, 0.5, 0.01);
  EXPECT_LT(s.recovery_ratio, 0.8);
  EXPECT_EQ(s.recovery_time_s, -1.0);  // never reached the 80% threshold
}

TEST(RateScoreTest, QuietPrefaultScoresTriviallyRecovered) {
  const std::vector<double> cum(120, 0.0);  // nothing ever flowed
  const RateScore s = score_recovery(cum, Duration::seconds(10),
                                     Duration::seconds(12));
  EXPECT_NEAR(s.recovery_ratio, 1.0, 1e-12);
  EXPECT_EQ(s.recovery_time_s, 0.0);
}

TEST(RateScoreTest, WedgeDetection) {
  // Progress, then a flat tail longer than the stall window.
  std::vector<double> stalled = ramp(1000, 60, 40, 60, 0);
  EXPECT_TRUE(is_wedged(stalled, Duration::millis(250), Duration::seconds(5)));
  std::vector<double> flowing = ramp(1000, 60, 40, 44, 1000);
  EXPECT_FALSE(
      is_wedged(flowing, Duration::millis(250), Duration::seconds(5)));
  // Too short a series can't be judged wedged.
  EXPECT_FALSE(is_wedged({0.0, 0.0}, Duration::millis(250),
                         Duration::seconds(5)));
}

// ----------------------------------------------------------- the profiles --

TEST(ScenarioTest, ProfileNamesAndModes) {
  const ScenarioConfig sat = make_profile(Profile::Satellite, true);
  EXPECT_EQ(sat.name, "satellite_coord");
  EXPECT_TRUE(sat.coordinated);
  EXPECT_GT(sat.critical_stride, 1u);
  const ScenarioConfig unc = make_profile(Profile::Satellite, false);
  EXPECT_EQ(unc.name, "satellite_uncoord");
  // Uncoordinated runs are fully reliable: every block critical.
  EXPECT_EQ(unc.critical_stride, 1u);
  EXPECT_DOUBLE_EQ(unc.recv_loss_tolerance, 0.0);
  EXPECT_FALSE(make_profile(Profile::Incast, true).video);
  EXPECT_EQ(make_profile(Profile::Incast, true).senders, 6u);
}

TEST(ScenarioTest, SatelliteCoordinatedSurvivesRainFade) {
  const ScenarioResult r = run_scenario(make_profile(Profile::Satellite, true));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.wedged);
  EXPECT_TRUE(r.crc_ok);
  EXPECT_TRUE(r.critical_complete);
  EXPECT_TRUE(r.audits_clean);
  // The 500 ms RTT path with a sub-RTT keepalive clock must not false-trip:
  // the satellite blackout (2 s) is survivable, so no terminal failure.
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.reconnects, 0u);
  EXPECT_GT(r.video_frames_delivered, 0u);
  EXPECT_GT(r.recovery.prefault_rate_bps, 0.0);
}

TEST(ScenarioTest, CellularTerminalFailureReconnectsAndResumes) {
  const ScenarioResult r = run_scenario(make_profile(Profile::Cellular, true));
  // The 6 s tunnel kills the transfer's connection terminally...
  EXPECT_GE(r.failures, 1u);
  EXPECT_GE(r.reconnects, 1u);
  // ...and the transfer still ends complete and byte-identical.
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.wedged);
  EXPECT_TRUE(r.crc_ok);
  EXPECT_TRUE(r.critical_complete);
  EXPECT_TRUE(r.audits_clean);
  // Golden: this run reconnects, so it pins how a fresh generation is built.
  EXPECT_EQ(r.events_executed, 96248u);
}

TEST(ScenarioTest, IncastFanInCompletesAllSenders) {
  const ScenarioConfig cfg = make_profile(Profile::Incast, true);
  const ScenarioResult r = run_scenario(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.wedged);
  EXPECT_TRUE(r.crc_ok);
  EXPECT_TRUE(r.audits_clean);
  EXPECT_EQ(r.blocks_total, cfg.senders * cfg.file.block_count());
  EXPECT_EQ(r.blocks_received, r.blocks_total);
}

TEST(ScenarioTest, UncoordinatedCellularStillNeverWedges) {
  // The uncoordinated run degrades worse (that delta is the point of the
  // matrix) but the survivability floor applies to both modes.
  const ScenarioResult r =
      run_scenario(make_profile(Profile::Cellular, false));
  EXPECT_TRUE(r.completed);
  EXPECT_FALSE(r.wedged);
  EXPECT_TRUE(r.crc_ok);
  EXPECT_TRUE(r.audits_clean);
}

}  // namespace
}  // namespace iq::scenario
