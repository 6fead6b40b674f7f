// Tests for the experiment harness: scheme construction, scenario configs,
// comparison rendering, and a reduced-scale end-to-end run.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include <cstdlib>

#include "iq/harness/cityscale.hpp"
#include "iq/harness/json.hpp"
#include "iq/harness/runner.hpp"
#include "iq/harness/paper.hpp"
#include "iq/harness/scenarios.hpp"

namespace iq::harness {
namespace {

// Non-finite doubles must render as `null`, never as bare nan/inf tokens
// that make the whole document unparseable (the contract json.hpp
// documents; the audit flight recorder mirrors it).
TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  JsonWriter w;
  w.begin_object()
      .field("nan", std::nan(""))
      .field("pinf", std::numeric_limits<double>::infinity())
      .field("ninf", -std::numeric_limits<double>::infinity())
      .field("finite", 2.5)
      .end_object();
  const std::string json = w.take();

  // "nan"/"inf" appear only inside the key strings, never as bare tokens.
  std::size_t nan_count = 0;
  for (std::size_t p = json.find("nan"); p != std::string::npos;
       p = json.find("nan", p + 1)) {
    ++nan_count;
  }
  EXPECT_EQ(nan_count, 1u) << json;
  std::size_t inf_count = 0;
  for (std::size_t p = json.find("inf"); p != std::string::npos;
       p = json.find("inf", p + 1)) {
    ++inf_count;
  }
  EXPECT_EQ(inf_count, 2u) << json;
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pinf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ninf\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"finite\":2.5"), std::string::npos) << json;
}

// Round trip through a nested document: the writer's output stays
// structurally balanced with non-finite metrics present.
TEST(JsonWriterTest, NonFiniteRoundTripStaysBalanced) {
  JsonWriter w;
  w.begin_object().key("metrics").begin_object();
  w.field("owd_p99", std::numeric_limits<double>::quiet_NaN());
  w.field("rate", 1.0e6);
  w.end_object().end_object();
  const std::string json = w.take();

  long depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"owd_p99\":null"), std::string::npos) << json;
}

TEST(SchemeSpecTest, FactoriesSetModes) {
  EXPECT_TRUE(SchemeSpec::tcp().use_tcp);
  EXPECT_EQ(SchemeSpec::rudp().mode, core::CoordinationMode::Uncoordinated);
  EXPECT_EQ(SchemeSpec::iq_rudp().mode, core::CoordinationMode::Coordinated);
  EXPECT_FALSE(SchemeSpec::iq_rudp_no_cond().enable_cond);
  EXPECT_EQ(SchemeSpec::app_only().cc, rudp::CcKind::Fixed);
}

TEST(ScenariosTest, ConfigsMatchPaperParameters) {
  const auto t1 = scenarios::table1(SchemeSpec::tcp(), false);
  EXPECT_EQ(t1.net.bottleneck_bps, 20'000'000);
  EXPECT_EQ(t1.net.path_rtt.ms(), 30);
  EXPECT_EQ(t1.cbr_rate_bps, 18'000'000);

  const auto t3 = scenarios::table3(SchemeSpec::iq_rudp());
  EXPECT_EQ(t3.adaptation, echo::AdaptKind::Marking);
  // Thresholds are the paper's 30 %/5 % scaled to the loss ratios our LDA
  // controller actually produces (see the scenario comment).
  EXPECT_GT(t3.upper_threshold, t3.lower_threshold);
  EXPECT_DOUBLE_EQ(t3.recv_loss_tolerance, 0.40);
  EXPECT_GE(t3.cbr_rate_bps, 10'000'000);

  const auto t7 = scenarios::table7(SchemeSpec::iq_rudp());
  EXPECT_EQ(t7.adapt_granularity, 20u);

  const auto t8 = scenarios::table8(SchemeSpec::iq_rudp());
  EXPECT_EQ(t8.net.path_rtt.ms(), 250);  // 125 ms one-way
  EXPECT_GT(t8.frame_rate, 0.0);         // rate-based application
  EXPECT_TRUE(t8.attach_cond);
}

TEST(ScenariosTest, SchemesShareTraceSeed) {
  const auto a = scenarios::table5(SchemeSpec::rudp());
  const auto b = scenarios::table5(SchemeSpec::iq_rudp());
  EXPECT_EQ(a.trace_seed, b.trace_seed);
  EXPECT_EQ(a.total_frames, b.total_frames);
}

TEST(ComparisonTest, RendersPaperAndMeasuredRows) {
  Comparison cmp("Table X", {"Time(s)", "Thr(KB/s)"});
  cmp.add_paper_row("IQ-RUDP", {60.0, 99.0});
  cmp.add_measured_row("IQ-RUDP", {58.2, 101.3});
  cmp.add_note("shape check only");
  const std::string out = cmp.render();
  EXPECT_NE(out.find("Table X"), std::string::npos);
  EXPECT_NE(out.find("paper"), std::string::npos);
  EXPECT_NE(out.find("measured"), std::string::npos);
  EXPECT_NE(out.find("note: shape check only"), std::string::npos);
}

TEST(RunExperimentTest, SmallRudpRunCompletes) {
  ExperimentConfig cfg = scenarios::base();
  cfg.scheme = SchemeSpec::iq_rudp();
  cfg.frame_rate = 20;
  cfg.total_frames = 50;
  cfg.fixed_frame_bytes = 5000;
  cfg.max_sim_time = Duration::seconds(120);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.summary.messages, 50u);
  EXPECT_DOUBLE_EQ(r.summary.delivered_pct, 100.0);
  EXPECT_GT(r.summary.duration_s, 1.0);
}

TEST(RunExperimentTest, SmallTcpRunCompletes) {
  ExperimentConfig cfg = scenarios::base();
  cfg.scheme = SchemeSpec::tcp();
  cfg.frame_rate = 20;
  cfg.total_frames = 50;
  cfg.fixed_frame_bytes = 5000;
  cfg.max_sim_time = Duration::seconds(120);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.summary.messages, 50u);
}

TEST(RunExperimentTest, DeterministicAcrossRuns) {
  ExperimentConfig cfg = scenarios::base();
  cfg.scheme = SchemeSpec::rudp();
  cfg.frame_rate = 50;
  cfg.total_frames = 40;
  cfg.fixed_frame_bytes = 3000;
  cfg.cbr_rate_bps = 16'000'000;
  cfg.max_sim_time = Duration::seconds(60);
  const ExperimentResult a = run_experiment(cfg);
  const ExperimentResult b = run_experiment(cfg);
  EXPECT_EQ(a.summary.duration_s, b.summary.duration_s);
  EXPECT_EQ(a.summary.throughput_kBps, b.summary.throughput_kBps);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

// The Table-1 golden (perfbench's sim_table1 checks the same count): any
// change to how the run is built or scheduled moves it.
TEST(RunExperimentTest, Table1GoldenEventCount) {
  const ExperimentResult r =
      run_experiment(scenarios::table1(SchemeSpec::iq_rudp(), true));
  EXPECT_EQ(r.events_executed, 464832u);
}

TEST(RunExperimentTest, CrossTrafficCausesLoss) {
  ExperimentConfig cfg = scenarios::base();
  cfg.scheme = SchemeSpec::rudp();
  cfg.frame_rate = 0;  // ASAP
  cfg.total_frames = 500;
  cfg.fixed_frame_bytes = 1400;
  cfg.cbr_rate_bps = 19'000'000;  // nearly saturates the bottleneck
  cfg.cross_start = Duration::millis(100);
  cfg.max_sim_time = Duration::seconds(120);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.rudp.segments_retransmitted, 0u);
  EXPECT_GT(r.app_lifetime_loss_ratio, 0.0);
}

TEST(RunExperimentTest, JitterSeriesCollectedWhenRequested) {
  ExperimentConfig cfg = scenarios::base();
  cfg.scheme = SchemeSpec::iq_rudp();
  cfg.frame_rate = 50;
  cfg.total_frames = 60;
  cfg.fixed_frame_bytes = 1000;
  cfg.collect_jitter_series = true;
  cfg.max_sim_time = Duration::seconds(60);
  const ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.jitter_series.size(), 40u);
}


// RAII save/set/restore for one environment variable (tests only; the
// harness itself never mutates the environment).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(RunnerThreadsTest, EnvOverridePinsPoolWidth) {
  ScopedEnv serial("IQ_HARNESS_SERIAL", nullptr);
  ScopedEnv env("IQ_HARNESS_THREADS", "3");
  EXPECT_EQ(harness_threads_env(), 3u);
  EXPECT_EQ(runner_threads(8), 3u);
  EXPECT_EQ(runner_threads(2), 2u);  // still capped by the job count
  EXPECT_EQ(cityscale_shards(), 3u);
}

TEST(RunnerThreadsTest, ExplicitArgumentBeatsEnv) {
  ScopedEnv serial("IQ_HARNESS_SERIAL", nullptr);
  ScopedEnv env("IQ_HARNESS_THREADS", "3");
  EXPECT_EQ(runner_threads(8, 5), 5u);
}

TEST(RunnerThreadsTest, SerialBeatsEverything) {
  ScopedEnv serial("IQ_HARNESS_SERIAL", "1");
  ScopedEnv env("IQ_HARNESS_THREADS", "3");
  EXPECT_EQ(runner_threads(8), 1u);
  EXPECT_EQ(runner_threads(8, 5), 1u);
  EXPECT_EQ(cityscale_shards(), 1u);
}

TEST(RunnerThreadsTest, InvalidEnvValuesAreUnset) {
  ScopedEnv serial("IQ_HARNESS_SERIAL", nullptr);
  for (const char* bad : {"0", "-2", "garbage", "", "1025", "3x"}) {
    ScopedEnv env("IQ_HARNESS_THREADS", bad);
    EXPECT_EQ(harness_threads_env(), 0u) << "value=\"" << bad << "\"";
  }
  ScopedEnv env("IQ_HARNESS_THREADS", nullptr);
  EXPECT_EQ(harness_threads_env(), 0u);
}

}  // namespace
}  // namespace iq::harness
