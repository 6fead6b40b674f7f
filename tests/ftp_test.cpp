// Tests for the IQ-FTP module: manifest/framing, complete transfer,
// selective loss under congestion, hole reporting, deterministic content
// digests, per-chunk deadlines, and resume across terminal connection
// failure.

#include <gtest/gtest.h>

#include <memory>

#include "iq/fault/injector.hpp"
#include "iq/ftp/iq_ftp.hpp"
#include "iq/net/dumbbell.hpp"
#include "iq/net/sinks.hpp"
#include "iq/wire/sim_wire.hpp"
#include "iq/workload/cbr_source.hpp"

namespace iq::ftp {
namespace {

struct FtpRig {
  sim::Simulator sim;
  net::Network network{sim};
  net::Dumbbell db{network, {.pairs = 2}};
  net::CountingSink cross_sink;
  std::unique_ptr<workload::CbrSource> cross;
  std::unique_ptr<wire::SimWire> wsnd;
  std::unique_ptr<wire::SimWire> wrcv;
  std::unique_ptr<core::IqRudpConnection> snd;
  std::unique_ptr<core::IqRudpConnection> rcv;
  std::unique_ptr<IqFtpSender> sender;
  std::unique_ptr<IqFtpReceiver> receiver;

  FtpRig(const FileSpec& file, CriticalFn critical, double tolerance,
         std::int64_t cross_bps) {
    if (cross_bps > 0) {
      db.right(1).bind(9000, &cross_sink);
      workload::CbrConfig cc;
      cc.rate_bps = cross_bps;
      cross = std::make_unique<workload::CbrSource>(network, db.left(1),
                                                    db.right(1), cc);
      cross->start();
    }
    const net::Endpoint a{db.left(0).id(), 21};
    const net::Endpoint b{db.right(0).id(), 21};
    wsnd = std::make_unique<wire::SimWire>(network, a, b, 1);
    wrcv = std::make_unique<wire::SimWire>(network, b, a, 1);
    rudp::RudpConfig scfg;
    rudp::RudpConfig rcfg;
    rcfg.recv_loss_tolerance = tolerance;
    snd = std::make_unique<core::IqRudpConnection>(*wsnd, scfg,
                                                   rudp::Role::Client);
    rcv = std::make_unique<core::IqRudpConnection>(*wrcv, rcfg,
                                                   rudp::Role::Server);
    sender = std::make_unique<IqFtpSender>(*snd, file, std::move(critical));
    receiver = std::make_unique<IqFtpReceiver>(*rcv);
    rcv->listen();
    snd->set_established_handler([this] { sender->start(); });
    snd->connect();
  }

  void run_until_complete(double max_s) {
    const TimePoint deadline = TimePoint::zero() + Duration::from_seconds(max_s);
    while (sim.now() < deadline && !receiver->complete()) {
      sim.run_for(Duration::millis(100));
    }
  }
};

TEST(FileSpecTest, BlockGeometry) {
  FileSpec f{.total_bytes = 100'000, .block_bytes = 16'384};
  EXPECT_EQ(f.block_count(), 7u);
  EXPECT_EQ(f.bytes_of_block(0), 16'384);
  EXPECT_EQ(f.bytes_of_block(6), 100'000 - 6 * 16'384);
}

TEST(FileSpecTest, ExactMultiple) {
  FileSpec f{.total_bytes = 32'768, .block_bytes = 16'384};
  EXPECT_EQ(f.block_count(), 2u);
  EXPECT_EQ(f.bytes_of_block(1), 16'384);
}

TEST(IqFtpTest, UncongestedTransferCompletesFully) {
  FileSpec file{.total_bytes = 1'000'000, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t) { return true; }, 0.0, 0);
  rig.run_until_complete(60);
  ASSERT_TRUE(rig.receiver->complete());
  const auto& rep = rig.receiver->report();
  EXPECT_EQ(rep.blocks_total, file.block_count());
  EXPECT_EQ(rep.blocks_received, file.block_count());
  EXPECT_EQ(rep.bytes_received, file.total_bytes);
  EXPECT_TRUE(rep.missing.empty());
  EXPECT_TRUE(rig.sender->done());
}

TEST(IqFtpTest, SelectiveTransferKeepsCriticalBlocks) {
  FileSpec file{.total_bytes = 4'000'000, .block_bytes = 16'384};
  auto critical = [](std::uint64_t b) { return b < 8 || b % 10 == 0; };
  FtpRig rig(file, critical, /*tolerance=*/0.5, /*cross=*/17'000'000);
  rig.run_until_complete(300);
  ASSERT_TRUE(rig.receiver->complete());
  const auto& rep = rig.receiver->report();
  // Every critical block arrived.
  EXPECT_EQ(rep.critical_received, rig.sender->critical_blocks());
  for (std::uint64_t missing : rep.missing) {
    EXPECT_FALSE(critical(missing)) << "critical block " << missing
                                    << " was abandoned";
  }
  // Under heavy congestion with 50% tolerance, some blocks were abandoned.
  EXPECT_GT(rep.missing.size(), 0u);
  EXPECT_LE(static_cast<double>(rep.missing.size()),
            0.5 * static_cast<double>(rep.blocks_total) + 1);
}

TEST(IqFtpTest, SelectiveFasterThanReliableUnderCongestion) {
  FileSpec file{.total_bytes = 3'000'000, .block_bytes = 16'384};
  auto critical = [](std::uint64_t b) { return b % 10 == 0; };

  FtpRig lossy(file, critical, 0.5, 17'000'000);
  lossy.run_until_complete(300);
  FtpRig reliable(file, [](std::uint64_t) { return true; }, 0.0, 17'000'000);
  reliable.run_until_complete(300);

  ASSERT_TRUE(lossy.receiver->complete());
  ASSERT_TRUE(reliable.receiver->complete());
  EXPECT_LT(lossy.receiver->report().duration_s(),
            reliable.receiver->report().duration_s());
  EXPECT_TRUE(reliable.receiver->report().missing.empty());
}

TEST(IqFtpTest, HoleFillSecondPassCompletesTheFile) {
  FileSpec file{.total_bytes = 2'000'000, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t b) { return b % 5 == 0; }, 0.5,
             17'000'000);
  rig.run_until_complete(300);
  ASSERT_TRUE(rig.receiver->complete());
  const auto holes = rig.receiver->report().missing;
  ASSERT_GT(holes.size(), 0u);

  // Stop the cross traffic (transfer window found) and fill the holes.
  rig.cross->stop();
  rig.sender->fill_holes(holes);
  const TimePoint deadline = rig.sim.now() + Duration::seconds(120);
  while (rig.sim.now() < deadline &&
         !rig.receiver->report().missing.empty()) {
    rig.sim.run_for(Duration::millis(100));
  }
  EXPECT_TRUE(rig.receiver->report().missing.empty());
  EXPECT_EQ(rig.receiver->report().blocks_received, file.block_count());
  EXPECT_EQ(rig.receiver->report().bytes_received, file.total_bytes);
}

TEST(IqFtpTest, MissingListMatchesBitmap) {
  FileSpec file{.total_bytes = 2'000'000, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t b) { return b % 2 == 0; }, 0.5,
             17'000'000);
  rig.run_until_complete(300);
  ASSERT_TRUE(rig.receiver->complete());
  const auto& rep = rig.receiver->report();
  EXPECT_EQ(rep.blocks_received + rep.missing.size(), rep.blocks_total);
  // Missing indices are sorted and unique by construction.
  for (std::size_t i = 1; i < rep.missing.size(); ++i) {
    EXPECT_LT(rep.missing[i - 1], rep.missing[i]);
  }
}

// An endpoint removes every handler it installed on its connection when it
// is destroyed, so a connection that outlives the transfer keeps working:
// blocks already queued are still delivered to the receiver's connection,
// and the sender's connection keeps taking acks, each of which fires the
// drained handler once its queue is empty. A handler left behind would
// call into a freed endpoint (AddressSanitizer reports it).
TEST(IqFtpTest, DestroyedEndpointsLeaveTheirConnectionsSafe) {
  FileSpec file{.total_bytes = 4'000'000, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t) { return true; }, 0.0, 0);
  const TimePoint limit = TimePoint::zero() + Duration::seconds(30);
  while (rig.sim.now() < limit &&
         rig.receiver->report().blocks_received < 16) {
    rig.sim.run_for(Duration::millis(10));
  }
  ASSERT_GE(rig.receiver->report().blocks_received, 16u);
  ASSERT_FALSE(rig.receiver->complete());

  const auto delivered = [&] {
    return rig.rcv->transport().stats().messages_delivered;
  };
  const std::uint64_t delivered0 = delivered();
  rig.receiver.reset();
  rig.sim.run_for(Duration::millis(100));
  const std::uint64_t delivered1 = delivered();
  EXPECT_GT(delivered1, delivered0);

  const std::uint64_t acks0 = rig.snd->transport().stats().acks_received;
  rig.sender.reset();
  rig.sim.run_for(Duration::millis(500));
  EXPECT_GT(delivered(), delivered1);
  EXPECT_GT(rig.snd->transport().stats().acks_received, acks0);
  EXPECT_TRUE(rig.snd->transport().send_idle());
  EXPECT_TRUE(rig.snd->established());
  EXPECT_TRUE(rig.rcv->established());
}

TEST(FileImageTest, DeterministicAcrossInstances) {
  FileSpec file{.total_bytes = 100'000, .block_bytes = 16'384};
  FileImage a(file, 42);
  FileImage b(file, 42);
  FileImage c(file, 43);
  ASSERT_EQ(a.block_crcs().size(), file.block_count());
  EXPECT_EQ(a.block_crcs(), b.block_crcs());
  EXPECT_NE(a.block_crcs(), c.block_crcs());
}

TEST(FileImageTest, PartialFinalBlockDigestsOnlyItsBytes) {
  // Same content seed, different tail length → the last block's digest
  // must differ (only `bytes_of_block` bytes are hashed, not the buffer).
  FileSpec full{.total_bytes = 2 * 16'384, .block_bytes = 16'384};
  FileSpec ragged{.total_bytes = 16'384 + 100, .block_bytes = 16'384};
  FileImage a(full, 42);
  FileImage b(ragged, 42);
  EXPECT_EQ(a.block_crc(0), b.block_crc(0));
  EXPECT_NE(a.block_crc(1), b.block_crc(1));
}

TEST(IqFtpTest, ZeroLengthFileCompletesOnManifestAlone) {
  FileSpec file{.total_bytes = 0, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t) { return true; }, 0.0, 0);
  rig.run_until_complete(30);
  ASSERT_TRUE(rig.receiver->complete());
  const auto& rep = rig.receiver->report();
  EXPECT_EQ(rep.blocks_total, 0u);
  EXPECT_EQ(rep.blocks_received, 0u);
  EXPECT_EQ(rep.bytes_received, 0);
  EXPECT_TRUE(rep.missing.empty());
  EXPECT_DOUBLE_EQ(rep.deadline_hit_ratio(), 1.0);
  EXPECT_TRUE(rig.sender->done());
}

TEST(IqFtpTest, PartialFinalChunkDeliversExactByteCount) {
  // total_bytes deliberately not a multiple of block_bytes.
  FileSpec file{.total_bytes = 1'000'000 + 777, .block_bytes = 16'384};
  FtpRig rig(file, [](std::uint64_t) { return true; }, 0.0, 0);
  rig.run_until_complete(60);
  ASSERT_TRUE(rig.receiver->complete());
  const auto& rep = rig.receiver->report();
  EXPECT_EQ(rep.blocks_received, file.block_count());
  EXPECT_EQ(rep.bytes_received, file.total_bytes);
  EXPECT_EQ(file.bytes_of_block(file.block_count() - 1),
            file.total_bytes % file.block_bytes);
}

TEST(IqFtpTest, DeadlinePolicyScoresOnTimeBlocks) {
  FileSpec file{.total_bytes = 500'000, .block_bytes = 16'384};

  // Generous budget on a clean link: every block makes its deadline.
  FtpRig generous(file, [](std::uint64_t) { return true; }, 0.0, 0);
  generous.receiver->set_deadline_policy(
      {.grace = Duration::seconds(30), .per_block = Duration::millis(100)});
  generous.run_until_complete(60);
  ASSERT_TRUE(generous.receiver->complete());
  EXPECT_EQ(generous.receiver->report().blocks_on_time, file.block_count());
  EXPECT_DOUBLE_EQ(generous.receiver->report().deadline_hit_ratio(), 1.0);

  // An impossible budget: nothing can beat a zero-grace nanosecond clock.
  FtpRig tight(file, [](std::uint64_t) { return true; }, 0.0, 0);
  tight.receiver->set_deadline_policy(
      {.grace = Duration::zero(), .per_block = Duration::nanos(1)});
  tight.run_until_complete(60);
  ASSERT_TRUE(tight.receiver->complete());
  EXPECT_EQ(tight.receiver->report().blocks_on_time, 0u);
  EXPECT_DOUBLE_EQ(tight.receiver->report().deadline_hit_ratio(), 0.0);
}

TEST(IqFtpTest, CleanTransferMatchesImageDigests) {
  FileSpec file{.total_bytes = 1'000'000, .block_bytes = 16'384};
  FileImage image(file, 7);
  sim::Simulator sim;
  net::Network network{sim};
  net::Dumbbell db{network, {.pairs = 1}};
  const net::Endpoint a{db.left(0).id(), 21};
  const net::Endpoint b{db.right(0).id(), 21};
  wire::SimWire wsnd(network, a, b, 1);
  wire::SimWire wrcv(network, b, a, 1);
  core::IqRudpConnection snd(wsnd, {}, rudp::Role::Client);
  core::IqRudpConnection rcv(wrcv, {}, rudp::Role::Server);
  IqFtpSender sender(snd, file, [](std::uint64_t) { return true; }, &image);
  IqFtpReceiver receiver(rcv);
  rcv.listen();
  snd.set_established_handler([&] { sender.start(); });
  snd.connect();
  const TimePoint deadline = TimePoint::zero() + Duration::seconds(60);
  while (sim.now() < deadline && !receiver.complete()) {
    sim.run_for(Duration::millis(100));
  }
  ASSERT_TRUE(receiver.complete());
  EXPECT_TRUE(receiver.matches(image));
  // A different content seed must not match.
  FileImage other(file, 8);
  EXPECT_FALSE(receiver.matches(other));
}

// The acceptance scenario for survivable transfer: a mid-transfer blackout
// kills the connection terminally; both endpoints re-attach to a fresh
// connection pair and the transfer resumes to a byte-identical file.
TEST(FtpResumeTest, SurvivesTerminalFailureByteIdentical) {
  FileSpec file{.total_bytes = 6'000'000, .block_bytes = 16'384};
  FileImage image(file, 99);

  sim::Simulator sim;
  net::Network network{sim};
  net::Dumbbell db{network, {.pairs = 1}};
  fault::FaultInjector injector(sim);
  injector.add_target(db.bottleneck());
  injector.add_target(db.bottleneck_reverse());
  // Dark from 2s to 10s — far longer than the sender's RTO-streak budget.
  fault::FaultPlan plan;
  plan.blackout(Duration::seconds(2), Duration::seconds(8), 0);
  plan.blackout(Duration::seconds(2), Duration::seconds(8), 1);
  injector.arm(plan);

  rudp::RudpConfig cfg;
  cfg.max_rto_streak = 3;  // give up ~1.4s into the outage

  auto open_pair = [&](std::uint16_t port) {
    const net::Endpoint a{db.left(0).id(), port};
    const net::Endpoint b{db.right(0).id(), port};
    struct Gen {
      std::unique_ptr<wire::SimWire> wsnd, wrcv;
      std::unique_ptr<core::IqRudpConnection> snd, rcv;
    } g;
    g.wsnd = std::make_unique<wire::SimWire>(network, a, b, 1);
    g.wrcv = std::make_unique<wire::SimWire>(network, b, a, 1);
    g.snd = std::make_unique<core::IqRudpConnection>(*g.wsnd, cfg,
                                                     rudp::Role::Client);
    g.rcv = std::make_unique<core::IqRudpConnection>(*g.wrcv, cfg,
                                                     rudp::Role::Server);
    return g;
  };

  // Both generations outlive the endpoints, which unhook from the
  // connection they were last attached to when they are destroyed.
  auto gen0 = open_pair(21);
  decltype(gen0) gen1;
  IqFtpSender sender(*gen0.snd, file, [](std::uint64_t) { return true; },
                     &image);
  IqFtpReceiver receiver(*gen0.rcv);
  bool failed = false;
  gen0.snd->set_error_observer([&](rudp::FailureReason) { failed = true; });
  gen0.rcv->listen();
  gen0.snd->set_established_handler([&] { sender.start(); });
  gen0.snd->connect();

  // Run until the blackout kills the sender's connection.
  const TimePoint fail_deadline = TimePoint::zero() + Duration::seconds(9);
  while (sim.now() < fail_deadline && !failed) {
    sim.run_for(Duration::millis(50));
  }
  ASSERT_TRUE(failed);
  ASSERT_TRUE(gen0.snd->transport().failed());
  EXPECT_FALSE(receiver.complete());
  const std::uint64_t received_before =
      receiver.report().blocks_received;
  EXPECT_GT(received_before, 0u);
  EXPECT_LT(received_before, file.block_count());

  // Fresh connection generation on a new port; the old pair stays alive
  // until attach() has harvested its counters.
  gen1 = open_pair(22);
  sender.attach(*gen1.snd);
  receiver.attach(*gen1.rcv);
  EXPECT_TRUE(sender.awaiting_resume());
  EXPECT_EQ(sender.resumes(), 1u);
  gen1.rcv->listen();
  gen1.snd->set_established_handler([&] { sender.start(); });
  gen1.snd->connect();

  const TimePoint done_deadline = TimePoint::zero() + Duration::seconds(120);
  while (sim.now() < done_deadline && !receiver.complete()) {
    sim.run_for(Duration::millis(100));
  }
  ASSERT_TRUE(receiver.complete());
  const auto& rep = receiver.report();
  EXPECT_TRUE(rep.missing.empty());
  EXPECT_EQ(rep.blocks_received, file.block_count());
  EXPECT_EQ(rep.bytes_received, file.total_bytes);
  EXPECT_FALSE(sender.awaiting_resume());
  // Byte identity: every delivered digest matches the generating image.
  EXPECT_TRUE(receiver.matches(image));
}

}  // namespace
}  // namespace iq::ftp
