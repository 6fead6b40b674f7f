#pragma once
// IQ-FTP: selectively lossy bulk file transfer over IQ-RUDP — the concrete
// system the paper's conclusion announces ("end users can dynamically
// select, with user-provided functions, the most critical file contents to
// be transferred").
//
// The file is divided into fixed-size blocks. A user-supplied criticality
// function marks the blocks that must arrive; the rest ride unmarked and
// may be abandoned under congestion within the receiver's loss tolerance.
// The receiver reassembles a block map and reports completion with the
// exact set of holes, so a later pass (or a different channel) can fill
// them.
//
// Transfers are *survivable*: when a connection dies terminally (blackout →
// RTO streak / keepalive timeout), both endpoints can be re-attached to a
// fresh connection and the transfer resumes where it left off. The sender's
// first manifest on the new connection carries a resume query; the receiver
// answers with the first block it is still missing, and streaming restarts
// from that offset (the receiver's block bitmap dedups anything re-sent).
//
// Messages in the simulator carry virtual payload sizes, not content bytes,
// so byte-identity across a resumed transfer is modeled by FileImage: a
// seeded deterministic content generator whose per-block CRC-32 digests
// ride each block message as an attribute. A transfer is byte-identical
// exactly when every received block's digest matches a freshly generated
// image — resume bookkeeping that replayed the wrong offsets would show up
// as digest mismatches.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "iq/core/iq_connection.hpp"
#include "iq/sim/timer.hpp"

namespace iq::ftp {

struct FileSpec {
  std::int64_t total_bytes = 0;
  std::int64_t block_bytes = 16 * 1024;

  std::uint64_t block_count() const {
    if (total_bytes <= 0) return 0;
    return static_cast<std::uint64_t>((total_bytes + block_bytes - 1) /
                                      block_bytes);
  }
  std::int64_t bytes_of_block(std::uint64_t index) const;
};

/// Deterministic file content: a seeded generator fills each block and the
/// per-block CRC-32 digests are precomputed. Same spec + seed → the same
/// image on any machine, so sender and verifier never need to share bytes.
class FileImage {
 public:
  FileImage(const FileSpec& spec, std::uint64_t seed);

  const FileSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }
  std::uint32_t block_crc(std::uint64_t index) const {
    return crcs_.at(index);
  }
  const std::vector<std::uint32_t>& block_crcs() const { return crcs_; }

 private:
  FileSpec spec_;
  std::uint64_t seed_;
  std::vector<std::uint32_t> crcs_;
};

/// True for blocks that must be delivered reliably.
using CriticalFn = std::function<bool(std::uint64_t block_index)>;

// Attribute names used by the IQ-FTP framing.
extern const std::string kFtpManifest;   ///< int: block count (manifest msg)
extern const std::string kFtpBlockBytes; ///< int: nominal block size
extern const std::string kFtpBlock;      ///< int: block index (data msg)
extern const std::string kFtpBlockCrc;   ///< int: CRC-32 of block content
extern const std::string kFtpResumeQuery;///< int(1): manifest asks to resume
extern const std::string kFtpResumeFrom; ///< int: receiver's first hole

/// Per-chunk deadline policy: block i must arrive by
///   transfer start (manifest delivery) + grace + per_block * (i + 1).
/// Blocks that arrive later still count as received — the hit ratio is the
/// graceful-degradation score, not a correctness gate.
struct DeadlinePolicy {
  Duration grace = Duration::seconds(2);
  Duration per_block = Duration::millis(50);
};

class IqFtpSender {
 public:
  /// `image` may be null (no content digests ride the blocks). When set, it
  /// must outlive the sender. So must `conn` (or the connection last passed
  /// to attach()): the destructor removes the handlers the sender installed
  /// on it.
  IqFtpSender(core::IqRudpConnection& conn, const FileSpec& file,
              CriticalFn critical, const FileImage* image = nullptr);
  ~IqFtpSender();
  IqFtpSender(const IqFtpSender&) = delete;
  IqFtpSender& operator=(const IqFtpSender&) = delete;

  /// Send the manifest, then stream blocks, keeping at least 64 segments
  /// queued in the transport. A 1-ms tick starts streaming; while it runs,
  /// every ack that empties the queue refills it at once, so the acks and
  /// the window clock the transfer, not the tick.
  void start();
  void stop();
  /// All blocks handed over and the transport drained.
  bool done() const;

  /// Rebind to a fresh connection after the previous one failed terminally.
  /// Keeps all transfer bookkeeping; the next start() sends a resume-query
  /// manifest and streaming waits for the receiver's resume offset. Safe to
  /// call with the old connection already destroyed (the sender holds no
  /// dangling state), but must not race a live refill — stop() first. A
  /// failed connection ignores every segment, so the handlers left on it
  /// never fire.
  void attach(core::IqRudpConnection& conn);

  std::uint64_t blocks_sent() const { return next_block_; }
  std::uint64_t blocks_discarded_at_send() const { return discarded_; }
  std::uint64_t critical_blocks() const { return critical_count_; }
  /// Times attach() restarted an in-progress transfer.
  std::uint64_t resumes() const { return resumes_; }
  bool awaiting_resume() const { return awaiting_resume_; }

  /// Second pass: re-send specific blocks (the receiver's hole report)
  /// fully reliably, regardless of their original criticality. May be
  /// called after done(); restarts the pacing task.
  void fill_holes(const std::vector<std::uint64_t>& blocks);

 private:
  /// Build the refill task on conn_ and install its two handlers there.
  void hook();
  void refill();
  void on_peer_message(const rudp::DeliveredMessage& msg);
  void send_block(std::uint64_t index, bool marked);

  core::IqRudpConnection* conn_;
  FileSpec file_;
  CriticalFn critical_;
  const FileImage* image_;
  std::unique_ptr<sim::PeriodicTask> refill_task_;
  bool manifest_sent_ = false;
  bool awaiting_resume_ = false;
  std::uint64_t resumes_ = 0;
  std::uint64_t next_block_ = 0;
  /// High-water mark of first-time streamed blocks: resume re-streams count
  /// neither as new criticals nor as fresh discards.
  std::uint64_t streamed_high_ = 0;
  std::uint64_t discarded_ = 0;
  std::uint64_t critical_count_ = 0;
  std::vector<std::uint64_t> hole_queue_;  ///< reliable second-pass blocks
};

class IqFtpReceiver {
 public:
  struct Report {
    std::uint64_t blocks_total = 0;
    std::uint64_t blocks_received = 0;
    std::uint64_t blocks_on_time = 0;   ///< met their per-chunk deadline
    std::uint64_t critical_on_time = 0; ///< marked blocks that met theirs
    std::uint64_t critical_received = 0;
    std::int64_t bytes_received = 0;
    std::vector<std::uint64_t> missing;  ///< abandoned block indices
    TimePoint started;
    TimePoint finished;

    double received_fraction() const {
      return blocks_total == 0
                 ? 0.0
                 : static_cast<double>(blocks_received) /
                       static_cast<double>(blocks_total);
    }
    /// Abandoned blocks count as deadline misses; an empty file trivially
    /// hits every deadline.
    double deadline_hit_ratio() const {
      return blocks_total == 0
                 ? 1.0
                 : static_cast<double>(blocks_on_time) /
                       static_cast<double>(blocks_total);
    }
    double duration_s() const { return (finished - started).to_seconds(); }
  };

  using CompleteFn = std::function<void(const Report&)>;

  /// `conn` (or the connection last passed to attach()) must outlive the
  /// receiver: the destructor removes its message handler.
  explicit IqFtpReceiver(core::IqRudpConnection& conn);
  ~IqFtpReceiver();
  IqFtpReceiver(const IqFtpReceiver&) = delete;
  IqFtpReceiver& operator=(const IqFtpReceiver&) = delete;

  void set_complete_handler(CompleteFn fn) { on_complete_ = std::move(fn); }
  void set_deadline_policy(const DeadlinePolicy& policy) {
    policy_ = policy;
    track_deadlines_ = true;
  }
  bool complete() const { return complete_; }
  const Report& report() const { return report_; }

  /// Rebind to a fresh connection after the previous one failed terminally.
  /// The *old* connection must still be alive: its receiver-side drop
  /// counter is folded into the completion bookkeeping here, so blocks the
  /// old connection already abandoned stay accounted for.
  void attach(core::IqRudpConnection& conn);

  /// Per-block CRC-32 digests as delivered (0 where absent / not received).
  const std::vector<std::uint32_t>& block_crcs() const { return crcs_; }
  /// Byte-identity: the transfer is complete with no holes and every
  /// block's delivered digest equals the image's.
  bool matches(const FileImage& image) const;

 private:
  /// Build the completion poll on conn_ and install the message handler.
  void hook();
  void on_message(const rudp::DeliveredMessage& msg);
  void check_complete();

  core::IqRudpConnection* conn_;
  std::unique_ptr<sim::PeriodicTask> poll_;
  std::vector<bool> have_;
  std::vector<std::uint32_t> crcs_;
  std::uint64_t dropped_baseline_ = 0;
  /// Receiver-side drops accumulated on prior (failed) connections.
  std::uint64_t dropped_carry_ = 0;
  bool manifest_seen_ = false;
  bool complete_ = false;
  bool track_deadlines_ = false;
  DeadlinePolicy policy_;
  Report report_;
  CompleteFn on_complete_;
};

}  // namespace iq::ftp
