#include "iq/ftp/iq_ftp.hpp"

#include <algorithm>
#include <cstring>

#include "iq/common/bytes.hpp"
#include "iq/common/check.hpp"

namespace iq::ftp {

const std::string kFtpManifest = "FTP_MANIFEST";
const std::string kFtpBlockBytes = "FTP_BLOCK_BYTES";
const std::string kFtpBlock = "FTP_BLOCK";
const std::string kFtpBlockCrc = "FTP_BLOCK_CRC";
const std::string kFtpResumeQuery = "FTP_RESUME_QUERY";
const std::string kFtpResumeFrom = "FTP_RESUME_FROM";

std::int64_t FileSpec::bytes_of_block(std::uint64_t index) const {
  const std::uint64_t count = block_count();
  IQ_CHECK(index < count);
  if (index + 1 < count) return block_bytes;
  const std::int64_t rem = total_bytes % block_bytes;
  return rem == 0 ? block_bytes : rem;
}

// ----------------------------------------------------------- file image ---

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

FileImage::FileImage(const FileSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  IQ_CHECK(spec_.block_bytes > 0 && spec_.total_bytes >= 0);
  const std::uint64_t count = spec_.block_count();
  crcs_.reserve(count);
  std::vector<std::uint8_t> block(
      static_cast<std::size_t>(spec_.block_bytes));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto bytes = static_cast<std::size_t>(spec_.bytes_of_block(i));
    // Each block's content stream is keyed independently so digests do not
    // depend on generation order.
    std::uint64_t state = seed_ ^ (i * 0x2545f4914f6cdd1dull);
    std::size_t off = 0;
    while (off < bytes) {
      const std::uint64_t word = splitmix64(state);
      const std::size_t n = std::min<std::size_t>(8, bytes - off);
      std::memcpy(block.data() + off, &word, n);
      off += n;
    }
    crcs_.push_back(iq::crc32(BytesView(block.data(), bytes)));
  }
}

// --------------------------------------------------------------- sender ---

IqFtpSender::IqFtpSender(core::IqRudpConnection& conn, const FileSpec& file,
                         CriticalFn critical, const FileImage* image)
    : conn_(&conn),
      file_(file),
      critical_(std::move(critical)),
      image_(image) {
  IQ_CHECK(file_.block_bytes > 0 && file_.total_bytes >= 0);
  if (image_) IQ_CHECK(image_->spec().block_count() == file_.block_count());
  hook();
}

IqFtpSender::~IqFtpSender() {
  conn_->set_message_handler(nullptr);
  conn_->transport().set_drained_handler(nullptr);
}

void IqFtpSender::hook() {
  refill_task_ = std::make_unique<sim::PeriodicTask>(
      conn_->transport().executor(), Duration::millis(1),
      [this] { refill(); });
  conn_->set_message_handler(
      [this](const rudp::DeliveredMessage& msg) { on_peer_message(msg); });
  // The tick starts (and restarts) streaming; while it runs, an ack that
  // leaves the transport's queue empty refills it without waiting for the
  // next tick.
  conn_->transport().set_drained_handler([this] {
    if (refill_task_->running()) refill();
  });
}

void IqFtpSender::start() { refill_task_->start(/*fire_now=*/true); }

void IqFtpSender::stop() { refill_task_->stop(); }

bool IqFtpSender::done() const {
  return manifest_sent_ && !awaiting_resume_ &&
         next_block_ >= file_.block_count() && hole_queue_.empty() &&
         conn_->transport().send_idle();
}

void IqFtpSender::attach(core::IqRudpConnection& conn) {
  conn_ = &conn;
  hook();
  manifest_sent_ = false;
  // Anything already streamed may or may not have landed; ask the receiver
  // where to pick up instead of guessing. A transfer that never sent its
  // manifest just starts over.
  if (next_block_ > 0 || !hole_queue_.empty()) {
    awaiting_resume_ = true;
    ++resumes_;
  }
}

void IqFtpSender::fill_holes(const std::vector<std::uint64_t>& blocks) {
  for (std::uint64_t b : blocks) {
    if (b < file_.block_count()) hole_queue_.push_back(b);
  }
  if (!hole_queue_.empty()) refill_task_->start(/*fire_now=*/true);
}

void IqFtpSender::send_block(std::uint64_t index, bool marked) {
  rudp::MessageSpec block;
  block.bytes = file_.bytes_of_block(index);
  block.marked = marked;
  block.attrs.set(kFtpBlock, static_cast<std::int64_t>(index));
  if (image_) {
    block.attrs.set(kFtpBlockCrc,
                    static_cast<std::int64_t>(image_->block_crc(index)));
  }
  auto result = conn_->transport().send_message(block);
  // A discarded re-streamed block was already counted on its first pass.
  if (result.discarded && index >= streamed_high_) ++discarded_;
  if (index >= streamed_high_) streamed_high_ = index + 1;
}

void IqFtpSender::on_peer_message(const rudp::DeliveredMessage& msg) {
  auto from = msg.attrs.get_int(kFtpResumeFrom);
  if (!from || !awaiting_resume_) return;
  const auto resume =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(std::max<std::int64_t>(*from, 0)),
                              file_.block_count());
  next_block_ = resume;
  awaiting_resume_ = false;
  refill_task_->start(/*fire_now=*/true);
}

void IqFtpSender::refill() {
  auto& transport = conn_->transport();
  if (!transport.established()) return;

  if (!manifest_sent_) {
    rudp::MessageSpec manifest;
    manifest.bytes = 64;  // small control message
    manifest.marked = true;
    manifest.attrs.set(kFtpManifest,
                       static_cast<std::int64_t>(file_.block_count()));
    manifest.attrs.set(kFtpBlockBytes, file_.block_bytes);
    if (awaiting_resume_) manifest.attrs.set(kFtpResumeQuery, std::int64_t{1});
    transport.send_message(manifest);
    manifest_sent_ = true;
  }
  // Resuming: hold streaming until the receiver reports its first hole.
  if (awaiting_resume_) {
    refill_task_->stop();
    return;
  }

  const std::uint64_t total = file_.block_count();
  while (next_block_ < total && transport.queued_segments() < 64) {
    const std::uint64_t index = next_block_++;
    const bool is_critical = critical_(index);
    // A resumed transfer re-streams blocks; count each block's criticality
    // only on its first pass.
    if (is_critical && index >= streamed_high_) ++critical_count_;
    send_block(index, is_critical);
  }
  // Second pass: hole fills go out fully reliable.
  while (next_block_ >= total && !hole_queue_.empty() &&
         transport.queued_segments() < 64) {
    const std::uint64_t index = hole_queue_.back();
    hole_queue_.pop_back();
    send_block(index, /*marked=*/true);
  }
  if (next_block_ >= total && hole_queue_.empty()) refill_task_->stop();
}

// ------------------------------------------------------------- receiver ---

IqFtpReceiver::IqFtpReceiver(core::IqRudpConnection& conn) : conn_(&conn) {
  hook();
  poll_->start();
}

IqFtpReceiver::~IqFtpReceiver() { conn_->set_message_handler(nullptr); }

void IqFtpReceiver::hook() {
  poll_ = std::make_unique<sim::PeriodicTask>(
      conn_->transport().executor(), Duration::millis(50),
      [this] { check_complete(); });
  conn_->set_message_handler(
      [this](const rudp::DeliveredMessage& msg) { on_message(msg); });
}

void IqFtpReceiver::attach(core::IqRudpConnection& conn) {
  // Fold the failed connection's receiver-side drops into the carry so
  // blocks it abandoned stay counted toward completion.
  dropped_carry_ +=
      conn_->transport().stats().messages_dropped - dropped_baseline_;
  conn_ = &conn;
  dropped_baseline_ = conn_->transport().stats().messages_dropped;
  hook();
  if (!complete_) poll_->start();
}

bool IqFtpReceiver::matches(const FileImage& image) const {
  if (!complete_ || !report_.missing.empty()) return false;
  if (have_.size() != image.spec().block_count()) return false;
  for (std::uint64_t i = 0; i < have_.size(); ++i) {
    if (!have_[i] || crcs_[i] != image.block_crc(i)) return false;
  }
  return true;
}

void IqFtpReceiver::on_message(const rudp::DeliveredMessage& msg) {
  if (auto blocks = msg.attrs.get_int(kFtpManifest)) {
    if (!manifest_seen_) {
      manifest_seen_ = true;
      report_.blocks_total = static_cast<std::uint64_t>(*blocks);
      have_.assign(report_.blocks_total, false);
      crcs_.assign(report_.blocks_total, 0);
      report_.started = msg.delivered;
      // Drops that happened before the manifest cannot be blocks (the
      // manifest goes first and is marked); start the baseline here.
      dropped_baseline_ = conn_->transport().stats().messages_dropped;
    }
    if (msg.attrs.get_int(kFtpResumeQuery)) {
      // Resume negotiation: answer with the first block still missing so
      // the sender restarts streaming there (we dedup anything re-sent).
      std::uint64_t first_hole = report_.blocks_total;
      for (std::uint64_t i = 0; i < have_.size(); ++i) {
        if (!have_[i]) {
          first_hole = i;
          break;
        }
      }
      rudp::MessageSpec reply;
      reply.bytes = 32;
      reply.marked = true;
      reply.attrs.set(kFtpResumeFrom, static_cast<std::int64_t>(first_hole));
      conn_->send(reply);
    }
    check_complete();
    return;
  }
  auto index = msg.attrs.get_int(kFtpBlock);
  if (!index || !manifest_seen_) return;
  const auto i = static_cast<std::uint64_t>(*index);
  if (i >= have_.size() || have_[i]) return;
  have_[i] = true;
  ++report_.blocks_received;
  if (msg.marked) ++report_.critical_received;
  report_.bytes_received += msg.bytes;
  report_.finished = msg.delivered;
  if (auto crc = msg.attrs.get_int(kFtpBlockCrc)) {
    crcs_[i] = static_cast<std::uint32_t>(*crc);
  }
  if (track_deadlines_) {
    const TimePoint deadline = report_.started + policy_.grace +
                               policy_.per_block * static_cast<int>(i + 1);
    if (msg.delivered <= deadline) {
      ++report_.blocks_on_time;
      if (msg.marked) ++report_.critical_on_time;
    }
  }
  if (complete_) {
    // A second-pass hole fill: keep the report's hole list current.
    std::erase(report_.missing, i);
    return;
  }
  check_complete();
}

void IqFtpReceiver::check_complete() {
  if (complete_ || !manifest_seen_) return;
  const std::uint64_t dropped =
      dropped_carry_ +
      (conn_->transport().stats().messages_dropped - dropped_baseline_);
  if (report_.blocks_received + dropped < report_.blocks_total) return;

  complete_ = true;
  poll_->stop();
  // A zero-block file completes on its manifest alone.
  if (report_.blocks_total == 0) report_.finished = report_.started;
  report_.missing.clear();
  for (std::uint64_t i = 0; i < have_.size(); ++i) {
    if (!have_[i]) report_.missing.push_back(i);
  }
  if (on_complete_) on_complete_(report_);
}

}  // namespace iq::ftp
