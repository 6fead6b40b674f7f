#pragma once
// Drop-tail FIFO queue with a byte-capacity bound, as in the paper's
// emulated routers. Tracks occupancy and drop statistics for experiments.
// Packets sit in a RingQueue: an idle queue owns no heap memory, and once
// the ring has grown to the queue's high-water mark, enqueue and dequeue
// never allocate.

#include <cstdint>

#include "iq/common/ring_queue.hpp"
#include "iq/net/packet.hpp"

namespace iq::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::int64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns false (and counts a drop) when the packet does not fit.
  bool enqueue(PacketPtr p);
  PacketPtr dequeue();
  bool empty() const { return items_.empty(); }

  std::int64_t bytes() const { return bytes_; }
  std::size_t packets() const { return items_.size(); }
  std::int64_t capacity_bytes() const { return capacity_bytes_; }

  std::uint64_t enqueued() const { return enqueued_; }
  std::uint64_t dropped() const { return dropped_; }
  std::int64_t dropped_bytes() const { return dropped_bytes_; }
  /// Peak occupancy seen since construction.
  std::int64_t max_bytes_seen() const { return max_bytes_seen_; }

 private:
  std::int64_t capacity_bytes_;
  std::int64_t bytes_ = 0;
  std::int64_t max_bytes_seen_ = 0;
  std::uint64_t enqueued_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t dropped_bytes_ = 0;
  RingQueue<PacketPtr> items_;
};

}  // namespace iq::net
