#pragma once
// Ring-buffer FIFO for the connection's pending-message queue, the RUDP
// send and receive windows (slot i is the window's base sequence + i) and
// the simulated links' drop-tail queues.
//
// std::deque allocates and frees a ~512-byte chunk roughly every
// chunk-worth of push_back/pop_front traffic, which breaks the
// zero-allocation steady state the segment path aims for. RingQueue keeps
// one flat buffer with head/size modular indexing: once the buffer has
// grown to the high-water mark of the queue, pushes and pops never touch
// the heap again. Popped slots are reset to T{} so element-owned resources
// are released eagerly.
//
// Supports exactly what those need: push_back, pop_front, random access,
// and erase of a middle run (the connection's backpressure shedding).

#include <cstddef>
#include <utility>
#include <vector>

namespace iq {

template <typename T>
class RingQueue {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) { return buf_[slot(i)]; }
  const T& operator[](std::size_t i) const { return buf_[slot(i)]; }
  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_[slot(size_ - 1)]; }
  const T& back() const { return buf_[slot(size_ - 1)]; }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[slot(size_)] = std::move(v);
    ++size_;
  }

  void pop_front() {
    buf_[head_] = T{};
    head_ = next(head_);
    --size_;
  }

  /// Erase `count` elements starting at logical index `first`, preserving
  /// the order of the rest.
  void erase(std::size_t first, std::size_t count) {
    for (std::size_t i = first; i + count < size_; ++i) {
      (*this)[i] = std::move((*this)[i + count]);
    }
    for (std::size_t i = size_ - count; i < size_; ++i) (*this)[i] = T{};
    size_ -= count;
  }

  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

  /// Physical slots owned (high-water capacity; diagnostics/tests).
  std::size_t capacity() const noexcept { return buf_.size(); }

 private:
  std::size_t slot(std::size_t i) const {
    std::size_t s = head_ + i;
    if (s >= buf_.size()) s -= buf_.size();
    return s;
  }
  std::size_t next(std::size_t s) const {
    return s + 1 == buf_.size() ? 0 : s + 1;
  }

  void grow() {
    const std::size_t new_cap = buf_.empty() ? 16 : buf_.size() * 2;
    std::vector<T> nb(new_cap);
    for (std::size_t i = 0; i < size_; ++i) nb[i] = std::move((*this)[i]);
    buf_ = std::move(nb);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace iq
