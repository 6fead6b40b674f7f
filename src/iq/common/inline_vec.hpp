#pragma once
// Small-buffer vector: the container companion to InlineFn.
//
// InlineVec<T, N> stores up to N elements in-place and spills to the heap
// only beyond that. The RUDP hot path keeps short, bounded lists per
// segment — eacks capped by max_eacks_per_ack, skip batches, one or two
// attributes — so with N sized to the protocol caps a segment (and every
// copy of it made by the sim wires and object pools) never touches the heap
// at steady state. A list that only a rare segment type fills (PARITY's
// members) is a std::vector instead: inline, every segment would carry it.
//
// Deliberate differences from std::vector:
//  - capacity never shrinks, and a moved-from InlineVec is empty();
//  - insert() takes its element by value so inserting an element of the
//    same container is safe without vector's aliasing gymnastics;
//  - iterators are plain T* (contiguous; convertible to std::span).

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <type_traits>
#include <utility>

namespace iq {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(N > 0, "InlineVec needs at least one inline slot");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned element types are not supported");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;
  using size_type = std::size_t;

  static constexpr std::size_t inline_capacity = N;

  InlineVec() noexcept : data_(inline_ptr()) {}

  InlineVec(std::initializer_list<T> init) : InlineVec() {
    assign(init.begin(), init.end());
  }

  InlineVec(const InlineVec& other) : InlineVec() {
    assign(other.begin(), other.end());
  }

  InlineVec(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : InlineVec() {
    steal(std::move(other));
  }

  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) assign(other.begin(), other.end());
    return *this;
  }

  InlineVec& operator=(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      release_heap();
      steal(std::move(other));
    }
    return *this;
  }

  InlineVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
    return *this;
  }

  ~InlineVec() {
    clear();
    release_heap();
  }

  // ------------------------------------------------------------- access --
  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return cap_; }
  /// True once the elements live on the heap (diagnostics/tests).
  bool spilled() const noexcept { return data_ != inline_ptr(); }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }
  const T& back() const { return data_[size_ - 1]; }

  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }
  const_iterator cbegin() const noexcept { return data_; }
  const_iterator cend() const noexcept { return data_ + size_; }

  // ---------------------------------------------------------- modifiers --
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) return grow_emplace(std::forward<Args>(args)...);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void pop_back() {
    --size_;
    data_[size_].~T();
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void reserve(std::size_t n) {
    if (n > cap_) regrow(n);
  }

  void resize(std::size_t n) {
    if (n < size_) {
      while (size_ > n) pop_back();
      return;
    }
    reserve(n);
    while (size_ < n) emplace_back();
  }

  /// By value on purpose: `v.insert(v.begin(), v[0])` stays well-defined.
  iterator insert(const_iterator cpos, T value) {
    const std::size_t idx = static_cast<std::size_t>(cpos - data_);
    if (size_ == cap_) regrow(cap_ * 2);
    if (idx == size_) {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(value));
    } else {
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      for (std::size_t i = size_ - 1; i > idx; --i) {
        data_[i] = std::move(data_[i - 1]);
      }
      data_[idx] = std::move(value);
    }
    ++size_;
    return data_ + idx;
  }

  iterator erase(const_iterator cpos) { return erase(cpos, cpos + 1); }

  iterator erase(const_iterator cfirst, const_iterator clast) {
    const std::size_t first = static_cast<std::size_t>(cfirst - data_);
    const std::size_t last = static_cast<std::size_t>(clast - data_);
    const std::size_t n = last - first;
    // n == 0 must not reach the shift loop: it would self-move-assign
    // every trailing element.
    if (n == 0) return data_ + first;
    for (std::size_t i = last; i < size_; ++i) {
      data_[i - n] = std::move(data_[i]);
    }
    for (std::size_t i = size_ - n; i < size_; ++i) data_[i].~T();
    size_ -= n;
    return data_ + first;
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) emplace_back(*first);
  }

  void assign(std::initializer_list<T> init) {
    assign(init.begin(), init.end());
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  T* inline_ptr() noexcept { return reinterpret_cast<T*>(storage_); }
  const T* inline_ptr() const noexcept {
    return reinterpret_cast<const T*>(storage_);
  }

  static T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void release_heap() noexcept {
    if (spilled()) {
      ::operator delete(static_cast<void*>(data_));
      data_ = inline_ptr();
      cap_ = N;
    }
  }

  /// Move elements (or the whole heap block) out of `other`, leaving it
  /// empty and inline. Precondition: *this is empty and inline.
  void steal(InlineVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (other.spilled()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_ptr();
      other.cap_ = N;
      other.size_ = 0;
      return;
    }
    for (std::size_t i = 0; i < other.size_; ++i) {
      ::new (static_cast<void*>(data_ + i)) T(std::move(other.data_[i]));
    }
    size_ = other.size_;
    other.clear();
  }

  /// Relocate into a fresh block of `new_cap` slots (never shrinks).
  void regrow(std::size_t new_cap) {
    T* nd = allocate(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(nd + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = nd;
    cap_ = new_cap;
  }

  /// Grow-path emplace: construct the new element into the new block
  /// *before* relocating, so `args` may alias existing elements.
  template <typename... Args>
  T& grow_emplace(Args&&... args) {
    const std::size_t new_cap = cap_ * 2;
    T* nd = allocate(new_cap);
    T* slot = nd + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(nd + i)) T(std::move(data_[i]));
      data_[i].~T();
    }
    release_heap();
    data_ = nd;
    cap_ = new_cap;
    ++size_;
    return *slot;
  }

  alignas(T) unsigned char storage_[N * sizeof(T)];
  T* data_;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace iq
