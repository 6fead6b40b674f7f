#pragma once
// Freelist object pool for simulation hot-path objects.
//
// Multi-million-packet runs used to pay two mallocs per simulated packet
// (shared_ptr control block + object, for both the Packet and its body).
// ObjectPool<T> routes std::allocate_shared through a freelist arena:
// object and control block live in one block, and released blocks are
// recycled instead of returned to malloc. Objects are fully constructed and
// destroyed on every cycle — recycling reuses memory, never state.
//
// Lifetime is safe by construction: the deleter stored in every control
// block keeps a shared reference to the arena, so blocks released after the
// pool itself is gone still land in the (still-alive) arena, which frees
// everything when the last reference drops.
//
// Not thread-safe — a pool belongs to one simulator thread, matching the
// single-threaded-by-design Simulator. The parallel experiment runner gives
// every worker its own Network (and therefore its own pools), and the
// sharded simulator gives every *shard* its own. That ownership is enforced,
// not just documented: while a strict shard window is open
// (iq::affinity::strict(), held by ShardedSim across every lockstep epoch),
// the first thread to touch an arena in the window binds it, and any other
// thread touching it afterwards aborts with a diagnostic — a cross-shard
// Packet handoff that dodges the mailbox fails loudly instead of racing.
// Outside strict windows the owner rebinds freely, so scenarios can be
// built and torn down on the main thread.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace iq::net {

struct PoolStats {
  std::uint64_t fresh_allocations = 0;  ///< blocks obtained from malloc
  std::uint64_t reuses = 0;             ///< blocks served from the freelist
  std::uint64_t outstanding = 0;        ///< blocks currently live
  std::size_t free_blocks = 0;          ///< blocks parked in the freelist
};

namespace detail {

/// The shared freelist. One fixed block size per arena (allocate_shared
/// performs one same-sized allocation per object for a given T).
class ArenaState {
 public:
  ArenaState() = default;
  ArenaState(const ArenaState&) = delete;
  ArenaState& operator=(const ArenaState&) = delete;
  ~ArenaState();

  void* allocate(std::size_t bytes);
  void deallocate(void* p, std::size_t bytes);

  PoolStats stats() const;

 private:
  /// Bind-or-verify the owning thread while a strict shard window is open.
  void check_affinity();

  std::size_t block_size_ = 0;
  std::vector<void*> free_blocks_;
  std::uint64_t fresh_allocations_ = 0;
  std::uint64_t reuses_ = 0;
  std::uint64_t outstanding_ = 0;
  std::thread::id owner_;
  std::uint64_t owner_generation_ = 0;
};

template <typename T>
struct PoolAllocator {
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<ArenaState> s)
      : state(std::move(s)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& o) : state(o.state) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "over-aligned types are not supported by the pool");
    return static_cast<T*>(state->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) {
    state->deallocate(p, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>& o) const {
    return state == o.state;
  }

  std::shared_ptr<ArenaState> state;
};

}  // namespace detail

template <typename T>
class ObjectPool {
 public:
  ObjectPool() : state_(std::make_shared<detail::ArenaState>()) {}

  /// Construct a T in a pooled block. The returned shared_ptr is ordinary —
  /// it may outlive the pool; its block returns to the arena on release.
  template <typename... Args>
  std::shared_ptr<T> make(Args&&... args) {
    return std::allocate_shared<T>(detail::PoolAllocator<T>(state_),
                                   std::forward<Args>(args)...);
  }

  PoolStats stats() const { return state_->stats(); }

 private:
  std::shared_ptr<detail::ArenaState> state_;
};

}  // namespace iq::net
