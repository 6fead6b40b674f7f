#include "iq/sim/sharded.hpp"

#include <algorithm>

#include "iq/common/affinity.hpp"
#include "iq/common/check.hpp"

namespace iq::sim {

ShardedSim::ShardedSim(const Config& cfg) : lookahead_(cfg.lookahead) {
  IQ_CHECK_MSG(cfg.shards >= 1, "at least one shard");
  IQ_CHECK_MSG(cfg.lookahead > Duration::zero(), "lookahead must be positive");
  shards_.reserve(cfg.shards);
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->outbox.resize(cfg.shards);
    shards_.push_back(std::move(sh));
  }
  if (cfg.threaded && cfg.shards > 1) {
    const auto n = static_cast<std::ptrdiff_t>(cfg.shards + 1);
    start_barrier_ = std::make_unique<std::barrier<>>(n);
    mid_barrier_ = std::make_unique<std::barrier<>>(n);
    end_barrier_ = std::make_unique<std::barrier<>>(n);
    workers_.reserve(cfg.shards);
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      workers_.emplace_back([this, s] { worker_main(s); });
    }
  }
}

ShardedSim::~ShardedSim() {
  if (!workers_.empty()) {
    stop_ = true;
    start_barrier_->arrive_and_wait();
    for (auto& w : workers_) w.join();
  }
}

std::uint32_t ShardedSim::add_group() {
  groups_.emplace_back();
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void ShardedSim::post(std::uint32_t src_group, std::uint32_t dst_group,
                      TimePoint due, ParcelFn fn) {
  IQ_CHECK(src_group < groups_.size() && dst_group < groups_.size());
  IQ_CHECK_MSG(fn, "empty parcel");
  IQ_CHECK_MSG(due >= window_end_,
               "parcel due inside the current lockstep window — cross-group "
               "latency must be >= the ShardedSim lookahead");
  Shard& src = *shards_[shard_of(src_group)];
  src.outbox[shard_of(dst_group)].push_back(
      Parcel{due, src_group, groups_[src_group].next_seq++, std::move(fn)});
}

void ShardedSim::run_shard_window(Shard& sh, TimePoint end) {
  for (;;) {
    const TimePoint tp =
        sh.inbox.empty() ? TimePoint::max() : sh.inbox.front().due;
    // Local events strictly before the next parcel or the window's end.
    // Canonical tie rule: parcels run before local events at the same
    // timestamp, in (due, src_group, seq) order — placement-independent.
    sh.sim.run_until(std::min(tp, end) - Duration::nanos(1));
    if (tp >= end) break;
    sh.sim.advance_to(tp);
    std::pop_heap(sh.inbox.begin(), sh.inbox.end(), ParcelAfter{});
    Parcel p = std::move(sh.inbox.back());
    sh.inbox.pop_back();
    ++sh.parcels_executed;
    p.fn();
  }
  sh.sim.advance_to(end);
}

void ShardedSim::collect_inbox(std::size_t dst) {
  Shard& d = *shards_[dst];
  for (auto& src : shards_) {
    auto& staged = src->outbox[dst];
    for (auto& p : staged) {
      d.inbox.push_back(std::move(p));
      std::push_heap(d.inbox.begin(), d.inbox.end(), ParcelAfter{});
    }
    staged.clear();  // keeps capacity — the steady state stays malloc-free
  }
}

void ShardedSim::run_window_serial(TimePoint end) {
  // Same protocol as the threaded path: every shard finishes the window
  // before any exchange happens, so results are bit-identical.
  for (auto& sh : shards_) run_shard_window(*sh, end);
  for (std::size_t d = 0; d < shards_.size(); ++d) collect_inbox(d);
}

void ShardedSim::worker_main(std::size_t shard_index) {
  for (;;) {
    start_barrier_->arrive_and_wait();
    if (stop_) return;
    run_shard_window(*shards_[shard_index], window_end_);
    mid_barrier_->arrive_and_wait();
    collect_inbox(shard_index);
    end_barrier_->arrive_and_wait();
  }
}

void ShardedSim::run_until(TimePoint deadline) {
  IQ_CHECK_MSG(deadline >= window_start_, "cannot run into the past");
  affinity::StrictAffinityGuard strict;
  // Posts staged outside a run (scenario setup, or between chunked runs)
  // sit in outboxes; exchange them up front so they are deliverable in the
  // very first window — workers are parked at the start barrier, so the
  // main thread may touch every mailbox here.
  for (std::size_t d = 0; d < shards_.size(); ++d) collect_inbox(d);
  while (window_start_ < deadline) {
    const TimePoint end = std::min(deadline, window_start_ + lookahead_);
    window_end_ = end;
    if (workers_.empty()) {
      run_window_serial(end);
    } else {
      start_barrier_->arrive_and_wait();
      mid_barrier_->arrive_and_wait();
      end_barrier_->arrive_and_wait();
    }
    window_start_ = end;
    ++epochs_;
  }
  // Between runs, setup-time posts only need to clear the next window start.
  window_end_ = window_start_;
}

bool ShardedSim::run_until_idle(TimePoint hard_deadline) {
  while (!idle() && window_start_ < hard_deadline) {
    run_until(std::min(hard_deadline, window_start_ + lookahead_));
  }
  return idle();
}

bool ShardedSim::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->sim.idle() || !sh->inbox.empty()) return false;
    for (const auto& staged : sh->outbox) {
      if (!staged.empty()) return false;
    }
  }
  return true;
}

std::uint64_t ShardedSim::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->sim.events_executed();
  return n;
}

std::uint64_t ShardedSim::parcels_delivered() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->parcels_executed;
  return n;
}

std::uint64_t ShardedSim::parcels_posted() const {
  std::uint64_t n = 0;
  for (const auto& g : groups_) n += g.next_seq;
  return n;
}

}  // namespace iq::sim
