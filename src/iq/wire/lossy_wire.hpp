#pragma once
// LossyWirePair: failure injection for protocol tests — independent drop,
// duplication, reordering, blackouts, burst loss and delivered corruption on
// an in-memory pipe, all seeded and deterministic. Implements
// fault::FaultTarget, so a FaultInjector can drive it from a FaultPlan the
// same way it drives net::Link.
//
// With no impairment configured (`LossyConfig{.one_way_delay = d}`) it is
// the fixed-delay, lossless pipe the unit tests use: one scheduled event
// per segment, delivered exactly `d` later.

#include <memory>
#include <optional>

#include "iq/common/rng.hpp"
#include "iq/fault/loss_model.hpp"
#include "iq/fault/target.hpp"
#include "iq/net/pool.hpp"
#include "iq/rudp/segment_wire.hpp"

namespace iq::wire {

struct LossyConfig {
  Duration one_way_delay = Duration::millis(15);
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  /// Extra, uniformly distributed delay [0, reorder_jitter] per segment —
  /// nonzero values cause reordering.
  Duration reorder_jitter = Duration::zero();
  std::uint64_t seed = 42;
};

class LossyWirePair;

class LossyWire final : public rudp::SegmentWire {
 public:
  LossyWire(LossyWirePair& pair, int side);

  void send(const rudp::Segment& segment) override;
  void send(rudp::Segment&& segment) override;
  void set_receiver(RecvFn fn) override { recv_ = std::move(fn); }
  void set_corruption_handler(CorruptionFn fn) override {
    corrupt_fn_ = std::move(fn);
  }
  sim::Executor& executor() override;

  /// Corrupted-delivered segments this endpoint rejected.
  std::uint64_t checksum_rejects() const { return checksum_rejects_; }

 private:
  friend class LossyWirePair;
  LossyWirePair& pair_;
  int side_;
  RecvFn recv_;
  CorruptionFn corrupt_fn_;
  std::uint64_t checksum_rejects_ = 0;
};

class LossyWirePair final : public fault::FaultTarget {
 public:
  LossyWirePair(sim::Executor& exec, const LossyConfig& cfg);

  LossyWire& a() { return a_; }
  LossyWire& b() { return b_; }

  // FaultTarget: change loss characteristics mid-run. The base drop and
  // duplicate coins keep their original RNG consumption order, so enabling
  // blackout/burst/corruption does not perturb existing seeded streams.
  void set_blackout(bool on) override { blackout_ = on; }
  void set_drop_probability(double p) override { cfg_.drop_probability = p; }
  void set_burst_loss(
      const std::optional<fault::GilbertElliottConfig>& cfg) override;
  void set_corrupt_probability(double p) override { corrupt_probability_ = p; }
  void set_duplicate_probability(double p) override {
    cfg_.duplicate_probability = p;
  }
  void set_extra_delay(Duration d) override { extra_delay_ = d; }

  bool blackout() const { return blackout_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t carried() const { return carried_; }
  std::uint64_t blackout_drops() const { return blackout_drops_; }
  std::uint64_t burst_drops() const { return burst_drops_; }
  std::uint64_t corrupt_deliveries() const { return corrupt_deliveries_; }

 private:
  friend class LossyWire;
  /// Segments travel as pooled immutable bodies: a duplicate delivery
  /// shares the first copy's body, and the InlineFn capture (shared_ptr +
  /// destination pointer) stays within the scheduler's inline buffer — the
  /// pipe adds no heap traffic at steady state.
  void carry(int from_side, std::shared_ptr<const rudp::Segment> body);
  void deliver_later(int to_side, std::shared_ptr<const rudp::Segment> body,
                     bool corrupted);

  sim::Executor& exec_;
  LossyConfig cfg_;
  Rng rng_;
  Rng fault_rng_;
  net::ObjectPool<rudp::Segment> pool_;
  LossyWire a_;
  LossyWire b_;
  bool blackout_ = false;
  std::optional<fault::GilbertElliottModel> burst_;
  double corrupt_probability_ = 0.0;
  Duration extra_delay_ = Duration::zero();
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t carried_ = 0;
  std::uint64_t blackout_drops_ = 0;
  std::uint64_t burst_drops_ = 0;
  std::uint64_t corrupt_deliveries_ = 0;
};

}  // namespace iq::wire
