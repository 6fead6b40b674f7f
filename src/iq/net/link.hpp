#pragma once
// Unidirectional link: serialization at a fixed bit rate, a drop-tail queue
// in front of the transmitter, and a fixed propagation delay. This is the
// same model Emulab's delay nodes impose, which is what the paper ran on.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "iq/common/rng.hpp"
#include "iq/fault/loss_model.hpp"
#include "iq/fault/target.hpp"
#include "iq/net/queue.hpp"
#include "iq/sim/simulator.hpp"

namespace iq::net {

struct LinkConfig {
  std::int64_t rate_bps = 20'000'000;            ///< 20 Mb/s default (paper)
  Duration propagation = Duration::millis(5);
  std::int64_t queue_capacity_bytes = 100 * 1500;  ///< ~100 MTU-sized slots
  /// Random (non-congestive) loss: each packet is discarded with this
  /// probability *after* serialization — a lossy medium consumes bandwidth
  /// for packets it then corrupts. 0 keeps the link lossless.
  double drop_probability = 0.0;
  std::uint64_t drop_seed = 1;
};

class Link final : public PacketSink, public fault::FaultTarget {
 public:
  Link(sim::Simulator& sim, std::string name, LinkConfig cfg, PacketSink& dst);

  /// Enqueue for transmission; drops (drop-tail) when the queue is full.
  void deliver(PacketPtr packet) override;

  const std::string& name() const { return name_; }
  const LinkConfig& config() const { return cfg_; }
  const DropTailQueue& queue() const { return queue_; }
  bool busy() const { return busy_; }

  std::uint64_t transmitted() const { return transmitted_; }
  std::int64_t transmitted_bytes() const { return transmitted_bytes_; }
  std::uint64_t random_drops() const { return random_drops_; }

  // FaultTarget — effective for packets finishing serialization after the
  // call. Blackout/burst/corruption/duplication do not consume the i.i.d.
  // drop RNG, so enabling them leaves the base drop stream reproducible.
  // Each generator is created when its probability (or burst config) first
  // becomes non-zero and draws nothing before its first use, so its stream
  // does not depend on when it was created.
  void set_blackout(bool on) override { blackout_ = on; }
  void set_drop_probability(double p) override;
  void set_burst_loss(
      const std::optional<fault::GilbertElliottConfig>& cfg) override;
  void set_corrupt_probability(double p) override;
  void set_duplicate_probability(double p) override;
  void set_rate_bps(std::int64_t bps) override;
  void set_extra_delay(Duration d) override { extra_delay_ = d; }

  bool blackout() const { return blackout_; }
  std::uint64_t blackout_drops() const { return blackout_drops_; }
  std::uint64_t burst_drops() const { return burst_drops_; }
  std::uint64_t corrupt_deliveries() const { return corrupt_deliveries_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  void start_transmission(PacketPtr p);
  void transmission_done(PacketPtr p);
  void propagate(PacketPtr p);

  sim::Simulator& sim_;
  std::string name_;
  LinkConfig cfg_;
  PacketSink& dst_;
  DropTailQueue queue_;
  bool busy_ = false;
  std::uint64_t transmitted_ = 0;
  std::int64_t transmitted_bytes_ = 0;
  std::uint64_t random_drops_ = 0;
  // Generators live behind pointers: an mt19937_64 is 2.5 kB, and most
  // links (every access link of a 10k-flow city) never draw from one.
  std::unique_ptr<Rng> drop_rng_;
  // Fault state (see FaultTarget). The fault RNG is separate from drop_rng_
  // so corruption/duplication never perturb the i.i.d. drop stream.
  bool blackout_ = false;
  std::unique_ptr<fault::GilbertElliottModel> burst_;
  double corrupt_probability_ = 0.0;
  double duplicate_probability_ = 0.0;
  Duration extra_delay_ = Duration::zero();
  std::unique_ptr<Rng> fault_rng_;
  std::uint64_t blackout_drops_ = 0;
  std::uint64_t burst_drops_ = 0;
  std::uint64_t corrupt_deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace iq::net
