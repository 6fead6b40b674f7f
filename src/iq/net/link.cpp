#include "iq/net/link.hpp"

#include "iq/common/check.hpp"

namespace iq::net {

namespace {

// The fault stream's seed is the drop seed mixed with this salt, so the two
// streams differ for every drop_seed.
constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ull;

// Create `rng` from `seed` the first time `p` is non-zero.
void ensure_rng(std::unique_ptr<Rng>& rng, double p, std::uint64_t seed) {
  if (p > 0.0 && rng == nullptr) rng = std::make_unique<Rng>(seed);
}

}  // namespace

Link::Link(sim::Simulator& sim, std::string name, LinkConfig cfg,
           PacketSink& dst)
    : sim_(sim),
      name_(std::move(name)),
      cfg_(cfg),
      dst_(dst),
      queue_(cfg.queue_capacity_bytes) {
  IQ_CHECK(cfg_.rate_bps > 0);
  IQ_CHECK(!cfg_.propagation.is_negative());
  set_drop_probability(cfg_.drop_probability);
}

void Link::set_drop_probability(double p) {
  IQ_CHECK(p >= 0.0 && p <= 1.0);
  cfg_.drop_probability = p;
  ensure_rng(drop_rng_, p, cfg_.drop_seed);
}

void Link::set_burst_loss(
    const std::optional<fault::GilbertElliottConfig>& cfg) {
  burst_ = cfg.has_value()
               ? std::make_unique<fault::GilbertElliottModel>(*cfg)
               : nullptr;
}

void Link::set_corrupt_probability(double p) {
  IQ_CHECK(p >= 0.0 && p <= 1.0);
  corrupt_probability_ = p;
  ensure_rng(fault_rng_, p, cfg_.drop_seed ^ kFaultSeedSalt);
}

void Link::set_duplicate_probability(double p) {
  IQ_CHECK(p >= 0.0 && p <= 1.0);
  duplicate_probability_ = p;
  ensure_rng(fault_rng_, p, cfg_.drop_seed ^ kFaultSeedSalt);
}

void Link::set_rate_bps(std::int64_t bps) {
  IQ_CHECK(bps > 0);
  // Applies to the next serialization; an in-flight transmission keeps the
  // rate it started with, like a real NIC mid-frame.
  cfg_.rate_bps = bps;
}

void Link::deliver(PacketPtr packet) {
  if (busy_) {
    queue_.enqueue(std::move(packet));
    return;
  }
  start_transmission(std::move(packet));
}

void Link::start_transmission(PacketPtr p) {
  busy_ = true;
  const Duration tx = transmission_time(p->wire_bytes, cfg_.rate_bps);
  sim_.after(tx, [this, p = std::move(p)]() mutable {
    transmission_done(std::move(p));
  });
}

void Link::transmission_done(PacketPtr p) {
  ++transmitted_;
  transmitted_bytes_ += p->wire_bytes;
  // Medium loss, in order of severity: an outage beats burst state beats the
  // i.i.d. drop coin. Every lost packet still consumed its serialization
  // time — a lossy medium burns bandwidth on packets it then destroys.
  if (blackout_) {
    ++blackout_drops_;
  } else if (burst_ != nullptr && burst_->lose()) {
    ++burst_drops_;
  } else if (cfg_.drop_probability > 0.0 &&
             drop_rng_->chance(cfg_.drop_probability)) {
    ++random_drops_;
  } else if (corrupt_probability_ > 0.0 &&
             fault_rng_->chance(corrupt_probability_)) {
    // Delivered corruption: bit errors the receiver's checksum must catch.
    // PacketPtr aliases are shared, so flag a shallow copy, not the
    // original (a duplicate of this packet must stay clean).
    auto damaged = std::make_shared<Packet>(*p);
    damaged->corrupted = true;
    ++corrupt_deliveries_;
    propagate(std::move(damaged));
  } else {
    if (duplicate_probability_ > 0.0 &&
        fault_rng_->chance(duplicate_probability_)) {
      ++duplicates_;
      propagate(p);
    }
    propagate(std::move(p));
  }
  if (!queue_.empty()) {
    start_transmission(queue_.dequeue());
  } else {
    busy_ = false;
  }
}

void Link::propagate(PacketPtr p) {
  // Propagation: the packet is in flight; the transmitter is free now.
  sim_.after(cfg_.propagation + extra_delay_,
             [this, p = std::move(p)]() mutable {
               dst_.deliver(std::move(p));
             });
}

}  // namespace iq::net
