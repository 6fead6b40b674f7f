#pragma once
// Adaptive-reliability policy pieces (§2.1 (3)).
//
// SkipBudget enforces the *receiver loss tolerance*: the fraction of offered
// messages the sender may abandon (skip on loss, or discard before send when
// the IQ coordinator enables send-side discard). Once the skipped share
// would exceed the advertised tolerance, unmarked traffic is handled
// reliably again — this is what keeps §3.3's undelivered percentage "within
// the loss tolerance".
//
// The budget counts messages, not sequences: the connection spends one unit
// per message however many of its fragments are abandoned, and remembers
// that on the message's fragments (`Outstanding::msg_skipped`).

#include <cstdint>

namespace iq::rudp {

class SkipBudget {
 public:
  explicit SkipBudget(double tolerance = 0.0) : tolerance_(tolerance) {}

  void set_tolerance(double tolerance) { tolerance_ = tolerance; }
  double tolerance() const { return tolerance_; }

  /// Count a message entering the system (called once per send_message).
  void on_message_offered() { ++offered_; }

  /// Would skipping (one more) message stay within tolerance?
  bool may_skip_message() const;

  /// Count one abandoned message (call once per message).
  void on_message_skipped() { ++skipped_; }

  std::uint64_t offered() const { return offered_; }
  std::uint64_t skipped() const { return skipped_; }
  double skipped_fraction() const;

 private:
  double tolerance_;
  std::uint64_t offered_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace iq::rudp
