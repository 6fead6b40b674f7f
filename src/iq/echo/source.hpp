#pragma once
// AdaptiveSource: the paper's evaluation application.
//
// Streams frames over an EventChannel either at a fixed frame rate or as
// fast as the transport allows (ASAP), with frame sizes taken from the
// MBone-trace schedule or fixed. Registers the paper's error-ratio
// threshold callbacks and runs one of the adaptation policies:
//   Resolution (§3.4)  — shrink/grow frame size; record via callback result
//                        (immediate) or via send attrs (deferred, §3.5).
//   Marking (§3.3)     — tag every 5th frame, unmark the rest with
//                        probability tracking the error ratio.
//   Frequency          — thin the frame schedule.
//
// The limited-granularity experiments (§3.5) set adapt_granularity = N: a
// triggered adaptation is deferred until the next frame whose index is
// divisible by N; the callback answers ADAPT_WHEN=deferred and the actual
// change is announced with attributes on that frame's submit — with
// ADAPT_COND_ERATIO attached when attach_cond is set.

#include <cstdint>
#include <optional>

#include "iq/echo/channel.hpp"
#include "iq/echo/policies.hpp"
#include "iq/sim/timer.hpp"
#include "iq/stats/metrics.hpp"
#include "iq/workload/frame_schedule.hpp"

namespace iq::echo {

enum class AdaptKind { None, Resolution, Marking, Frequency };

struct AdaptiveSourceConfig {
  /// Frames per second; 0 = send as fast as the transport allows.
  double frame_rate = 0.0;
  std::uint64_t total_frames = 1000;
  /// Frame size when no schedule is given.
  std::int64_t fixed_frame_bytes = 1400;

  AdaptKind adaptation = AdaptKind::None;
  double upper_threshold = 0.15;
  double lower_threshold = 0.01;
  /// 0 = adapt immediately in the callback; N = only at frames with
  /// index % N == 0 (the paper's "limited granularity").
  std::uint64_t adapt_granularity = 0;
  /// Attach ADAPT_COND_ERATIO to deferred adaptations (scheme 3 full).
  bool attach_cond = false;
  /// EveryEpoch fires a threshold callback on each qualifying measuring
  /// period (the paper's default); EdgeTriggered fires once per excursion.
  attr::FiringMode firing = attr::FiringMode::EveryEpoch;

  MarkingPolicyConfig marking{};
  ResolutionPolicyConfig resolution{};
  FrequencyPolicyConfig frequency{};

  std::uint64_t seed = 7;
  /// ASAP mode keeps at least this many segments queued in the transport:
  /// an `asap_poll` tick starts streaming, and while it runs every ack that
  /// empties the queue refills it at once, so acks and the window clock
  /// the source, not the tick.
  std::size_t asap_backlog_segments = 64;
  Duration asap_poll = Duration::millis(1);
  /// Bound on the transport's unsent backlog: when a timed source outruns a
  /// degraded link (blackout, heavy loss) the transport sheds the oldest
  /// whole queued messages instead of growing without bound. 0 = unbounded.
  std::size_t backlog_limit_segments = 4096;
};

class AdaptiveSource {
 public:
  /// `schedule` may be null (fixed frame size). `metrics` may be null.
  /// `channel` and its connection must outlive the source: the destructor
  /// removes the callbacks the source installed on the connection.
  AdaptiveSource(EventChannel& channel,
                 const workload::FrameSchedule* schedule,
                 const AdaptiveSourceConfig& cfg,
                 stats::MessageMetrics* metrics);
  ~AdaptiveSource();
  AdaptiveSource(const AdaptiveSource&) = delete;
  AdaptiveSource& operator=(const AdaptiveSource&) = delete;

  void start();
  void stop();
  bool done() const { return frames_submitted_ >= cfg_.total_frames; }

  std::uint64_t frames_submitted() const { return frames_submitted_; }
  std::uint64_t frames_thinned() const { return frames_thinned_; }
  std::uint64_t deferrals() const { return deferrals_; }
  const ResolutionPolicy& resolution_policy() const { return resolution_; }
  const MarkingPolicy& marking_policy() const { return marking_; }
  const FrequencyPolicy& frequency_policy() const { return frequency_; }

 private:
  struct PendingAdaptation {
    attr::ThresholdKind kind;
    double eratio;
  };

  void register_callbacks();
  attr::AttrList on_threshold(const attr::CallbackContext& ctx);
  attr::AttrList adapt_now(attr::ThresholdKind kind, double eratio,
                           core::AdaptationRecord* out_rec);
  void tick();
  void refill();
  void submit_frame(std::uint64_t index);
  std::int64_t nominal_frame_bytes() const;

  EventChannel& channel_;
  const workload::FrameSchedule* schedule_;
  AdaptiveSourceConfig cfg_;
  stats::MessageMetrics* metrics_;

  ResolutionPolicy resolution_;
  MarkingPolicy marking_;
  FrequencyPolicy frequency_;

  sim::PeriodicTask task_;
  attr::CallbackRegistry::RegistrationId callbacks_id_ = 0;  ///< 0 = none
  TimePoint started_;
  std::uint64_t frames_submitted_ = 0;
  std::uint64_t frame_index_ = 0;
  std::uint64_t frames_thinned_ = 0;
  std::uint64_t deferrals_ = 0;
  std::optional<PendingAdaptation> pending_;
};

}  // namespace iq::echo
