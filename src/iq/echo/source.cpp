#include "iq/echo/source.hpp"

#include "iq/common/check.hpp"

namespace iq::echo {

AdaptiveSource::AdaptiveSource(EventChannel& channel,
                               const workload::FrameSchedule* schedule,
                               const AdaptiveSourceConfig& cfg,
                               stats::MessageMetrics* metrics)
    : channel_(channel),
      schedule_(schedule),
      cfg_(cfg),
      metrics_(metrics),
      resolution_(cfg.resolution),
      marking_(cfg.marking, cfg.seed),
      frequency_(cfg.frequency),
      task_(channel.transport().transport().executor(),
            cfg.frame_rate > 0 ? Duration::from_seconds(1.0 / cfg.frame_rate)
                               : cfg.asap_poll,
            [this] {
              if (cfg_.frame_rate > 0) {
                tick();
              } else {
                refill();
              }
            }) {
  rudp::RudpConnection& transport = channel.transport().transport();
  transport.set_max_pending_segments(cfg.backlog_limit_segments);
  // ASAP: the tick starts streaming; while it runs, an ack that leaves the
  // transport's queue empty refills it without waiting for the next tick.
  if (cfg_.frame_rate <= 0) {
    transport.set_drained_handler([this] {
      if (task_.running()) refill();
    });
  }
  register_callbacks();
}

AdaptiveSource::~AdaptiveSource() {
  if (cfg_.frame_rate <= 0) {
    channel_.transport().transport().set_drained_handler(nullptr);
  }
  if (callbacks_id_ != 0) {
    channel_.transport().callbacks().unregister(callbacks_id_);
  }
}

void AdaptiveSource::start() {
  started_ = channel_.transport().transport().executor().now();
  if (metrics_ != nullptr) metrics_->start(started_);
  task_.start(/*fire_now=*/true);
}

void AdaptiveSource::stop() { task_.stop(); }

void AdaptiveSource::register_callbacks() {
  if (cfg_.adaptation == AdaptKind::None) return;
  callbacks_id_ = channel_.transport().register_error_ratio_callbacks(
      cfg_.upper_threshold, cfg_.lower_threshold,
      [this](const attr::CallbackContext& ctx) { return on_threshold(ctx); },
      [this](const attr::CallbackContext& ctx) { return on_threshold(ctx); },
      cfg_.firing);
}

attr::AttrList AdaptiveSource::on_threshold(
    const attr::CallbackContext& ctx) {
  // Limited granularity: defer to the next aligned frame; tell the
  // transport so it can keep adapting alone meanwhile (scheme 3).
  if (cfg_.adapt_granularity > 0) {
    if (!pending_.has_value()) {
      pending_ = PendingAdaptation{ctx.kind, ctx.value};
      ++deferrals_;
    }
    attr::AttrList out;
    out.set(attr::kAdaptWhen, attr::kAdaptDeferred);
    return out;
  }
  core::AdaptationRecord rec;
  return adapt_now(ctx.kind, ctx.value, &rec);
}

attr::AttrList AdaptiveSource::adapt_now(attr::ThresholdKind kind,
                                         double eratio,
                                         core::AdaptationRecord* out_rec) {
  core::AdaptationRecord rec;
  switch (cfg_.adaptation) {
    case AdaptKind::Resolution:
      rec = kind == attr::ThresholdKind::Upper ? resolution_.shrink(eratio)
                                               : resolution_.grow();
      rec.frame_bytes = resolution_.apply(nominal_frame_bytes());
      break;
    case AdaptKind::Marking:
      rec = kind == attr::ThresholdKind::Upper ? marking_.on_upper(eratio)
                                               : marking_.on_lower();
      break;
    case AdaptKind::Frequency:
      rec = kind == attr::ThresholdKind::Upper ? frequency_.reduce(eratio)
                                               : frequency_.restore();
      break;
    case AdaptKind::None:
      break;
  }
  if (out_rec != nullptr) *out_rec = rec;
  return rec.to_attrs();
}

std::int64_t AdaptiveSource::nominal_frame_bytes() const {
  if (schedule_ != nullptr) {
    const Duration elapsed =
        channel_.transport().transport().executor().now() - started_;
    return schedule_->frame_bytes_at(elapsed);
  }
  return cfg_.fixed_frame_bytes;
}

void AdaptiveSource::tick() {
  if (done()) {
    task_.stop();
    return;
  }
  submit_frame(frame_index_++);
}

void AdaptiveSource::refill() {
  if (done()) {
    task_.stop();
    return;
  }
  auto& transport = channel_.transport().transport();
  if (!transport.established()) return;
  while (!done() &&
         transport.queued_segments() < cfg_.asap_backlog_segments) {
    submit_frame(frame_index_++);
  }
}

void AdaptiveSource::submit_frame(std::uint64_t index) {
  // Frequency adaptation thins the schedule itself.
  if (cfg_.adaptation == AdaptKind::Frequency &&
      !frequency_.should_send(index)) {
    ++frames_thinned_;
    ++frames_submitted_;  // the frame existed; it was adapted away
    if (metrics_ != nullptr) metrics_->offered();
    return;
  }

  attr::AttrList adaptation_attrs;
  // A deferred adaptation lands on the next aligned frame: perform it now,
  // announce it on this send, and (optionally) say what conditions it was
  // based on — the possibly-obsolete eratio from trigger time.
  if (pending_.has_value() && cfg_.adapt_granularity > 0 &&
      index % cfg_.adapt_granularity == 0) {
    const PendingAdaptation p = *pending_;
    pending_.reset();
    core::AdaptationRecord rec;
    adaptation_attrs = adapt_now(p.kind, p.eratio, &rec);
    if (cfg_.attach_cond) {
      adaptation_attrs.set(attr::kAdaptCondErrorRatio, p.eratio);
    }
  }

  Event ev;
  ev.bytes = resolution_.apply(nominal_frame_bytes());
  ev.tagged = marking_.decide_tagged(index);

  ++frames_submitted_;
  if (metrics_ != nullptr) metrics_->offered();
  channel_.submit(ev, adaptation_attrs);
}

}  // namespace iq::echo
