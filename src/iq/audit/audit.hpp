#pragma once
// AuditContext: one armed connection's flight recorder + invariant auditor.
//
// RudpConnection::enable_audit() creates one; every protocol event the
// connection (and its coordinator) emits flows through record(), which
// appends to the ring and feeds the auditor. A violation triggers, in
// order: a flight-recorder JSON dump to disk (once per context), the
// user's violation handler, and — in fatal mode, the CI default — an
// abort whose message carries the dump path.
//
// Process-wide arming: exporting IQ_AUDIT=1 arms every RudpConnection
// constructed afterwards (fatal mode), which is how scripts/ci.sh --audit
// turns the whole ctest suite and the chaos matrix into an audited run.
// IQ_AUDIT_RING overrides the ring capacity, IQ_AUDIT_DUMP_DIR the dump
// directory (default: current working directory).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "iq/audit/auditor.hpp"
#include "iq/audit/flight_recorder.hpp"

namespace iq::audit {

struct AuditConfig {
  std::size_t ring_capacity = 4096;
  /// Directory for violation dumps; empty = current working directory.
  std::string dump_dir;
  bool dump_on_violation = true;
  /// Abort the process on the first violation (after dumping). This is the
  /// CI mode: a tripped invariant fails the run with the dump path in the
  /// message. Tests exercising seeded violations leave it off and inspect
  /// violations() instead.
  bool fatal = false;
  /// Invoked for each violation, after any dump and before any abort.
  std::function<void(const Violation&)> on_violation;
};

class AuditContext {
 public:
  AuditContext(std::uint32_t conn_id, AuditConfig cfg);

  /// Feed one event to the ring and the auditor; reacts to any violation
  /// the auditor raises. The hot path when nothing is wrong is one struct
  /// copy plus the auditor's map updates.
  void record(const Event& e);

  /// Run the drained-sender conservation check (see
  /// InvariantAuditor::check_quiescent).
  void check_quiescent();

  const FlightRecorder& recorder() const { return recorder_; }
  const InvariantAuditor& auditor() const { return auditor_; }
  InvariantAuditor& auditor() { return auditor_; }
  const std::vector<Violation>& violations() const {
    return auditor_.violations();
  }

  /// Full dump: recorder window + violations, as one JSON object.
  std::string dump_json() const;
  /// Write dump_json() to `<dump_dir>/iq_audit_dump_<conn>_<n>.json`;
  /// returns the path ("" on I/O failure).
  std::string dump_to_file() const;
  /// Path of the automatic violation dump, if one was written.
  const std::string& violation_dump_path() const { return dump_path_; }
  /// Reused per-ack list of the sequences an ACK acknowledged first, kept
  /// here so only armed connections pay for it.
  std::vector<std::uint64_t>& acked_scratch() { return acked_scratch_; }

 private:
  void handle_violations();

  std::uint32_t conn_id_;
  AuditConfig cfg_;
  FlightRecorder recorder_;
  InvariantAuditor auditor_;
  std::size_t violations_handled_ = 0;
  std::string dump_path_;
  std::vector<std::uint64_t> acked_scratch_;
};

/// Process-wide arming from the environment (IQ_AUDIT=1): non-null when
/// armed, pointing at the shared config parsed once per process.
const AuditConfig* env_audit_config();

}  // namespace iq::audit
