#pragma once
// The Table-1 scenario built from the library's public components.
//
// harness::run_experiment builds its wires inside the harness, so a traced
// run cannot reach them. Table1Run builds the same objects in the same
// order as run_experiment does for an IQ-RUDP scheme with CBR cross
// traffic (the only shape scenarios::table1 produces), optionally putting a
// TracedWire between each connection and its SimWire and timing its own
// Simulator::run_for calls. Reaching the same 464832 events as
// run_experiment proves both the mirror and the decorators faithful.

#include <cstdint>
#include <memory>

#include "iq/core/coordinator.hpp"
#include "iq/harness/experiment.hpp"
#include "iq/rudp/connection.hpp"
#include "trace.hpp"

namespace perfbench {

/// Events one Table-1 IQ-RUDP run executes (ROADMAP golden).
inline constexpr std::uint64_t kTable1Events = 464832;

class Table1Run {
 public:
  /// `tracer` null: bare SimWires and no spans.
  Table1Run(const iq::harness::ExperimentConfig& cfg, Tracer* tracer);
  ~Table1Run();
  Table1Run(const Table1Run&) = delete;
  Table1Run& operator=(const Table1Run&) = delete;

  /// Run the workload to completion plus the drain, as run_experiment does.
  /// Returns whether the workload finished before max_sim_time.
  bool run();

  std::uint64_t events() const;
  std::uint64_t messages_delivered() const;
  const iq::rudp::RudpStats& sender_stats() const;
  const iq::rudp::RudpStats& receiver_stats() const;
  const iq::core::CoordinatorStats& coordinator_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
