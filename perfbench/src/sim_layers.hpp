// Outside-in decomposition of one simulated chase, and the simulator
// per-layer metrics every workload reports.
//
// traced_chase() does what ubench::chase_latency_ns() does, one public
// call at a time — Machine::probe, ubench::emit_chase_trace into a
// buffering sink, LatencyProbe::access_batch — with a span around each
// call, so the traced run can split a simulation's host time between
// probe construction, stream generation and the simulated walk.  Its
// latency must equal chase_latency_ns() bit for bit; callers check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/sweep.hpp"
#include "trace/trace.hpp"
#include "ubench/workloads.hpp"

namespace perfbench {

struct ChaseRun {
  double latency_ns = 0.0;
  sim::BatchStats stats;
  std::uint64_t emitted = 0;  ///< accesses the generator produced
};

/// `options.counters`, when set, receives the probe stack's events.
ChaseRun traced_chase(const sim::Machine& machine,
                      const ubench::ChaseOptions& options, Tracer* tracer,
                      std::uint64_t request);

/// Simulator work totals a traced run accumulates.
struct SimTotals {
  sim::CounterRegistry counters;
  sim::BatchStats stats;
  std::uint64_t emitted = 0;
  std::uint64_t records = 0;     ///< trace records decoded
  std::uint64_t file_bytes = 0;  ///< trace file bytes read
  void add(const sim::BatchStats& batch);
  void add(const ChaseRun& run);
};

/// Busy share, longest-task share and steal count of one SweepRunner run.
struct TimelineStats {
  double busy_ratio = 0.0;
  double longest_task_share = 0.0;
  double steals = 0.0;
};
TimelineStats timeline_stats(const sim::SweepRunner& runner);

/// Fills the simulator and ubench per-layer metrics (sim.machine.*,
/// sim.cache.*, sim.prefetch.*, ubench.*) from the traced spans and the
/// counters/stats of the same run.  `op_span` names the span whose
/// total is the denominator of probe_build_share.
void sim_layer_metrics(const std::map<std::string, SpanTotals>& spans,
                       const SimTotals& totals, const std::string& op_span,
                       Report& report);

/// Every per-layer metric at 0, so a workload that never calls into a
/// layer still reports the full set; workloads overwrite what they
/// measure.
void zero_layer_metrics(Report& report);

}  // namespace perfbench
