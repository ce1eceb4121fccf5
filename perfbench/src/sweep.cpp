// Workload fig2-sweep: the Figure 2 random-chase sweep on e870 (64 KiB
// pages, prefetch off, 16 KiB .. 64 MiB) through the 4-worker
// memory_latency_scan overload, as every figure bench runs it.  It
// builds a probe per point, walks L2/L3/victim/L4 and the TLB and fans
// points across the task engine; it never prefetches, decodes a trace
// or serves.
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/machine/spec.hpp"
#include "sim_layers.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPageBytes = 64 * 1024;
constexpr std::uint64_t kPerturbedPageBytes = 16ull << 20;
constexpr int kDscr = 1;
constexpr std::size_t kWorkers = 4;
constexpr int kSetups = 3;

/// The bench_fig2_latency grid (4 points per octave below 16 MiB, 2
/// above, up to 64 MiB) with every interior point moved by up to +-5%,
/// to a cache line, by the seed.  The end points stay fixed, so the
/// cost of a sweep hardly depends on the seed.
std::vector<std::uint64_t> sweep_sizes(std::uint64_t seed) {
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t ws = common::kib(16); ws <= common::mib(64);)
    sizes.push_back(ws), ws += ws / (ws < common::mib(16) ? 4 : 2);
  common::Xoshiro256 rng(seed);
  for (std::size_t i = 1; i + 1 < sizes.size(); ++i) {
    const double shift = (rng.uniform() - 0.5) * 0.1;
    const auto moved = static_cast<std::uint64_t>(
        static_cast<double>(sizes[i]) * (1.0 + shift));
    sizes[i] = moved / 128 * 128;
  }
  return sizes;
}

std::uint64_t digest(const std::vector<ubench::LatencyPoint>& points) {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& p : points) {
    h = fnv1a(h, &p.working_set_bytes, sizeof p.working_set_bytes);
    h = fnv1a(h, &p.latency_ns, sizeof p.latency_ns);
  }
  return h;
}

struct SweepState {
  sim::Machine machine;
  std::vector<std::uint64_t> sizes;
  sim::SweepRunner runner{kWorkers};

  explicit SweepState(std::uint64_t seed)
      : machine(sim::machine_spec("e870").machine()),
        sizes(sweep_sizes(seed)) {
    runner.gate_on_audit(machine.audit());
  }
};

/// One phase of timed sweeps: each sweep's wall time, and the CPU time
/// it took over every thread of the process (the workers' and the
/// waiting caller's).
struct Phase {
  std::vector<double> wall;
  std::vector<double> cpu;
  void add(std::int64_t wall_ns, std::int64_t cpu_ns) {
    wall.push_back(static_cast<double>(wall_ns) * 1e-9);
    cpu.push_back(static_cast<double>(cpu_ns) * 1e-9);
  }
};

}  // namespace

Report run_fig2_sweep(const Options& options) {
  Report report;
  HeapMonitor heap;
  auto state = timed_setups(kSetups, options, report, [&] {
    auto s = std::make_unique<SweepState>(options.seed);
    // Untimed warm-up sweep: starts the pool's workers and faults in
    // the allocator arenas the first parallel sweep would pay for.
    ubench::memory_latency_scan(s->machine, s->sizes, kPageBytes, kDscr,
                                s->runner);
    return s;
  });
  report.note(strf("warm-up: one untimed %zu-worker sweep per set-up",
                   kWorkers));
  const sim::Machine& machine = state->machine;
  const std::vector<std::uint64_t>& sizes = state->sizes;

  // Reference: the sequential overload with counting on.  Its digest
  // checks every measured sweep; its counters check the traced run.
  const std::int64_t v0 = now_ns();
  sim::CounterRegistry reference_counters;
  const auto reference = ubench::memory_latency_scan(
      machine, sizes, kPageBytes, kDscr, &reference_counters);
  const std::uint64_t reference_digest = digest(reference);
  const auto accesses_per_sweep =
      static_cast<double>(reference_counters.value("probe.accesses"));
  report.note(strf("reference: sequential scan of %zu points, %.0f simulated "
                   "accesses, digest %016llx, %.3f s",
                   sizes.size(), accesses_per_sweep,
                   static_cast<unsigned long long>(reference_digest),
                   static_cast<double>(now_ns() - v0) * 1e-9));

  const std::uint64_t measured_page =
      options.perturb ? kPerturbedPageBytes : kPageBytes;
  const auto untraced = [&](double seconds) {
    Phase phase;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (phase.wall.empty() || now_ns() < deadline) {
      const std::int64_t c0 = process_cpu_ns();
      const std::int64_t t0 = now_ns();
      const auto points = ubench::memory_latency_scan(
          machine, sizes, measured_page, kDscr, state->runner);
      phase.add(now_ns() - t0, process_cpu_ns() - c0);
      ++report.attempted;
      if (digest(points) != reference_digest)
        report.fail(strf("sweep %zu: digest differs from the sequential scan",
                         phase.wall.size()));
    }
    return phase;
  };

  if (!options.trace) {
    const Phase phase = untraced(options.seconds);
    memory_metrics(heap, report);
    const Distribution d = distribution(phase.cpu);
    report.metric("throughput", accesses_per_sweep / d.p50, "1/cpu_s");
    report.metric("cpu_p50_ms", d.p50 * 1e3, "ms");
    report.note(describe("sweep CPU time", d, "ms", 1e3));
    const Distribution w = distribution(phase.wall);
    report.note(describe("sweep wall time", w, "ms", 1e3));
    report.note(strf("sweep_macc_per_s = %.4f Macc per CPU s, %.4f Macc per "
                     "wall s (%.0f accesses, warm + measure, per median "
                     "sweep)",
                     accesses_per_sweep / d.p50 / 1e6,
                     accesses_per_sweep / w.p50 / 1e6, accesses_per_sweep));
    return report;
  }

  // Traced run: half the time untraced for the overhead baseline, half
  // on the decomposed sweep with a span around every layer call.
  zero_layer_metrics(report);
  const Phase base = untraced(options.seconds / 2);
  Tracer tracer;
  Phase traced;
  SimTotals totals;
  std::vector<TimelineStats> timelines;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds / 2 * 1e9);
  while (traced.wall.empty() || now_ns() < deadline) {
    const std::uint64_t sweep = traced.wall.size();
    std::vector<sim::CounterRegistry> counters(sizes.size());
    std::vector<ChaseRun> runs;
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    {
      const Scoped run(&tracer, "common.taskgraph.run", sweep);
      runs = state->runner.run(sizes.size(), [&](std::size_t i) {
        const Scoped point(&tracer, "bench.point", i, run.id());
        ubench::ChaseOptions chase;
        chase.working_set_bytes = sizes[i];
        chase.page_bytes = measured_page;
        chase.dscr = kDscr;
        chase.counters = &counters[i];
        return traced_chase(machine, chase, &tracer, i);
      });
    }
    traced.add(now_ns() - t0, process_cpu_ns() - c0);
    timelines.push_back(timeline_stats(state->runner));
    ++report.attempted;

    std::vector<ubench::LatencyPoint> points;
    sim::CounterRegistry merged;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      points.push_back({sizes[i], runs[i].latency_ns});
      merged.merge(counters[i]);
      totals.add(runs[i]);
    }
    totals.counters.merge(merged);
    if (digest(points) != reference_digest)
      report.fail(strf("traced sweep %llu: digest differs from the "
                       "sequential scan",
                       static_cast<unsigned long long>(sweep)));
    else if (merged.snapshot() != reference_counters.snapshot())
      report.fail(strf("traced sweep %llu: counters differ from the "
                       "untraced counting run",
                       static_cast<unsigned long long>(sweep)));
  }

  const auto spans = tracer.totals_by_name();
  sim_layer_metrics(spans, totals, "bench.point", report);
  const auto median_of = [&](double TimelineStats::*field) {
    std::vector<double> v;
    for (const auto& t : timelines) v.push_back(t.*field);
    return median(v);
  };
  report.metric("common.taskgraph.busy_ratio",
                median_of(&TimelineStats::busy_ratio), "ratio");
  report.metric("common.taskgraph.longest_task_share",
                median_of(&TimelineStats::longest_task_share), "ratio");
  report.metric("common.taskgraph.steals", median_of(&TimelineStats::steals),
                "count");
  const Distribution db = distribution(base.cpu);
  const Distribution dt = distribution(traced.cpu);
  report.metric("tracing.overhead_ratio", dt.p50 / db.p50 - 1.0, "ratio");
  report.note(describe("untraced sweep CPU time", db, "ms", 1e3));
  report.note(describe("traced sweep CPU time", dt, "ms", 1e3));
  report.note(strf("tracing overhead: traced p50 - untraced p50 = %.4f ms",
                   (dt.p50 - db.p50) * 1e3));
  summarize_spans(tracer, options.state_dir + "/trace-fig2-sweep.json", report);
  return report;
}

}  // namespace perfbench
