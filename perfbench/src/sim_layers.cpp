#include "sim_layers.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "sim/machine/latency_probe.hpp"

namespace perfbench {

namespace {

/// Materializes a chase stream: the addresses, and where each mark
/// fell.  Chase generators emit no DCBT records.
class BufferSink final : public trace::TraceSink {
 public:
  std::vector<std::uint64_t> addrs;
  std::vector<std::pair<std::uint64_t, std::size_t>> marks;

  void access(std::uint64_t addr) override { addrs.push_back(addr); }
  void dcbt_hint(std::uint64_t, std::uint64_t, bool) override {
    throw std::logic_error("chase streams carry no DCBT hints");
  }
  void dcbt_stop(std::uint64_t) override {
    throw std::logic_error("chase streams carry no DCBT stops");
  }
  void mark(std::uint64_t id) override { marks.emplace_back(id, addrs.size()); }
};

/// Unit of every per-layer metric, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"sim.machine.probe_build_ms", "ms"},
      {"sim.machine.probe_build_share", "ratio"},
      {"sim.machine.replay_ns_per_access", "ns"},
      {"sim.machine.fast_path_ratio", "ratio"},
      {"sim.machine.prefetched_hit_ratio", "ratio"},
      {"ubench.emit_ns_per_access", "ns"},
      {"sim.cache.l1_miss_per_kacc", "1/kacc"},
      {"sim.cache.l2_miss_per_kacc", "1/kacc"},
      {"sim.cache.l3_victim_hit_per_kacc", "1/kacc"},
      {"sim.cache.l4_hit_per_kacc", "1/kacc"},
      {"sim.cache.dram_fill_per_kacc", "1/kacc"},
      {"sim.cache.tlb_walk_per_kacc", "1/kacc"},
      {"sim.prefetch.issued_per_kacc", "1/kacc"},
      {"sim.prefetch.useful_ratio", "ratio"},
      {"trace.decode_ns_per_record", "ns"},
      {"trace.decode_share", "ratio"},
      {"trace.bytes_per_access", "B"},
      {"common.taskgraph.busy_ratio", "ratio"},
      {"common.taskgraph.longest_task_share", "ratio"},
      {"common.taskgraph.steals", "count"},
      {"serve.protocol.parse_us", "us"},
      {"serve.protocol.render_us", "us"},
      {"serve.server.resolve_us", "us"},
      {"serve.server.handle_line_us", "us"},
      {"serve.cache.key_us", "us"},
      {"serve.cache.hit_ratio", "ratio"},
      {"serve.cache.inserts", "count"},
      {"predict.answer_us", "us"},
      {"predict.sim_ms", "ms"},
      {"predict.analytic_ratio", "ratio"},
      {"serve.client.transport_us", "us"},
      {"tracing.overhead_ratio", "ratio"},
  };
  return units;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ChaseRun traced_chase(const sim::Machine& machine,
                      const ubench::ChaseOptions& options, Tracer* tracer,
                      std::uint64_t request) {
  // The probe configuration chase_latency_ns derives from its options.
  sim::ProbeOptions probe_options;
  probe_options.page_bytes = options.page_bytes;
  probe_options.dscr = options.dscr;
  probe_options.stride_n = options.stride_n;
  probe_options.home_chip = options.home_chip;
  probe_options.consumer_chip = options.consumer_chip;
  probe_options.counters = options.counters;
  auto build = [&] {
    const Scoped span(tracer, "sim.machine.probe", request);
    return machine.probe(probe_options);
  };
  sim::LatencyProbe probe = build();

  BufferSink sink;
  {
    const Scoped span(tracer, "ubench.emit_chase_trace", request);
    ubench::emit_chase_trace(machine.spec().processor.cache_line_bytes,
                             options, sink);
  }

  // Same chunk boundaries as trace::ChunkedReplayer: full chunks, and a
  // flush at every mark.
  ChaseRun run;
  run.emitted = sink.addrs.size();
  std::size_t pos = 0;
  double mark_ns = 0.0;
  std::size_t mark_at = sink.addrs.size();
  {
    const Scoped span(tracer, "sim.machine.access_batch", request);
    const auto feed = [&](std::size_t end) {
      while (pos < end) {
        const std::size_t n =
            std::min<std::size_t>(end - pos, trace::kDefaultChunkRecords);
        probe.access_batch(
            std::span<const std::uint64_t>(sink.addrs.data() + pos, n),
            run.stats);
        pos += n;
      }
    };
    for (const auto& [id, at] : sink.marks) {
      feed(at);
      if (id == ubench::kMarkMeasureStart && mark_at == sink.addrs.size()) {
        mark_ns = probe.now_ns();
        mark_at = at;
      }
    }
    feed(sink.addrs.size());
  }
  if (mark_at >= sink.addrs.size())
    throw std::runtime_error("chase stream has no measurement window");
  run.latency_ns = (probe.now_ns() - mark_ns) /
                   static_cast<double>(sink.addrs.size() - mark_at);
  return run;
}

void SimTotals::add(const sim::BatchStats& batch) {
  stats.accesses += batch.accesses;
  stats.l1_fast_hits += batch.l1_fast_hits;
  stats.prefetched_hits += batch.prefetched_hits;
  stats.busy_ns += batch.busy_ns;
}

void SimTotals::add(const ChaseRun& run) {
  add(run.stats);
  emitted += run.emitted;
}

TimelineStats timeline_stats(const sim::SweepRunner& runner) {
  const auto& timeline = runner.last_timeline();
  TimelineStats out;
  if (timeline.empty()) return out;
  double first = timeline.front().start_s;
  double last = timeline.front().end_s;
  double busy = 0.0;
  double longest = 0.0;
  for (const auto& task : timeline) {
    first = std::min(first, task.start_s);
    last = std::max(last, task.end_s);
    busy += task.end_s - task.start_s;
    longest = std::max(longest, task.end_s - task.start_s);
  }
  const double span = last - first;
  out.busy_ratio =
      ratio(busy, static_cast<double>(runner.threads()) * span);
  out.longest_task_share = ratio(longest, span);
  out.steals = static_cast<double>(runner.last_steals());
  return out;
}

void sim_layer_metrics(const std::map<std::string, SpanTotals>& spans,
                       const SimTotals& totals, const std::string& op_span,
                       Report& report) {
  const auto probe = spans.find("sim.machine.probe");
  const auto op = spans.find(op_span);
  if (probe != spans.end()) {
    report.metric("sim.machine.probe_build_ms",
                  median(probe->second.durations_ns) / 1e6, "ms");
    if (op != spans.end())
      report.metric("sim.machine.probe_build_share",
                    ratio(probe->second.self_ns, op->second.total_ns),
                    "ratio");
  }
  const double accesses = static_cast<double>(totals.stats.accesses);
  report.metric("sim.machine.replay_ns_per_access",
                ratio(self_ns(spans, "sim.machine.access_batch"), accesses),
                "ns");
  report.metric("sim.machine.fast_path_ratio",
                ratio(static_cast<double>(totals.stats.l1_fast_hits), accesses),
                "ratio");
  report.metric(
      "sim.machine.prefetched_hit_ratio",
      ratio(static_cast<double>(totals.stats.prefetched_hits), accesses),
      "ratio");
  if (totals.emitted > 0)
    report.metric("ubench.emit_ns_per_access",
                  ratio(self_ns(spans, "ubench.emit"),
                        static_cast<double>(totals.emitted)),
                  "ns");

  const sim::CounterRegistry& c = totals.counters;
  const double kacc = static_cast<double>(c.value("probe.accesses")) / 1e3;
  const auto per_kacc = [&](const char* metric, const char* counter) {
    report.metric(metric, ratio(static_cast<double>(c.value(counter)), kacc),
                  "1/kacc");
  };
  per_kacc("sim.cache.l1_miss_per_kacc", "cache.l1.miss");
  per_kacc("sim.cache.l2_miss_per_kacc", "cache.l2.miss");
  per_kacc("sim.cache.l3_victim_hit_per_kacc", "cache.l3.victim.hit");
  per_kacc("sim.cache.l4_hit_per_kacc", "cache.l4.hit");
  per_kacc("sim.cache.dram_fill_per_kacc", "cache.dram.fill");
  per_kacc("sim.cache.tlb_walk_per_kacc", "tlb.walk");
  double issued = 0.0;
  for (const auto& [name, value] : c.snapshot())
    if (name.rfind("prefetch.", 0) == 0 && name.size() > 7 &&
        name.compare(name.size() - 7, 7, ".issued") == 0)
      issued += static_cast<double>(value);
  report.metric("sim.prefetch.issued_per_kacc", ratio(issued, kacc), "1/kacc");
  report.metric(
      "sim.prefetch.useful_ratio",
      ratio(static_cast<double>(c.value("probe.prefetched_hits")), issued),
      "ratio");
}

void zero_layer_metrics(Report& report) {
  for (const auto& [name, unit] : layer_metric_units())
    report.metric(name, 0.0, unit);
}

}  // namespace perfbench
