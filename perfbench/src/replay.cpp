// Workload trace-replay: `p8trace replay` without the argv parsing.
// Set-up records the seq-scan, stride and dcbt-hint workloads of
// ubench::trace_workloads() with TraceWriter; each op then replays one
// file through TraceReader + trace::replay_trace into a fresh probe
// built with the registry's ProbeOptions, single-threaded, with the
// reader's checksum verification on.  The prefetch engine, the
// in-flight table and trace decoding do the work; probe construction
// and the deep hierarchy walk do almost none — the mirror image of
// fig2-sweep.
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "sim/machine/latency_probe.hpp"
#include "sim/machine/spec.hpp"
#include "sim_layers.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
/// Accesses per recorded file, before the seed's +-1% length change.
constexpr std::uint64_t kAccessesPerFile = 1'000'000;
constexpr const char* kWorkloads[] = {"seq-scan", "stride", "dcbt-hint"};

/// Counts what a generator emits and discards it.
class CountingSink final : public trace::TraceSink {
 public:
  std::uint64_t accesses = 0;
  void access(std::uint64_t) override { ++accesses; }
  void dcbt_hint(std::uint64_t, std::uint64_t, bool) override {}
  void dcbt_stop(std::uint64_t) override {}
  void mark(std::uint64_t) override {}
};

/// What replaying one file must reproduce.
struct Expected {
  sim::BatchStats stats;
  std::vector<trace::ChunkedReplayer::Mark> marks;
  double now_ns = 0.0;
  sim::CounterRegistry counters;
};

struct ReplayFile {
  const ubench::TraceWorkload* workload = nullptr;
  std::uint64_t hint = 0;
  std::string path;
  std::uint64_t records = 0;
};

struct ReplayState {
  sim::Machine machine = sim::machine_spec("e870").machine();
  std::vector<ReplayFile> files;
};

bool same_stats(const sim::BatchStats& a, const sim::BatchStats& b) {
  return a.accesses == b.accesses && a.l1_fast_hits == b.l1_fast_hits &&
         a.prefetched_hits == b.prefetched_hits && a.busy_ns == b.busy_ns;
}

bool same_marks(const std::vector<trace::ChunkedReplayer::Mark>& a,
                const std::vector<trace::ChunkedReplayer::Mark>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].id != b[i].id || a[i].now_ns != b[i].now_ns ||
        a[i].accesses != b[i].accesses)
      return false;
  return true;
}

/// The direct run a file replay must equal: emit -> ChunkedReplayer,
/// with counting on.
Expected direct_run(const sim::Machine& machine, const ReplayFile& file) {
  Expected e;
  sim::ProbeOptions options = file.workload->probe_options;
  options.counters = &e.counters;
  sim::LatencyProbe probe = machine.probe(options);
  trace::ChunkedReplayer sink(probe);
  file.workload->emit(machine, file.hint, sink);
  sink.flush();
  e.stats = sink.stats();
  e.marks = sink.marks();
  e.now_ns = probe.now_ns();
  return e;
}

/// Outcome of one op, whichever path replayed it.
struct Outcome {
  trace::ReplayResult result;
  double now_ns = 0.0;
  std::uint64_t file_bytes = 0;
};

Outcome replay_untraced(const sim::Machine& machine, const ReplayFile& file) {
  trace::TraceReader reader(file.path);
  sim::LatencyProbe probe = machine.probe(file.workload->probe_options);
  Outcome out;
  out.result = trace::replay_trace(reader, probe);
  out.now_ns = probe.now_ns();
  out.file_bytes = reader.file_bytes();
  return out;
}

/// trace::replay_trace one public call at a time, with spans around
/// reader construction, probe construction and chunk decoding, and the
/// access_batch calls folded per chunk.
Outcome replay_traced(const sim::Machine& machine, const ReplayFile& file,
                      sim::CounterRegistry* counters, Tracer& tracer,
                      std::uint64_t op) {
  auto reader = [&] {
    const Scoped span(&tracer, "trace.open", op);
    return std::make_unique<trace::TraceReader>(file.path);
  }();
  sim::ProbeOptions options = file.workload->probe_options;
  options.counters = counters;
  auto build = [&] {
    const Scoped span(&tracer, "sim.machine.probe", op);
    return machine.probe(options);
  };
  sim::LatencyProbe probe = build();

  Outcome out;
  trace::ReplayResult& r = out.result;
  const std::size_t capacity = reader->chunk_records();
  std::vector<std::uint64_t> buffer;
  buffer.reserve(capacity);
  std::int64_t batch_ns = 0;
  std::uint64_t batches = 0;
  const auto flush = [&] {
    if (buffer.empty()) return;
    const std::int64_t t0 = now_ns();
    probe.access_batch(std::span<const std::uint64_t>(buffer), r.stats);
    batch_ns += now_ns() - t0;
    ++batches;
    buffer.clear();
  };
  std::vector<trace::TraceRecord> chunk;
  for (;;) {
    {
      const Scoped span(&tracer, "trace.next_chunk", op);
      if (!reader->next_chunk(chunk)) break;
    }
    for (const trace::TraceRecord& rec : chunk) {
      switch (rec.op) {
        case trace::TraceOp::kAccess:
          buffer.push_back(rec.addr);
          if (buffer.size() >= capacity) flush();
          ++r.accesses;
          break;
        case trace::TraceOp::kDcbtHint:
          flush();
          probe.dcbt_hint(rec.addr, rec.length_bytes, rec.descending);
          break;
        case trace::TraceOp::kDcbtStop:
          flush();
          probe.dcbt_stop(rec.addr);
          break;
        case trace::TraceOp::kMark:
          flush();
          r.marks.push_back({rec.mark, probe.now_ns(), r.stats.accesses});
          break;
      }
      ++r.records;
    }
    tracer.fold("sim.machine.access_batch", batch_ns, batches);
    batch_ns = 0;
    batches = 0;
  }
  flush();
  tracer.fold("sim.machine.access_batch", batch_ns, batches);
  out.now_ns = probe.now_ns();
  out.file_bytes = reader->file_bytes();
  return out;
}

}  // namespace

Report run_trace_replay(const Options& options) {
  Report report;
  HeapMonitor heap;
  auto state = timed_setups(kSetups, options, report, [&] {
    auto s = std::make_unique<ReplayState>();
    common::Xoshiro256 rng(options.seed);
    for (const char* name : kWorkloads) {
      ReplayFile file;
      file.workload = ubench::find_trace_workload(name);
      if (file.workload == nullptr)
        throw std::runtime_error(std::string("no trace workload ") + name);
      file.hint = kAccessesPerFile +
                  rng.bounded(kAccessesPerFile / 50) - kAccessesPerFile / 100;
      file.path = options.state_dir + "/" + name + ".p8t";
      trace::TraceWriter writer(file.path);
      file.workload->emit(s->machine, file.hint, writer);
      writer.finish();
      file.records = writer.records();
      s->files.push_back(file);
    }
    // Warm-up: one untimed replay of each file.
    for (const ReplayFile& file : s->files) replay_untraced(s->machine, file);
    return s;
  });
  report.note("warm-up: one untimed replay of each file per set-up");
  const sim::Machine& machine = state->machine;
  const std::vector<ReplayFile>& files = state->files;

  const std::int64_t v0 = now_ns();
  std::vector<Expected> expected;
  for (const ReplayFile& file : files)
    expected.push_back(direct_run(machine, file));
  report.note(strf("reference: direct emit -> ChunkedReplayer runs of %zu "
                   "files, %.3f s",
                   files.size(), static_cast<double>(now_ns() - v0) * 1e-9));
  for (std::size_t i = 0; i < files.size(); ++i)
    report.note(strf("  %-10s %llu records, %llu accesses", kWorkloads[i],
                     static_cast<unsigned long long>(files[i].records),
                     static_cast<unsigned long long>(
                         expected[i].stats.accesses)));

  if (options.perturb) {
    // One flipped payload byte in the first file: the reader must reject
    // it, or the replay must differ from the direct run.
    std::FILE* f = std::fopen(files[0].path.c_str(), "r+b");
    if (f == nullptr)
      throw std::runtime_error("cannot reopen " + files[0].path);
    std::fseek(f, 4096, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 4096, SEEK_SET);
    std::fputc(c ^ 0x10, f);
    std::fclose(f);
  }

  // Ops go round-robin over the files from a seeded start, in whole
  // rounds, so every run replays the same mix.  A round (one replay of
  // each file) is the timed unit: its cost does not depend on where in
  // the rotation a sample falls.
  const std::size_t start = options.seed % files.size();
  struct Phase {
    std::vector<double> round_wall;
    std::vector<double> round_cpu;  ///< the replaying thread's CPU time
  };
  // With a tracer, each replay is decomposed into spans.
  const auto run_phase = [&](double seconds, Tracer* tracer,
                             SimTotals* totals) {
    Phase phase;
    double round_wall = 0.0;
    double round_cpu = 0.0;
    bool round_complete = true;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t op = 0;
         op % files.size() != 0 || op == 0 || now_ns() < deadline; ++op) {
      if (op % files.size() == 0) {
        round_wall = round_cpu = 0.0;
        round_complete = true;
      }
      const std::size_t index = (start + op) % files.size();
      const ReplayFile& file = files[index];
      const Expected& want = expected[index];
      ++report.attempted;
      sim::CounterRegistry counters;
      Outcome got;
      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      try {
        if (tracer != nullptr) {
          const Scoped span(tracer, "bench.replay", op);
          got = replay_traced(machine, file, &counters, *tracer, op);
        } else {
          got = replay_untraced(machine, file);
        }
      } catch (const trace::TraceError& e) {
        report.fail(strf("op %zu (%s): reader rejected the file: %s", op,
                         file.workload->name.c_str(), e.what()));
        round_complete = false;
        continue;
      }
      round_wall += static_cast<double>(now_ns() - t0) * 1e-9;
      round_cpu += static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
      if ((op + 1) % files.size() == 0 && round_complete) {
        phase.round_wall.push_back(round_wall);
        phase.round_cpu.push_back(round_cpu);
      }
      const trace::ReplayResult& r = got.result;
      if (!same_stats(r.stats, want.stats) ||
          !same_marks(r.marks, want.marks) || r.records != file.records ||
          r.accesses != want.stats.accesses || got.now_ns != want.now_ns) {
        report.fail(strf("op %zu (%s): ReplayResult differs from the direct "
                         "emit -> ChunkedReplayer run",
                         op, file.workload->name.c_str()));
      } else if (tracer != nullptr && counters.snapshot() != want.counters.snapshot()) {
        report.fail(strf("op %zu (%s): counters differ from the untraced "
                         "counting run",
                         op, file.workload->name.c_str()));
      }
      if (totals != nullptr) {
        totals->add(r.stats);
        totals->counters.merge(counters);
        totals->records += r.records;
        totals->file_bytes += got.file_bytes;
      }
    }
    return phase;
  };

  double accesses_per_round = 0.0;
  for (const Expected& e : expected)
    accesses_per_round += static_cast<double>(e.stats.accesses);
  if (!options.trace) {
    const Phase phase = run_phase(options.seconds, nullptr, nullptr);
    memory_metrics(heap, report);
    const Distribution d = distribution(phase.round_cpu);
    report.metric("throughput",
                  d.p50 > 0.0 ? accesses_per_round / d.p50 : 0.0, "1/cpu_s");
    report.metric("cpu_p50_ms", d.p50 * 1e3, "ms");
    report.note(describe("round CPU time (one replay of each file, file open "
                         "to ReplayResult)",
                         d, "ms", 1e3));
    const Distribution w = distribution(phase.round_wall);
    report.note(describe("round wall time", w, "ms", 1e3));
    report.note(strf("replay_macc_per_s = %.4f Macc per CPU s, %.4f Macc per "
                     "wall s (per median round)",
                     d.p50 > 0.0 ? accesses_per_round / d.p50 / 1e6 : 0.0,
                     w.p50 > 0.0 ? accesses_per_round / w.p50 / 1e6 : 0.0));
    return report;
  }

  zero_layer_metrics(report);
  const Phase base = run_phase(options.seconds / 2, nullptr, nullptr);
  Tracer tracer;
  SimTotals totals;
  const Phase traced = run_phase(options.seconds / 2, &tracer, &totals);
  // Generator cost, for comparison with the decode path that replaces it.
  for (const ReplayFile& file : files) {
    CountingSink sink;
    {
      const Scoped span(&tracer, "ubench.emit", 0);
      file.workload->emit(machine, file.hint, sink);
    }
    totals.emitted += sink.accesses;
  }
  const auto spans = tracer.totals_by_name();
  sim_layer_metrics(spans, totals, "bench.replay", report);
  const double decode_ns = self_ns(spans, "trace.next_chunk");
  const auto op = spans.find("bench.replay");
  report.metric("trace.decode_ns_per_record",
                totals.records > 0
                    ? decode_ns / static_cast<double>(totals.records)
                    : 0.0,
                "ns");
  report.metric("trace.decode_share",
                op != spans.end() && op->second.total_ns > 0.0
                    ? decode_ns / op->second.total_ns
                    : 0.0,
                "ratio");
  report.metric("trace.bytes_per_access",
                totals.stats.accesses > 0
                    ? static_cast<double>(totals.file_bytes) /
                          static_cast<double>(totals.stats.accesses)
                    : 0.0,
                "B");
  const Distribution db = distribution(base.round_cpu);
  const Distribution dt = distribution(traced.round_cpu);
  report.metric("tracing.overhead_ratio",
                db.p50 > 0.0 ? dt.p50 / db.p50 - 1.0 : 0.0, "ratio");
  report.note(describe("untraced round CPU time", db, "ms", 1e3));
  report.note(describe("traced round CPU time", dt, "ms", 1e3));
  report.note(strf("tracing overhead: traced p50 - untraced p50 = %.4f ms",
                   (dt.p50 - db.p50) * 1e3));
  summarize_spans(tracer, options.state_dir + "/trace-trace-replay.json",
                  report);
  return report;
}

}  // namespace perfbench
