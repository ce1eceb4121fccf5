// Shared machinery of the perfbench program: options, the result record
// every workload fills in, percentile rules, and the span tracer the
// traced run uses to split host time by layer.
//
// Spans are recorded only by perfbench's own code, around its calls
// into each layer's public functions; nothing inside src/ is
// instrumented.  A span's layer is its name up to the last dot
// ("sim.machine.probe" -> layer "sim.machine").
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace p8 {}

namespace perfbench {

// perfbench names simulator modules the way src/ does among itself.
using namespace p8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fault injection that the output checks must catch.
  bool perturb = false;
  /// Scratch directory (inside the checkout) for sockets, trace files
  /// and the Chrome trace export.
  std::string state_dir = ".bench_build/state";
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, or of every thread of the process,
/// in ns.  Unlike wall time it leaves out time spent waiting for a CPU,
/// including time the hypervisor gives to other guests (the kernel
/// accounts that as steal), which spreads the wall time of identical
/// runs on a shared host by a quarter and more.  Other threads' time is
/// brought up to date when they block or at a scheduler tick.
inline std::int64_t cpu_ns(clockid_t clock) {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}
inline std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}
/// CPU time of thread `tid` of this process, exact even while that
/// thread runs on another CPU (the process clock above only adds other
/// threads' time in when they block or at a scheduler tick).
inline std::int64_t thread_cpu_ns(pid_t tid) {
  // The kernel's per-thread CPU clock id, as pthread_getcpuclockid
  // builds it: ~tid << 3 | CPUCLOCK_PERTHREAD_MASK | CPUCLOCK_SCHED.
  return cpu_ns(static_cast<clockid_t>(
      (~static_cast<unsigned>(tid) << 3) | 4u | 2u));
}
/// Ids of this process's threads, from /proc/self/task.
std::vector<pid_t> thread_ids();

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 when empty.
double percentile(std::vector<double> samples, double p);

/// The highest of p99, p90 and p50 that has at least ten samples
/// beyond it, or 0 when even p50 has fewer (n < 20).
double tail_percentile_rank(std::size_t n);

/// Median plus the tail percentile of one latency population, with the
/// sample count behind it.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;  ///< which percentile `tail` is (0 = none)
  double tail = 0.0;
};
Distribution distribution(const std::vector<double>& samples);

/// Median of `values`; 0 when empty.
double median(std::vector<double> values);

/// "<label>: n=.. p50=.. pXX=.." for a population, in `unit` after
/// multiplying seconds by `scale`.
std::string describe(const std::string& label, const Distribution& d,
                     const char* unit, double scale);

/// 64-bit FNV-1a over `n` bytes, continuing from `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n);

/// What one workload run produced.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit); the final JSON line's "metrics".
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable lines printed above the JSON line.
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { notes.push_back(line); }
  /// Records a failed output check with its reason (first few printed).
  void fail(const std::string& why);

 private:
  std::size_t fail_notes_ = 0;
};

/// printf into a std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Global id of the parent span (-1 = root); ids are
  /// (thread index << 32) | index within that thread's buffer.
  std::int64_t parent = -1;
  /// Request id (serve), sweep point index (sweep) or op index.
  std::uint64_t request = 0;
  /// Time of folded child calls (see Tracer::fold).
  std::int64_t folded_ns = 0;
};

/// Per-layer totals derived from the recorded spans.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ns = 0.0;  ///< sum of span durations
  double self_ns = 0.0;   ///< minus same-thread child spans
  std::vector<double> durations_ns;
};

/// In-memory span recorder.  Each thread appends to its own buffer, so
/// recording takes no lock after a thread's first span.  Untraced code
/// passes a null Tracer*, which Scoped turns into one branch per span.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread and returns its id; `parent`
  /// -1 means "the innermost open span of this thread, if any".
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t id);

  /// Records `calls` calls of `name` totalling `ns` as children of the
  /// calling thread's innermost open span, without storing a span per
  /// call — for calls too short and frequent to record one by one.
  void fold(const char* name, std::int64_t ns, std::uint64_t calls);

  /// Totals per span name, computed from every recorded span.
  std::map<std::string, SpanTotals> totals_by_name() const;

  /// Writes Chrome trace-event JSON (chrome://tracing, Perfetto) with
  /// at most `max_events` spans; returns the number written.
  std::size_t write_chrome_json(const std::string& path,
                                std::size_t max_events) const;

 private:
  struct Buffer {
    std::uint32_t index = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> open;  ///< stack of open span ids
    struct Folded {
      const char* name;
      std::int64_t ns;
      std::uint64_t calls;
    };
    std::vector<Folded> folded;
  };
  Buffer& local();

  /// Distinguishes this tracer's thread-local buffers from those of
  /// any earlier tracer at the same address.
  std::uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a no-op when `tracer` is null.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, std::uint64_t request = 0,
         std::int64_t parent = -1)
      : tracer_(tracer) {
    if (tracer_) id_ = tracer_->begin(name, request, parent);
  }
  ~Scoped() {
    if (tracer_) tracer_->end(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::int64_t id_ = -1;
};

/// Prints each span name's and each layer's self time into `report`'s
/// notes, and writes the Chrome export to `path`.
void summarize_spans(const Tracer& tracer, const std::string& path,
                     Report& report);

/// Self time summed over every span whose name starts with `prefix`.
double self_ns(const std::map<std::string, SpanTotals>& totals,
               const std::string& prefix);

// ---- the three workloads ---------------------------------------------------

Report run_fig2_sweep(const Options& options);
Report run_trace_replay(const Options& options);
Report run_serve_mix(const Options& options);

/// Runs `setup` (which returns a std::unique_ptr to the workload's
/// state) `times` times, tearing each state down before the next set-up
/// starts, keeps the last one, and reports the median CPU time of one
/// set-up, over every thread of the process, as `setup_s` (an end-to-end
/// metric: untraced runs only).
template <typename Fn>
auto timed_setups(int times, const Options& options, Report& report,
                  Fn&& setup) {
  decltype(setup()) state;
  std::vector<double> cpu;
  std::vector<double> wall;
  for (int i = 0; i < times; ++i) {
    state = nullptr;
    const std::int64_t c0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    state = setup();
    wall.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    cpu.push_back(static_cast<double>(process_cpu_ns() - c0) * 1e-9);
  }
  if (!options.trace) report.metric("setup_s", median(cpu), "s");
  report.note(strf("setup: median of %d set-ups %.4f CPU s (wall %.4f s)",
                   times, median(cpu), median(wall)));
  return state;
}

/// Peak resident set of this process so far, in MiB.  It includes
/// memory the allocator keeps after it is freed.
double peak_rss_mib();

/// Samples the allocator's bytes in use (glibc mallinfo2: arena chunks
/// plus mmapped chunks) every 5 ms on a background thread and keeps the
/// peak — the memory the program asked for, without what the allocator
/// retains after free, which swings by hundreds of MiB between identical
/// serve-mix runs.
class HeapMonitor {
 public:
  HeapMonitor();
  ~HeapMonitor();
  HeapMonitor(const HeapMonitor&) = delete;
  HeapMonitor& operator=(const HeapMonitor&) = delete;

  /// Stops sampling (idempotent) and returns the peak in MiB.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::size_t peak_bytes_ = 0;  ///< written by the sampler, read after join
  std::thread sampler_;
};

/// Reports `peak_heap_mb` from `heap` (stopping it) and notes the
/// process's peak RSS beside it.
void memory_metrics(HeapMonitor& heap, Report& report);

}  // namespace perfbench
