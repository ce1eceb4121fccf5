#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <filesystem>

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double tail_percentile_rank(std::size_t n) {
  for (const double p : {99.0, 90.0, 50.0}) {
    const double beyond =
        static_cast<double>(n) -
        std::ceil(p / 100.0 * static_cast<double>(n));
    if (beyond >= 10.0) return p;
  }
  return 0.0;
}

Distribution distribution(const std::vector<double>& samples) {
  Distribution d;
  d.n = samples.size();
  d.p50 = percentile(samples, 50.0);
  d.tail_p = tail_percentile_rank(samples.size());
  d.tail = d.tail_p > 0.0 ? percentile(samples, d.tail_p) : d.p50;
  return d;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

std::string describe(const std::string& label, const Distribution& d,
                     const char* unit, double scale) {
  if (d.tail_p == 0.0)
    return strf("%s: n=%zu p50=%.4f %s (no percentile has 10 samples beyond "
                "it; tail reported as p50)",
                label.c_str(), d.n, d.p50 * scale, unit);
  return strf("%s: n=%zu p50=%.4f %s p%g=%.4f %s", label.c_str(), d.n,
              d.p50 * scale, unit, d.tail_p, d.tail * scale, unit);
}

std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::string strf(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

void Report::fail(const std::string& why) {
  ++failed;
  if (fail_notes_++ < 5) note("FAILED CHECK: " + why);
}

std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ids.push_back(static_cast<pid_t>(
        std::stol(entry.path().filename().string())));
  std::sort(ids.begin(), ids.end());
  return ids;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::size_t heap_in_use() {
  const struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

}  // namespace

HeapMonitor::HeapMonitor()
    : peak_bytes_(heap_in_use()), sampler_([this] {
        while (!stop_.load()) {
          peak_bytes_ = std::max(peak_bytes_, heap_in_use());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

HeapMonitor::~HeapMonitor() { stop(); }

double HeapMonitor::stop() {
  if (sampler_.joinable()) {
    stop_.store(true);
    sampler_.join();
    peak_bytes_ = std::max(peak_bytes_, heap_in_use());
  }
  return static_cast<double>(peak_bytes_) / (1024.0 * 1024.0);
}

void memory_metrics(HeapMonitor& heap, Report& report) {
  const double peak = heap.stop();
  report.metric("peak_heap_mb", peak, "MiB");
  report.note(strf("memory: peak heap in use %.3f MiB, peak RSS %.3f MiB "
                   "(RSS includes what the allocator kept after free)",
                   peak, peak_rss_mib()));
}

// ---- spans -----------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> next_generation{1};

struct LocalBuffer {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local LocalBuffer tls_buffer;

std::int64_t span_id(std::uint32_t thread, std::size_t index) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(thread) << 32) | index);
}

std::uint32_t span_thread(std::int64_t id) {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(id) >> 32);
}

std::string layer_of(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Tracer::Tracer() : generation_(next_generation.fetch_add(1)) {}

Tracer::Buffer& Tracer::local() {
  // Generation 0 is never handed out, so a fresh thread_local misses.
  if (tls_buffer.generation != generation_) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto buffer = std::make_unique<Buffer>();
    buffer->index = static_cast<std::uint32_t>(buffers_.size());
    buffer->spans.reserve(1u << 14);
    tls_buffer = {generation_, buffer.get()};
    buffers_.push_back(std::move(buffer));
  }
  return *static_cast<Buffer*>(tls_buffer.buffer);
}

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  Buffer& b = local();
  if (parent < 0 && !b.open.empty()) parent = b.open.back();
  const std::int64_t id = span_id(b.index, b.spans.size());
  b.spans.push_back(Span{name, now_ns(), 0, parent, request});
  b.open.push_back(id);
  return id;
}

void Tracer::end(std::int64_t id) {
  const std::int64_t t = now_ns();
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(id & 0xffffffff)].end_ns = t;
  b.open.pop_back();
}

void Tracer::fold(const char* name, std::int64_t ns, std::uint64_t calls) {
  if (calls == 0) return;
  Buffer& b = local();
  if (!b.open.empty())
    b.spans[static_cast<std::size_t>(b.open.back() & 0xffffffff)].folded_ns +=
        ns;
  for (Buffer::Folded& f : b.folded)
    if (f.name == name) {
      f.ns += ns;
      f.calls += calls;
      return;
    }
  b.folded.push_back({name, ns, calls});
}

std::map<std::string, SpanTotals> Tracer::totals_by_name() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SpanTotals> totals;
  for (const auto& buffer : buffers_) {
    // Child time per span of this thread: only same-thread children
    // nest inside their parent's interval.
    std::vector<double> child_ns(buffer->spans.size(), 0.0);
    for (std::size_t i = 0; i < buffer->spans.size(); ++i)
      child_ns[i] = static_cast<double>(buffer->spans[i].folded_ns);
    for (const Span& s : buffer->spans)
      if (s.parent >= 0 && span_thread(s.parent) == buffer->index)
        child_ns[static_cast<std::size_t>(s.parent & 0xffffffff)] +=
            static_cast<double>(s.end_ns - s.start_ns);
    for (std::size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      const double d = static_cast<double>(s.end_ns - s.start_ns);
      SpanTotals& t = totals[s.name];
      ++t.count;
      t.total_ns += d;
      t.self_ns += d - child_ns[i];
      t.durations_ns.push_back(d);
    }
    for (const Buffer::Folded& f : buffer->folded) {
      SpanTotals& t = totals[f.name];
      t.count += f.calls;
      t.total_ns += static_cast<double>(f.ns);
      t.self_ns += static_cast<double>(f.ns);
    }
  }
  return totals;
}

std::size_t Tracer::write_chrome_json(const std::string& path,
                                      std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::int64_t origin = 0;
  for (const auto& buffer : buffers_)
    if (!buffer->spans.empty() &&
        (origin == 0 || buffer->spans.front().start_ns < origin))
      origin = buffer->spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  std::size_t written = 0;
  // Round-robin over threads so a capped export still shows all of them.
  std::vector<std::size_t> next(buffers_.size(), 0);
  for (bool more = true; more && written < max_events;) {
    more = false;
    for (std::size_t t = 0; t < buffers_.size() && written < max_events; ++t) {
      const auto& spans = buffers_[t]->spans;
      for (std::size_t k = 0; k < 64 && next[t] < spans.size(); ++k) {
        const std::size_t i = next[t]++;
        const Span& s = spans[i];
        std::fprintf(
            f,
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %lld, \"parent\": %lld, \"request\": %llu}}",
            written == 0 ? "" : ",\n", s.name, layer_of(s.name).c_str(), t,
            static_cast<double>(s.start_ns - origin) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3,
            static_cast<long long>(span_id(buffers_[t]->index, i)),
            static_cast<long long>(s.parent),
            static_cast<unsigned long long>(s.request));
        ++written;
        if (written >= max_events) break;
      }
      if (next[t] < spans.size()) more = true;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
  return written;
}

double self_ns(const std::map<std::string, SpanTotals>& totals,
               const std::string& prefix) {
  double sum = 0.0;
  for (const auto& [name, t] : totals)
    if (name.rfind(prefix, 0) == 0) sum += t.self_ns;
  return sum;
}

void summarize_spans(const Tracer& tracer, const std::string& path,
                     Report& report) {
  const auto totals = tracer.totals_by_name();
  std::map<std::string, SpanTotals> layers;
  std::uint64_t spans = 0;
  for (const auto& [name, t] : totals) {
    SpanTotals& l = layers[layer_of(name)];
    l.count += t.count;
    l.total_ns += t.total_ns;
    l.self_ns += t.self_ns;
    spans += t.durations_ns.size();
  }
  report.note("spans by name: count, total ms, self ms, p50 us");
  for (const auto& [name, t] : totals)
    report.note(strf("  %-34s %9llu %12.3f %12.3f %12.3f", name.c_str(),
                     static_cast<unsigned long long>(t.count),
                     t.total_ns / 1e6, t.self_ns / 1e6,
                     percentile(t.durations_ns, 50.0) / 1e3));
  report.note("self time by layer: spans, self ms");
  for (const auto& [name, l] : layers)
    report.note(strf("  %-34s %9llu %12.3f", name.c_str(),
                     static_cast<unsigned long long>(l.count),
                     l.self_ns / 1e6));
  constexpr std::size_t kMaxExported = 100000;
  const std::size_t written = tracer.write_chrome_json(path, kMaxExported);
  report.note(strf("chrome trace: %zu of %llu spans written to %s", written,
                   static_cast<unsigned long long>(spans), path.c_str()));
}

}  // namespace perfbench
