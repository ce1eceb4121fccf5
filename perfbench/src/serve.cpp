// Workload serve-mix: an in-process serve::Server on a socket in the
// state directory, driven by one closed-loop serve::Client connection
// (a sweep script that waits for each reply).  The seeded stream is
// mostly analytic queries, plus a pool of repeated simulation-required
// queries warmed in set-up (cache reads), ~5% unique fixed-footprint
// simulation-required chases (fresh simulations that become cache
// writes) and ~8% `queries` batches, which take the server's shared-pool
// dispatch path.  Two presets, never an evicted machine.  This is the
// path a p8serve user waits on, and the other workloads touch none of
// it.
#include <unistd.h>

#include <cstdlib>
#include <algorithm>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "predict/machine_predict.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/machine/spec.hpp"
#include "sim_layers.hpp"

namespace perfbench {

namespace {

/// The first few set-ups of a process can take twice as long while the
/// host warms up, so take the median of more of them.
constexpr int kSetups = 9;
/// One closed-loop client, like a sweep script waiting on each reply.
constexpr std::size_t kClients = 1;
/// Workers of the server's shared simulation pool, and threads checking
/// the responses after the timed phase.
constexpr std::size_t kThreads = 4;
constexpr double kTimeoutSeconds = 30.0;
constexpr const char* kPresets[] = {"e870", "e880"};
constexpr std::size_t kPresetCount = std::size(kPresets);
/// Repeated simulation-required chases (DSCR 2 keeps them off the
/// analytic tier), warmed in set-up so every later request is a hit.
constexpr std::uint64_t kPoolKib[] = {64,  80,  96,  112, 128, 160,
                                      192, 224, 256, 320, 384, 448};
/// Footprint of every fresh simulation, so each costs the same work
/// whatever the seed or the number of requests before it.
constexpr std::uint64_t kFreshKib = 128;
/// Warm-up requests per client after the pool is filled.  Enough that
/// the request path, not the pool fill's 24 probe builds (whose page
/// faults the host serves at a rate that swings by 2x), dominates
/// setup_s.
constexpr std::size_t kWarmupRequests = 5000;
/// Stream shares, in percent.
constexpr std::uint64_t kUniquePct = 5;
constexpr std::uint64_t kBatchPct = 8;
constexpr std::uint64_t kPoolPct = 27;

enum class Kind { kAnalytic, kPool, kBatch, kUnique };

/// How the server must answer one query of the stream.
enum class Role : char {
  kAnalytic,  ///< closed form, never cached
  kPooled,    ///< a warmed pool entry: a cache hit
  kFresh,     ///< never asked before: a simulation and a cache write
};

/// One generated request and everything needed to check its response.
struct Request {
  Kind kind = Kind::kAnalytic;
  std::uint64_t id = 0;
  std::size_t preset = 0;
  std::vector<predict::Query> queries;
  std::vector<Role> roles;
  std::string line;
};

predict::Query pool_query(std::uint64_t kib) {
  predict::Query q;
  q.kind = predict::Query::Kind::kChaseLatency;
  q.footprint_bytes = kib * 1024;
  q.dscr = 2;
  return q;
}

std::string request_line(const Request& r) {
  std::string line = "{\"verb\": \"query\", \"id\": " + std::to_string(r.id) +
                     ", \"machine\": \"" + kPresets[r.preset] + "\", ";
  if (r.kind != Kind::kBatch)
    return line + "\"query\": " + serve::query_canonical_json(r.queries[0]) +
           "}";
  line += "\"queries\": [";
  for (std::size_t i = 0; i < r.queries.size(); ++i)
    line += (i ? ", " : "") + serve::query_canonical_json(r.queries[i]);
  return line + "]}";
}

/// Everything shared by the load generators and the checks: per preset
/// spec, a direct router, the machine and the pool's direct answers.
struct Truth {
  std::vector<sim::MachineSpec> specs;
  std::unique_ptr<common::ThreadPool> pool;
  std::vector<std::unique_ptr<predict::QueryRouter>> routers;
  std::vector<sim::Machine> machines;
  /// preset -> canonical query JSON -> direct answer.
  std::vector<std::map<std::string, double>> pool_values;

  Truth() : pool(std::make_unique<common::ThreadPool>(1)) {
    for (const char* name : kPresets) {
      specs.push_back(sim::machine_spec(name));
      routers.push_back(
          std::make_unique<predict::QueryRouter>(specs.back(), *pool));
      machines.push_back(specs.back().machine());
      pool_values.emplace_back();
    }
  }
};

/// The seeded request stream of one client.  Fresh simulations never
/// repeat a cache key within a run, yet all run the same chase: client
/// c's n-th one is numbered u = n * kClients + c, carried in `streams`
/// and `threads`, which the cache key includes and the chase ignores.
class Generator {
 public:
  Generator(const Truth& truth, std::uint64_t seed, std::size_t client)
      : truth_(&truth),
        rng_(seed * 0x9e3779b97f4a7c15ull + client + 1),
        client_(client) {}

  Request next(bool allow_unique) {
    Request r;
    r.id = static_cast<std::uint64_t>(client_) * 1'000'000'000ull + ++count_;
    r.preset = static_cast<std::size_t>(rng_.bounded(kPresetCount));
    const std::uint64_t draw = rng_.bounded(100);
    if (allow_unique && draw < kUniquePct) {
      // On one preset: a fresh e880 simulation costs more than an e870
      // one, and the median of two such populations would jump between
      // them as the seed moves the mix.
      r.kind = Kind::kUnique;
      r.preset = 0;
      predict::Query q = pool_query(kFreshKib);
      q.dscr = 3;  // the pool runs at DSCR 2, so keys never collide
      const std::uint64_t u = unique_++ * kClients + client_;
      q.streams = 1 + static_cast<int>(u % 4096);
      q.threads = 1 + static_cast<int>(u / 4096);
      add(r, q, Role::kFresh);
    } else if (draw < kUniquePct + kBatchPct) {
      r.kind = Kind::kBatch;
      add(r, pooled(), Role::kPooled);
      add(r, analytic(r.preset), Role::kAnalytic);
      add(r, pooled(), Role::kPooled);
      add(r, analytic(r.preset), Role::kAnalytic);
    } else if (draw < kUniquePct + kBatchPct + kPoolPct) {
      r.kind = Kind::kPool;
      add(r, pooled(), Role::kPooled);
    } else {
      r.kind = Kind::kAnalytic;
      add(r, analytic(r.preset), Role::kAnalytic);
    }
    r.line = request_line(r);
    return r;
  }

 private:
  static void add(Request& r, const predict::Query& q, Role role) {
    r.queries.push_back(q);
    r.roles.push_back(role);
  }

  predict::Query pooled() {
    return pool_query(kPoolKib[rng_.bounded(std::size(kPoolKib))]);
  }

  /// A query the router answers in closed form, valid for the preset.
  predict::Query analytic(std::size_t preset) {
    const sim::MachineSpec& spec = truth_->specs[preset];
    const auto chips = static_cast<std::uint64_t>(spec.system.total_chips());
    const auto cores = static_cast<std::uint64_t>(spec.system.cores_per_chip);
    for (;;) {
      predict::Query q;
      switch (rng_.bounded(4)) {
        case 0:
          q.kind = predict::Query::Kind::kNocLatency;
          q.consumer_chip = static_cast<int>(rng_.bounded(chips));
          q.home_chip = static_cast<int>(rng_.bounded(chips));
          break;
        case 1:
          q.kind = predict::Query::Kind::kStreamBandwidth;
          q.chips = 1 + static_cast<int>(rng_.bounded(chips));
          q.cores = 1 + static_cast<int>(rng_.bounded(cores));
          q.threads = 1 + static_cast<int>(rng_.bounded(4));
          break;
        case 2:
          q.kind = predict::Query::Kind::kRandomBandwidth;
          q.chips = 1 + static_cast<int>(rng_.bounded(chips));
          q.cores = 1 + static_cast<int>(rng_.bounded(cores));
          q.streams = 1 + static_cast<int>(rng_.bounded(8));
          break;
        default:
          q.kind = predict::Query::Kind::kChaseLatency;
          q.footprint_bytes = std::uint64_t{16384}
                              << rng_.bounded(17);  // 16 KiB .. 1 GiB
          q.footprint_bytes += 128 * rng_.bounded(64);
          break;
      }
      if (serve::validate_query(q, spec).empty() &&
          truth_->routers[preset]->analytic_servable(q))
        return q;
    }
  }

  const Truth* truth_;
  common::Xoshiro256 rng_;
  std::size_t client_;
  std::uint64_t count_ = 0;
  std::uint64_t unique_ = 0;
};

/// What the server's own accounting must read after the requests sent.
struct Expected {
  std::uint64_t queries = 0;
  std::uint64_t analytic = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  void add(const Request& r) {
    queries += r.queries.size();
    for (const Role role : r.roles) {
      analytic += role == Role::kAnalytic;
      hits += role == Role::kPooled;
      misses += role == Role::kFresh;
    }
  }
  void add(const Expected& other) {
    queries += other.queries;
    analytic += other.analytic;
    hits += other.hits;
    misses += other.misses;
  }
};

struct ServeState {
  std::unique_ptr<serve::Server> server;
  std::vector<Generator> generators;
  Expected expected;
};

std::uint64_t digest(const std::string& response) {
  return fnv1a(14695981039346656037ull, response.data(), response.size());
}

/// One exchange as the client saw it, in 32 bytes.  Neither the request
/// nor the response is kept: the checks regenerate the request from a
/// copy of the client's generator and compare the response's digest, so
/// the log adds ~4 MiB per 130k requests to the measured heap.
struct Sent {
  float seconds = 0.0f;
  /// CPU time of the client thread and of the server thread serving its
  /// connection, from this send to the next
  float cpu_s = 0.0f;
  float end_s = 0.0f;  ///< since the phase started
  std::uint64_t digest = 0;  ///< of the response line
  bool fresh = false;  ///< the request ran the simulator
  bool transport_ok = true;
};

/// Every exchange of one phase, per client, and what regenerates it.
struct Timed {
  /// A deque grows without the transient doubling of a vector.
  std::vector<std::deque<Sent>> sent;
  /// Per client, the message of each failed exchange, in order.
  std::vector<std::vector<std::string>> transport_errors;
  std::vector<Generator> generators;  ///< as they were at the start
  bool allow_unique = false;
  std::int64_t start_ns = 0;
  double wall_s = 0.0;
};

/// Sends `count` requests (or until `deadline_ns`) from each client in
/// parallel and adds them to the server's expected accounting.
Timed drive(ServeState& state, const std::string& socket,
            std::int64_t deadline_ns, std::size_t count, bool allow_unique,
            Tracer* tracer) {
  Timed t;
  t.sent.resize(kClients);
  t.transport_errors.resize(kClients);
  t.generators = state.generators;
  t.allow_unique = allow_unique;
  t.start_ns = now_ns();
  std::vector<Expected> expected(kClients);
  std::vector<std::unique_ptr<serve::Client>> clients(kClients);
  std::vector<std::exception_ptr> errors(kClients);
  std::mutex connect_mutex;
  const auto run_client = [&](std::size_t c) {
    const pid_t server_thread = [&] {
      // The server starts one thread per connection: the thread that
      // appears between connecting and the first reply.  Connect again
      // if some other thread came or went meanwhile.
      const std::lock_guard<std::mutex> lock(connect_mutex);
      std::vector<pid_t> added;
      for (int attempt = 0; attempt < 5 && added.size() != 1; ++attempt) {
        const std::vector<pid_t> before = thread_ids();
        clients[c] = std::make_unique<serve::Client>(socket);
        clients[c]->request("{\"verb\": \"ping\"}", kTimeoutSeconds);
        added.clear();
        for (const pid_t tid : thread_ids())
          if (!std::binary_search(before.begin(), before.end(), tid))
            added.push_back(tid);
      }
      if (added.size() != 1)
        throw std::runtime_error(strf("cannot tell the connection's server "
                                      "thread: %zu threads appeared",
                                      added.size()));
      return added[0];
    }();
    serve::Client& client = *clients[c];
    // A request's CPU time runs to the next send, so the server
    // thread's bookkeeping after its reply counts too.
    std::int64_t cpu_at_send = 0;
    const auto close_previous = [&] {
      const std::int64_t now = thread_cpu_ns() + thread_cpu_ns(server_thread);
      if (!t.sent[c].empty())
        t.sent[c].back().cpu_s = static_cast<float>(
            static_cast<double>(now - cpu_at_send) * 1e-9);
      cpu_at_send = now;
    };
    while (t.sent[c].size() < count &&
           (deadline_ns == 0 || now_ns() < deadline_ns)) {
      const Request r = state.generators[c].next(allow_unique);
      expected[c].add(r);
      Sent s;
      s.fresh = r.kind == Kind::kUnique;
      close_previous();
      const std::int64_t t0 = now_ns();
      try {
        const Scoped span(tracer, "serve.client.request", r.id);
        s.digest = digest(client.request(r.line, kTimeoutSeconds));
      } catch (const std::exception& e) {
        s.transport_ok = false;
        t.transport_errors[c].push_back(e.what());
      }
      const std::int64_t t1 = now_ns();
      s.seconds = static_cast<float>(static_cast<double>(t1 - t0) * 1e-9);
      s.end_s =
          static_cast<float>(static_cast<double>(t1 - t.start_ns) * 1e-9);
      t.sent[c].push_back(s);
    }
    close_previous();
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        run_client(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  t.wall_s = static_cast<double>(now_ns() - t.start_ns) * 1e-9;
  for (const Expected& e : expected) state.expected.add(e);
  return t;
}

std::uint64_t stat_value(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(response.c_str() + at + needle.size(), nullptr, 10);
}

/// Checks one exchange against a direct QueryRouter answer rendered by
/// serve::query_response; with a tracer, also times each layer's public
/// function on the same request and decomposes fresh simulations.
/// Returns "" when the response is byte-equal (by digest).
std::string check(const Request& r, const Sent& s, Truth& truth,
                  Tracer* tracer, serve::Server* shadow, SimTotals* totals,
                  std::mutex& totals_mutex) {
  const std::uint64_t id = r.id;
  const Scoped root(tracer, "bench.request", id);
  serve::Request parsed;
  {
    const Scoped span(tracer, "serve.protocol.parse_request", id);
    parsed = serve::parse_request(r.line);
  }
  std::string canonical;
  {
    const Scoped span(tracer, "serve.server.resolve", id);
    const sim::MachineSpec spec = sim::machine_spec(parsed.machine_name);
    if (!spec.audit().ok()) return "machine audit failed";
    canonical = spec.to_json();
  }
  const std::size_t preset = r.preset;
  predict::QueryRouter& router = *truth.routers[preset];
  std::vector<serve::AnswerWire> wires;
  bool fresh = false;
  for (std::size_t i = 0; i < parsed.queries.size(); ++i) {
    const predict::Query& q = parsed.queries[i];
    if (router.analytic_servable(q)) {
      const Scoped span(tracer, "predict.answer", id);
      wires.push_back({router.answer(q).value, true, false});
      continue;
    }
    std::string query_json;
    {
      const Scoped span(tracer, "serve.cache.key", id);
      query_json = serve::query_canonical_json(q);
      const std::uint64_t key = serve::cache_key_hash(canonical, query_json);
      (void)key;
    }
    if (r.roles[i] == Role::kPooled) {
      wires.push_back({truth.pool_values[preset].at(query_json), false, true});
      continue;
    }
    fresh = true;
    double value = 0.0;
    {
      const Scoped span(tracer, "predict.sim", id);
      value = router.answer(q).value;
    }
    wires.push_back({value, false, false});
    if (tracer != nullptr) {
      sim::CounterRegistry counters;
      ubench::ChaseOptions chase;
      chase.working_set_bytes = q.footprint_bytes;
      chase.page_bytes = q.page_bytes;
      chase.dscr = q.dscr;
      chase.pattern = q.pattern;
      chase.stride_lines = q.stride_lines;
      chase.consumer_chip = q.consumer_chip;
      chase.home_chip = q.home_chip;
      chase.counters = &counters;
      ChaseRun run;
      {
        const Scoped span(tracer, "bench.sim", id);
        run = traced_chase(truth.machines[preset], chase, tracer, id);
      }
      if (run.latency_ns != value)
        return "decomposed simulation differs from QueryRouter::answer";
      std::lock_guard<std::mutex> lock(totals_mutex);
      totals->add(run);
      totals->counters.merge(counters);
    }
  }
  std::string want;
  {
    const Scoped span(tracer, "serve.protocol.query_response", id);
    want = serve::query_response(parsed.id, wires, parsed.batch);
  }
  if (shadow != nullptr && !fresh) {
    const Scoped span(tracer, "serve.server.handle_line", id);
    shadow->handle_line(r.line);
  }
  want.pop_back();  // the client strips the LF
  if (s.digest != digest(want))
    return "response differs from query_response: want " + want.substr(0, 160);
  return "";
}

/// Checks every exchange on kThreads threads.
void check_all(const Timed& timed, Truth& truth, Tracer* tracer,
               serve::Server* shadow, SimTotals* totals, Report& report) {
  struct Item {
    Request request;
    const Sent* sent;
    std::string transport_error;
  };
  std::vector<Item> items;
  for (std::size_t c = 0; c < timed.sent.size(); ++c) {
    Generator generator = timed.generators[c];
    std::size_t errors = 0;
    for (const Sent& s : timed.sent[c])
      items.push_back({generator.next(timed.allow_unique), &s,
                       s.transport_ok ? ""
                                      : timed.transport_errors[c][errors++]});
  }
  std::mutex mutex;
  std::vector<std::string> problems(items.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      for (std::size_t i = k; i < items.size(); i += kThreads) {
        const Item& item = items[i];
        std::string why;
        try {
          why = item.sent->transport_ok
                    ? check(item.request, *item.sent, truth, tracer, shadow,
                            totals, mutex)
                    : "transport: " + item.transport_error;
        } catch (const std::exception& e) {
          why = e.what();
        }
        if (!why.empty())
          why = strf("request %llu: ",
                     static_cast<unsigned long long>(item.request.id)) +
                why;
        problems[i] = why;
      }
    });
  for (std::thread& t : threads) t.join();
  for (const std::string& why : problems) {
    ++report.attempted;
    if (!why.empty()) report.fail(why);
  }
}

/// Latency and CPU-time populations and throughput of one timed phase.
struct Phase {
  std::vector<double> all;
  std::vector<double> simulated;  ///< requests that ran the simulator
  std::vector<double> all_cpu;
  std::vector<double> simulated_cpu;
  std::size_t requests = 0;
  std::size_t windows = 0;
  /// Median over whole one-second windows of the requests that ran no
  /// simulation completed in each, per CPU second they took: a
  /// neighbour's burst costs one window, not the figure.
  double throughput = 0.0;
};

Phase summarize(const Timed& timed) {
  Phase p;
  const auto windows = static_cast<std::size_t>(timed.wall_s);
  std::vector<double> requests(windows, 0.0);
  std::vector<double> cpu(windows, 0.0);
  for (const auto& client : timed.sent)
    for (const Sent& s : client) {
      ++p.requests;
      p.all.push_back(s.seconds);
      p.all_cpu.push_back(s.cpu_s);
      if (s.fresh) {
        p.simulated.push_back(s.seconds);
        p.simulated_cpu.push_back(s.cpu_s);
        continue;
      }
      const auto w = static_cast<std::size_t>(s.end_s);
      if (w < windows) {
        requests[w] += 1.0;
        cpu[w] += s.cpu_s;
      }
    }
  p.windows = windows;
  std::vector<double> rates;
  for (std::size_t w = 0; w < windows; ++w)
    if (cpu[w] > 0.0) rates.push_back(requests[w] / cpu[w]);
  p.throughput = median(rates);
  return p;
}

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  HeapMonitor heap;
  Truth truth;
  // Direct answers for the pool, computed once per run.
  for (std::size_t p = 0; p < kPresetCount; ++p)
    for (const std::uint64_t kib : kPoolKib) {
      const predict::Query q = pool_query(kib);
      truth.pool_values[p][serve::query_canonical_json(q)] =
          truth.routers[p]->answer(q).value;
    }

  const std::string socket =
      options.state_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  serve::ServerOptions server_options;
  server_options.socket_path = socket;
  // The daemon's default 1024-entry result cache: after ~1000 fresh
  // simulations each insert evicts the oldest one, so the server's
  // memory stops growing with the request count.  A pool entry is asked
  // for every ~55 requests and is never the oldest; if it were evicted,
  // the accounting check would fail.
  server_options.cache_capacity = 1024;
  server_options.sim_threads = kThreads;
  if (options.perturb) server_options.debug_value_skew = 0.5;

  // One `queries` batch per preset filling the pool: fresh simulations
  // fanned across the server's shared pool.
  const auto pool_fill = [&](std::size_t preset, std::uint64_t id) {
    Request r;
    r.kind = Kind::kBatch;
    r.id = id;
    r.preset = preset;
    for (const std::uint64_t kib : kPoolKib) {
      r.queries.push_back(pool_query(kib));
      r.roles.push_back(Role::kFresh);
    }
    r.line = request_line(r);
    return r;
  };

  auto state = timed_setups(kSetups, options, report, [&] {
    auto s = std::make_unique<ServeState>();
    s->server = std::make_unique<serve::Server>(server_options);
    s->server->start();
    if (!serve::wait_for_server(socket, 10.0))
      throw std::runtime_error("server did not come up on " + socket);
    for (std::size_t p = 0; p < kPresetCount; ++p) {
      const Request fill = pool_fill(p, 900'000'000'000ull + p);
      const std::string got = serve::request_once(socket, fill.line);
      if (got.find("\"ok\": true") == std::string::npos)
        throw std::runtime_error("pool fill failed: " + got);
      s->expected.add(fill);
    }
    for (std::size_t c = 0; c < kClients; ++c)
      s->generators.emplace_back(truth, options.seed, c);
    // Warm-up: connections, router state and allocator, no fresh sims.
    drive(*s, socket, 0, kWarmupRequests, false, nullptr);
    return s;
  });

  report.note(strf("warm-up: pool fill (%zu simulations) and %zu requests "
                   "per client, no fresh simulations, per set-up",
                   kPresetCount * std::size(kPoolKib), kWarmupRequests));
  const auto timed = [&](double seconds, Tracer* tracer) {
    return drive(*state, socket,
                 now_ns() + static_cast<std::int64_t>(seconds * 1e9),
                 ~std::size_t{0}, true, tracer);
  };

  // The server's accounting must match the stream exactly.
  struct Accounting {
    double queries = 0.0;
    double analytic = 0.0;
    double hits = 0.0;
    double misses = 0.0;
  };
  const auto check_stats = [&] {
    ++report.attempted;
    const std::string stats =
        serve::request_once(socket, "{\"verb\": \"stats\"}");
    const Expected& e = state->expected;
    const std::uint64_t hits = stat_value(stats, "serve.cache_hits");
    const std::uint64_t misses = stat_value(stats, "serve.cache_misses");
    const std::uint64_t queries = stat_value(stats, "serve.queries");
    const std::uint64_t analytic = stat_value(stats, "serve.analytic");
    report.note(strf("server accounting: queries %llu analytic %llu cache "
                     "hits %llu misses %llu",
                     static_cast<unsigned long long>(queries),
                     static_cast<unsigned long long>(analytic),
                     static_cast<unsigned long long>(hits),
                     static_cast<unsigned long long>(misses)));
    if (hits != e.hits || misses != e.misses || queries != e.queries ||
        analytic != e.analytic)
      report.fail(strf("server accounting differs from the stream: expected "
                       "queries %llu analytic %llu hits %llu misses %llu",
                       static_cast<unsigned long long>(e.queries),
                       static_cast<unsigned long long>(e.analytic),
                       static_cast<unsigned long long>(e.hits),
                       static_cast<unsigned long long>(e.misses)));
    return Accounting{static_cast<double>(queries),
                      static_cast<double>(analytic), static_cast<double>(hits),
                      static_cast<double>(misses)};
  };

  if (!options.trace) {
    const Timed t = timed(options.seconds, nullptr);
    memory_metrics(heap, report);
    const Phase p = summarize(t);
    check_all(t, truth, nullptr, nullptr, nullptr, report);
    check_stats();
    const Distribution all = distribution(p.all_cpu);
    const Distribution sim = distribution(p.simulated_cpu);
    report.metric("throughput", p.throughput, "1/cpu_s");
    report.metric("cpu_p50_ms", all.p50 * 1e3, "ms");
    report.note(describe("CPU time per request, all requests", all, "us",
                         1e6));
    report.note(describe("CPU time per request, fresh simulations", sim, "ms",
                         1e3));
    const Distribution wall = distribution(p.all);
    const Distribution wall_sim = distribution(p.simulated);
    report.note(describe("round trip, all requests", wall, "us", 1e6));
    report.note(describe("round trip, fresh simulations", wall_sim, "ms",
                         1e3));
    report.note(strf("serve_qps = %.2f per CPU s (requests that ran no "
                     "simulation; median of %zu one-second windows), %.2f "
                     "per wall s (all %zu requests from %zu closed-loop "
                     "client in %.3f s)",
                     p.throughput, p.windows,
                     static_cast<double>(p.requests) / t.wall_s, p.requests,
                     kClients, t.wall_s));
    report.note(strf("serve_p50_us = %.3f  serve_p%g_us = %.3f  "
                     "serve_sim_p50_ms = %.4f (round trip)",
                     wall.p50 * 1e6, wall.tail_p, wall.tail * 1e6,
                     wall_sim.p50 * 1e3));
    return report;
  }

  // Traced run: an untraced half for the overhead baseline, then a half
  // with a client span per request, then the per-request decomposition
  // (untimed) on the same requests, keyed by request id.
  zero_layer_metrics(report);
  const Timed base_run = timed(options.seconds / 2, nullptr);
  check_all(base_run, truth, nullptr, nullptr, nullptr, report);
  Tracer tracer;
  const Timed traced_run = timed(options.seconds / 2, &tracer);

  // A second, never-started server: handle_line without the transport,
  // with its own cache filled like the measured one.
  serve::Server shadow(server_options);
  for (std::size_t p = 0; p < kPresetCount; ++p)
    shadow.handle_line(pool_fill(p, 0).line);
  SimTotals totals;
  check_all(traced_run, truth, &tracer, &shadow, &totals, report);
  const Accounting counts = check_stats();

  const auto spans = tracer.totals_by_name();
  const auto p50_us = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : median(it->second.durations_ns) / 1e3;
  };
  sim_layer_metrics(spans, totals, "bench.sim", report);
  report.metric("serve.protocol.parse_us",
                p50_us("serve.protocol.parse_request"), "us");
  report.metric("serve.protocol.render_us",
                p50_us("serve.protocol.query_response"), "us");
  report.metric("serve.server.resolve_us", p50_us("serve.server.resolve"),
                "us");
  report.metric("serve.server.handle_line_us",
                p50_us("serve.server.handle_line"), "us");
  report.metric("serve.cache.key_us", p50_us("serve.cache.key"), "us");
  report.metric("serve.cache.hit_ratio",
                counts.hits / (counts.hits + counts.misses), "ratio");
  report.metric("serve.cache.inserts", counts.misses, "count");
  report.metric("predict.answer_us", p50_us("predict.answer"), "us");
  report.metric("predict.sim_ms", p50_us("predict.sim") / 1e3, "ms");
  report.metric("predict.analytic_ratio", counts.analytic / counts.queries,
                "ratio");
  report.metric("serve.client.transport_us",
                p50_us("serve.client.request") -
                    p50_us("serve.server.handle_line"),
                "us");
  const Phase base = summarize(base_run);
  const Phase traced = summarize(traced_run);
  const Distribution db = distribution(base.all_cpu);
  const Distribution dt = distribution(traced.all_cpu);
  report.metric("tracing.overhead_ratio",
                db.p50 > 0.0 ? dt.p50 / db.p50 - 1.0 : 0.0, "ratio");
  report.note(describe("untraced CPU time per request", db, "us", 1e6));
  report.note(describe("traced CPU time per request", dt, "us", 1e6));
  report.note(strf("tracing overhead: traced p50 - untraced p50 = %.3f us",
                   (dt.p50 - db.p50) * 1e6));
  summarize_spans(tracer, options.state_dir + "/trace-serve-mix.json", report);
  return report;
}

}  // namespace perfbench
