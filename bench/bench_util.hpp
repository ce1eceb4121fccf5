// Shared helpers for the bench binaries: every bench regenerates one
// table or figure of the paper and prints it in a uniform style, with
// the paper's reported value alongside the model/measured value where
// the paper states one.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/threading.hpp"
#include "sim/audit.hpp"
#include "sim/counters.hpp"
#include "sim/machine/machine.hpp"
#include "sim/machine/spec.hpp"
#include "sim/machine/sweep.hpp"

namespace p8::bench {

inline void print_header(const std::string& artifact,
                         const std::string& description) {
  std::printf("=======================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("=======================================================\n");
}

/// "model vs paper" cell: value, paper value, and the ratio.
inline std::string vs_paper(double value, double paper, int digits = 0) {
  return common::fmt_num(value, digits) + " (paper " +
         common::fmt_num(paper, digits) + ", " +
         common::fmt_num(100.0 * value / paper, 0) + "%)";
}

/// The one output writer: writes `body` to `path`, checking the open,
/// the write and the close (a full disk only surfaces at fclose).  An
/// empty path means the output is off and is a no-op success.  On
/// success a non-null `announce` is printed with the path after it; on
/// failure the error goes to stderr and the result is false — callers
/// exit 1, so a sweep script never reads a stale file.
inline bool write_file(const std::string& path, const std::string& body,
                       const char* announce = nullptr) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fputs(body.c_str(), f) >= 0;
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return false;
  }
  if (announce != nullptr) std::printf("%s%s\n", announce, path.c_str());
  return true;
}

/// A machine picked by `--machines`, loaded and past its audit gate.
struct Selected {
  std::string selector;
  sim::MachineSpec spec;
};

/// One bench binary's command line and the plumbing every bench shares.
/// A bench asks for what it uses — its own options, a machine, a
/// counter sink, a worker count — and asking declares the matching
/// flag, so a bench accepts exactly the flags of what it uses.  start()
/// then settles the command line in one place: --help prints usage
/// (exit 0); an unknown option, an invalid value, an unknown machine or
/// a failed model audit (unless --no-audit) prints a diagnostic (exit
/// 2); otherwise it prints the header and the bench runs.  A machine is
/// handed out only after start() passed its audit gate.  finish()
/// writes the counter dump; every unwritable output exits 1.
///
///   bench::Harness h(argc, argv);
///   h.select_machine();
///   sim::CounterRegistry* const counters = h.counters("fig2");
///   if (auto exit_code = h.start("Figure 2", "...")) return *exit_code;
///   const sim::Machine& machine = h.machine();
///   ...
///   return h.finish(0);
class Harness {
 public:
  Harness(int argc, const char* const* argv) : args_(parse(argc, argv)) {}
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // ---- The bench's own options.  A value that does not parse or lies
  // outside its range is reported by start() (exit 2); until then the
  // default stands in, so nothing is sized from a bad value.

  std::string text(const std::string& name, std::string def,
                   const std::string& help) {
    return args_.get_string(name, std::move(def), help);
  }
  double number(const std::string& name, double def, double lo, double hi,
                const std::string& help) {
    const double raw =
        checked(def, [&] { return args_.get_double(name, def, help); });
    if (raw >= lo && raw <= hi) return raw;
    reject("--" + name + " must be between " + common::json_number(lo) +
           " and " + common::json_number(hi) + ", got " +
           common::json_number(raw));
    return def;
  }
  bool flag(const std::string& name, const std::string& help) {
    return checked(false, [&] { return args_.get_flag(name, help); });
  }
  std::int64_t integer(const std::string& name, std::int64_t def,
                       std::int64_t lo, std::int64_t hi,
                       const std::string& help) {
    const std::int64_t raw =
        checked(def, [&] { return args_.get_int(name, def, help); });
    if (raw >= lo && raw <= hi) return raw;
    reject("--" + name + " must be between " + std::to_string(lo) +
           " and " + std::to_string(hi) + ", got " + std::to_string(raw));
    return def;
  }
  /// A usage error the bench found itself; start() reports it, exit 2.
  void reject(std::string message) { errors_.push_back(std::move(message)); }

  // ---- Shared things; asking for one declares its flag.

  /// `--threads`: workers for the bench's pool or task engine, 0..4096
  /// with 0 (the default) meaning one per hardware thread.  Returns the
  /// resolved count, never 0.
  std::size_t threads() {
    const std::int64_t n = integer(
        "threads", 0, 0, 4096,
        "worker threads (0 = one per hardware thread)");
    return n == 0 ? common::default_thread_count()
                  : static_cast<std::size_t>(n);
  }

  /// `--counters`: the registry to attach the models to, or nullptr
  /// when no dump was asked for.  finish() writes it (".csv" => CSV,
  /// anything else => JSON tagged with `bench`).
  sim::CounterRegistry* counters(std::string bench) {
    counters_path_ = args_.get_string(
        "counters", "",
        "dump simulator event counters here (.csv => CSV, else JSON)");
    counters_bench_ = std::move(bench);
    return counters_path_.empty() ? nullptr : &counters_;
  }

  /// `--task-json`: where to dump the task engine's timing timeline,
  /// "" (the default) = off; write it with write_file().
  std::string task_json() {
    return args_.get_string(
        "task-json", "",
        "dump the task-engine timing timeline (JSON) here; \"\" = off");
  }

  // ---- The machine: a bench picks one of these, or none.

  /// `--machine` and `--no-audit`: start() loads the selected spec and
  /// gates it on its model audit; spec() afterwards.  For benches that
  /// read the configuration but simulate nothing — a spec file that
  /// leaves members out reads as zero there, not as the e870.
  void select_spec() {
    select_ = Select::kSpec;
    selector_ = args_.get_string("machine", "e870", machine_help());
    declare_no_audit();
  }
  /// `--machine` and `--no-audit`: start() loads the spec, builds the
  /// machine and gates it on its model audit; machine() afterwards.
  void select_machine() {
    select_spec();
    select_ = Select::kMachine;
  }
  /// `--machines` and `--no-audit`: start() loads every listed spec and
  /// gates each one; machines() afterwards, in list order.
  void select_machines() {
    select_ = Select::kMachines;
    selector_ = args_.get_string(
        "machines", "all",
        "comma-separated registry presets and/or spec .json paths; "
        "\"all\" = every registry preset");
    declare_no_audit();
  }
  /// `--no-audit` for a machine the bench builds itself: start() gates
  /// `machine` like a selected one.
  void gate(const sim::Machine& machine) {
    select_ = Select::kOwn;
    own_ = &machine;
    declare_no_audit();
  }

  /// Settles the command line (see the class comment) and, when the run
  /// goes ahead, prints the header and returns nullopt; otherwise
  /// returns the exit code.  An empty `artifact` prints no header.
  std::optional<int> start(const std::string& artifact,
                           const std::string& description) {
    if (args_.help_requested()) {
      std::fputs(args_.help().c_str(), stdout);
      return 0;
    }
    const std::vector<std::string> unknown = args_.unknown_args();
    for (const std::string& name : unknown) {
      std::fprintf(stderr, "error: unknown option --%s\n", name.c_str());
      const std::string hint = args_.suggest(name);
      if (!hint.empty())
        std::fprintf(stderr, "       (did you mean --%s?)\n", hint.c_str());
    }
    if (!unknown.empty()) std::fputs(args_.help().c_str(), stderr);
    for (const std::string& error : errors_)
      std::fprintf(stderr, "error: %s\n", error.c_str());
    if (!unknown.empty() || !errors_.empty()) return 2;
    try {
      if (!resolve()) return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    started_ = true;
    if (!artifact.empty()) print_header(artifact, description);
    return std::nullopt;
  }

  /// The --machine or --machines value as given.
  const std::string& selector() const { return selector_; }
  const sim::MachineSpec& spec() const {
    P8_REQUIRE(started_ && spec_.has_value(),
               "spec() needs select_spec() or select_machine() and start()");
    return *spec_;
  }
  const sim::Machine& machine() const {
    P8_REQUIRE(started_ && machine_.has_value(),
               "machine() needs select_machine() and a passed start()");
    return *machine_;
  }
  const std::vector<Selected>& machines() const {
    P8_REQUIRE(started_ && select_ == Select::kMachines,
               "machines() needs select_machines() and a passed start()");
    return machines_;
  }

  /// Arms `runner`'s own audit gate with the machine's report (waived
  /// by --no-audit), so a sweep cannot run a failing model even when
  /// handed one behind the harness's back.
  void arm(sim::SweepRunner& runner) const {
    runner.gate_on_audit(machine().audit());
    if (no_audit_) runner.waive_audit();
  }

  /// Writes the counter dump, if one was asked for, and returns the
  /// bench's exit code — 1 instead when the dump cannot be written.
  int finish(int exit_code) const {
    if (counters_path_.empty()) return exit_code;
    const bool csv = common::iends_with(counters_path_, ".csv");
    const std::string body =
        csv ? counters_.to_csv() : counters_.to_json(counters_bench_);
    return write_file(counters_path_, body) ? exit_code : 1;
  }

 private:
  enum class Select { kNone, kSpec, kMachine, kMachines, kOwn };

  common::ArgParser parse(int argc, const char* const* argv) {
    try {
      return common::ArgParser(argc, argv);
    } catch (const std::exception& e) {
      errors_.push_back(e.what());
      return common::ArgParser(argc > 0 ? 1 : 0, argv);
    }
  }

  template <typename T, typename Get>
  T checked(T fallback, Get get) {
    try {
      return get();
    } catch (const std::exception& e) {
      errors_.push_back(e.what());
      return fallback;
    }
  }

  void declare_no_audit() {
    no_audit_ = flag("no-audit",
                     "run even if the machine configuration fails its model "
                     "audit");
  }

  static std::string machine_help() {
    std::string presets;
    for (const std::string& name : sim::machine_names()) {
      if (!presets.empty()) presets += "|";
      presets += name;
    }
    return "machine to simulate: a preset (" + presets +
           ") or a spec .json path";
  }

  /// Loads and gates what the bench selected; false means exit 2.
  bool resolve() {
    switch (select_) {
      case Select::kNone:
        return true;
      case Select::kSpec:
        spec_ = sim::load_machine_spec(selector_);
        return admit(spec_->audit());
      case Select::kMachine:
        spec_ = sim::load_machine_spec(selector_);
        machine_.emplace(spec_->machine());
        return admit(machine_->audit());
      case Select::kOwn:
        return admit(own_->audit());
      case Select::kMachines:
        break;
    }
    std::vector<std::string> selectors;
    if (selector_ == "all") {
      selectors = sim::machine_names();
    } else {
      std::istringstream list(selector_);
      for (std::string token; std::getline(list, token, ',');)
        if (!token.empty()) selectors.push_back(token);
    }
    if (selectors.empty()) {
      std::fputs("error: --machines selected nothing\n", stderr);
      return false;
    }
    for (const std::string& selector : selectors) {
      machines_.push_back({selector, sim::load_machine_spec(selector)});
      if (!admit(machines_.back().spec.audit())) return false;
    }
    return true;
  }

  /// The audit gate: prints the diagnostics to stderr; a report with
  /// errors blocks the run unless --no-audit waives it, and a waived
  /// failure is announced so a sweep log shows the run was a deliberate
  /// counterfactual.  Warnings never block.
  bool admit(const sim::AuditReport& report) const {
    if (!report.diagnostics.empty())
      std::fputs(report.to_string().c_str(), stderr);
    if (report.ok()) return true;
    if (no_audit_) {
      std::fputs("audit: FAILED but waived by --no-audit\n", stderr);
      return true;
    }
    std::fputs(
        "audit: FAILED — refusing to simulate a structurally wrong machine "
        "(pass --no-audit to run anyway)\n",
        stderr);
    return false;
  }

  std::vector<std::string> errors_;  // before args_: parse() fills it
  common::ArgParser args_;
  Select select_ = Select::kNone;
  std::string selector_;
  bool no_audit_ = false;
  bool started_ = false;
  const sim::Machine* own_ = nullptr;
  std::optional<sim::MachineSpec> spec_;
  std::optional<sim::Machine> machine_;
  std::vector<Selected> machines_;
  sim::CounterRegistry counters_;
  std::string counters_path_;
  std::string counters_bench_;
};

// ---------------------------------------------------------------------------
// Tolerance-table gate machinery, shared by bench_scaling_matrix and
// bench_predict.  Two kinds of rows feed one reporting path:
//
//  * Verdict        — a named boolean invariant with a human detail
//                     string ("latency.plateaus", "mix.2to1-peak", ...);
//  * ToleranceCheck — |value/reference - 1| <= tol quantitative
//                     agreement, rendered into a Verdict for printing.
//
// Gates accumulate rows per artifact (a machine preset, a figure) and
// print the failures through print_failed(), in row order, after all
// parallel work has drained — so stderr is deterministic at any worker
// count.

struct Verdict {
  std::string invariant;
  bool ok = true;
  std::string detail;
};

/// Appends a verdict row.
inline void add_check(std::vector<Verdict>& out, std::string invariant,
                      bool ok, std::string detail) {
  out.push_back(Verdict{std::move(invariant), ok, std::move(detail)});
}

inline int failed_count(const std::vector<Verdict>& verdicts) {
  int failed = 0;
  for (const Verdict& v : verdicts) failed += v.ok ? 0 : 1;
  return failed;
}

/// Prints "FAIL [artifact] invariant: detail" to stderr for every
/// failing row, in row order; returns the number of failures.
inline int print_failed(const std::string& artifact,
                        const std::vector<Verdict>& verdicts) {
  int failed = 0;
  for (const Verdict& v : verdicts) {
    if (v.ok) continue;
    ++failed;
    std::fprintf(stderr, "FAIL [%s] %s: %s\n", artifact.c_str(),
                 v.invariant.c_str(), v.detail.c_str());
  }
  return failed;
}

/// One quantitative agreement row: `value` (model/predictor) against
/// `reference` (paper or simulator ground truth) under a relative
/// tolerance.
struct ToleranceCheck {
  std::string quantity;
  double reference = 0.0;
  double value = 0.0;
  double tol = 0.02;
  /// Documented deviation: an overshoot warns instead of failing.
  bool allow_warn = false;
};

/// value/reference; 0 when the reference is zero (no meaningful ratio).
inline double tolerance_ratio(const ToleranceCheck& c) {
  return c.reference != 0.0 ? c.value / c.reference : 0.0;
}

inline bool tolerance_within(const ToleranceCheck& c) {
  if (c.reference == 0.0) return c.value == 0.0;
  return std::abs(tolerance_ratio(c) - 1.0) <= c.tol;
}

/// "PASS" within tolerance, "ALLOWED" for a documented deviation,
/// "FAIL" otherwise — the BENCH_fidelity.json status vocabulary.
inline const char* tolerance_status(const ToleranceCheck& c) {
  if (tolerance_within(c)) return "PASS";
  return c.allow_warn ? "ALLOWED" : "FAIL";
}

/// Renders the row into a Verdict for the shared printing path.
/// ALLOWED rows are ok (they gate nothing) but keep their detail.
inline Verdict tolerance_verdict(const ToleranceCheck& c) {
  const std::string status = tolerance_status(c);
  return Verdict{
      c.quantity, status != "FAIL",
      common::fmt_num(c.value, 3) + " vs " + common::fmt_num(c.reference, 3) +
          " (ratio " + common::fmt_num(tolerance_ratio(c), 3) + ", tol " +
          common::fmt_num(c.tol, 3) + "): " + status};
}

/// A mid-plateau working-set size for one hierarchy level.
struct Landmark {
  const char* level;
  std::uint64_t bytes;
};

/// Working-set sizes that land in the middle of each hierarchy level
/// the spec actually has (a level missing from a configuration — e.g.
/// an L4 smaller than the chip L3 — is skipped, not asserted).  Shared
/// by bench_scaling_matrix (shape invariants) and bench_predict (the
/// differential matrix), so both gates probe the same geometry.
inline std::vector<Landmark> hierarchy_landmarks(const arch::SystemSpec& s) {
  const std::uint64_t l1 = s.processor.core.l1d_bytes;
  const std::uint64_t l2 = s.processor.core.l2_bytes;
  const std::uint64_t l3 = s.processor.core.l3_bytes;
  const std::uint64_t chip_l3 = s.processor.l3_total_bytes(s.cores_per_chip);
  const std::uint64_t l4_chip =
      static_cast<std::uint64_t>(s.centaurs_per_chip) * s.centaur.l4_bytes;
  std::vector<Landmark> out;
  out.push_back({"L1", l1 / 2});
  if (l2 > l1) out.push_back({"L2", l2 / 2});
  if (l3 > l2) out.push_back({"L3", l3 / 2});
  if (chip_l3 > l3) out.push_back({"chip-L3", (l3 + chip_l3) / 2});
  if (l4_chip > chip_l3) out.push_back({"L4", (chip_l3 + l4_chip) / 2});
  std::uint64_t deepest = chip_l3 > l4_chip ? chip_l3 : l4_chip;
  out.push_back({"DRAM", 4 * deepest});
  return out;
}

}  // namespace p8::bench
