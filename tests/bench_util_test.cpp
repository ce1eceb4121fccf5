// Tests for the shared bench helpers (bench/bench_util.hpp): the bench
// harness — counter dumps (including CSV/JSON escaping of hostile
// counter names), the checked output writer, --help / unknown-option /
// invalid-value settling, --threads, machine selection and the audit
// gate — and the tolerance-table gate machinery shared by
// bench_scaling_matrix and bench_predict.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace p8;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A counter dump through the harness: `--counters=<path>` (none for
/// ""), one counter, start(), finish(); returns finish()'s exit code.
int dump_counters(const std::string& path) {
  const std::string flag = "--counters=" + path;
  const char* argv[] = {"t", flag.c_str()};
  bench::Harness h(path.empty() ? 1 : 2, argv);
  sim::CounterRegistry* const reg = h.counters("t");
  EXPECT_EQ(reg == nullptr, path.empty());
  if (reg != nullptr) *reg->slot("probe.hits") = 42;
  EXPECT_FALSE(h.start("", "").has_value());
  return h.finish(0);
}

TEST(WriteCounters, EmptyPathIsANoOpSuccess) {
  EXPECT_EQ(dump_counters(""), 0);
}

TEST(WriteCounters, ExtensionPicksTheFormat) {
  const std::string csv_path = "bench_util_test_dump.csv";
  ASSERT_EQ(dump_counters(csv_path), 0);
  EXPECT_EQ(slurp(csv_path), "counter,value\nprobe.hits,42\n");
  std::remove(csv_path.c_str());

  // Case-insensitive extension sniff, like every other path option.
  const std::string upper_path = "bench_util_test_dump.CSV";
  ASSERT_EQ(dump_counters(upper_path), 0);
  EXPECT_EQ(slurp(upper_path), "counter,value\nprobe.hits,42\n");
  std::remove(upper_path.c_str());

  const std::string json_path = "bench_util_test_dump.json";
  ASSERT_EQ(dump_counters(json_path), 0);
  EXPECT_EQ(slurp(json_path),
            "{\n  \"bench\": \"t\",\n  \"counters\": {\n"
            "    \"probe.hits\": 42\n  }\n}\n");
  std::remove(json_path.c_str());
}

TEST(WriteCounters, UnwritablePathFailsLoudly) {
  EXPECT_EQ(dump_counters("no/such/dir/bench_util_test.csv"), 1);
}

TEST(WriteFile, ChecksTheOpenTheWriteAndTheClose) {
  EXPECT_TRUE(bench::write_file("", "ignored")) << "\"\" means off";
  EXPECT_FALSE(bench::write_file("no/such/dir/out.json", "{}"));
  // A full disk opens fine and only fails when the data is flushed.
  EXPECT_FALSE(bench::write_file("/dev/full", "{}"));
  EXPECT_EQ(dump_counters("/dev/full"), 1);
}

TEST(CounterCsv, HostileNamesAreRfc4180Quoted) {
  sim::CounterRegistry reg;
  *reg.slot("plain.name") = 1;
  *reg.slot("with,comma") = 2;
  *reg.slot("with\"quote") = 3;
  *reg.slot("with\nnewline") = 4;
  const std::string csv = sim::CounterRegistry(reg).to_csv();
  EXPECT_NE(csv.find("plain.name,1\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with,comma\",2\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with\"\"quote\",3\n"), std::string::npos) << csv;
  EXPECT_NE(csv.find("\"with\nnewline\",4\n"), std::string::npos) << csv;
  // Exactly one header plus four rows.
  EXPECT_EQ(csv.rfind("counter,value\n", 0), 0u) << csv;
}

TEST(CounterJson, HostileNamesAreEscaped) {
  sim::CounterRegistry reg;
  *reg.slot("with\"quote") = 1;
  const std::string json = reg.to_json("bench \"x\"");
  EXPECT_NE(json.find("\"bench \\\"x\\\"\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"with\\\"quote\": 1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Command-line settling: --help, unknown options, invalid values,
// machine selection and the audit gate.

TEST(FinishArgs, ProceedsOnCleanCommandLines) {
  const char* argv[] = {"t", "--machine=e870"};
  bench::Harness h(2, argv);
  h.select_spec();
  EXPECT_FALSE(h.start("", "").has_value());
}

TEST(FinishArgs, HelpExitsZero) {
  const char* argv[] = {"t", "--help"};
  bench::Harness h(2, argv);
  h.select_spec();
  ::testing::internal::CaptureStdout();
  EXPECT_EQ(h.start("Table", "never printed"), 0);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--machine"), std::string::npos) << out;
  EXPECT_NE(out.find("e880"), std::string::npos) << "presets advertised";
  EXPECT_EQ(out.find("never printed"), std::string::npos) << out;
}

TEST(FinishArgs, UnknownOptionExitsTwo) {
  for (const char* flag : {"--machin=e870", "stray-positional"}) {
    const char* argv[] = {"t", flag};
    bench::Harness h(2, argv);
    h.select_spec();
    EXPECT_EQ(h.start("", ""), 2) << flag;
  }
}

TEST(MachineArg, DefaultsToE870AndAdvertisesPresets) {
  const char* argv[] = {"t"};
  bench::Harness h(1, argv);
  h.select_spec();
  ASSERT_FALSE(h.start("", "").has_value());
  EXPECT_EQ(h.selector(), "e870");
  EXPECT_EQ(h.spec(), sim::machine_spec("e870"));
}

TEST(ThreadsArg, DefaultsToZeroMeaningHardwareThreads) {
  const char* argv[] = {"t", "--threads=0"};
  bench::Harness absent(1, argv);
  EXPECT_EQ(absent.threads(), common::default_thread_count());
  bench::Harness zero(2, argv);
  EXPECT_EQ(zero.threads(), common::default_thread_count());
  EXPECT_FALSE(zero.start("", "").has_value());
}

TEST(ThreadsArg, AcceptsTheFullValidRange) {
  for (const std::size_t n : {1, 7, 4096}) {
    const std::string flag = "--threads=" + std::to_string(n);
    const char* argv[] = {"t", flag.c_str()};
    bench::Harness h(2, argv);
    EXPECT_EQ(h.threads(), n);
    EXPECT_FALSE(h.start("", "").has_value()) << flag;
  }
}

TEST(ThreadsArg, RejectsOutOfRangeValues) {
  for (const char* flag : {"--threads=-1", "--threads=4097",
                           "--threads=1000000", "--threads=abc"}) {
    const char* argv[] = {"t", flag};
    bench::Harness h(2, argv);
    // The bad value never reaches the bench: the default stands in
    // until start() refuses the run.
    EXPECT_EQ(h.threads(), common::default_thread_count()) << flag;
    EXPECT_EQ(h.start("Never", "printed"), 2) << flag;
  }
}

TEST(TaskTimeline, EmptyPathIsANoOpSuccess) {
  const char* argv[] = {"t"};
  bench::Harness h(1, argv);
  EXPECT_EQ(h.task_json(), "");
  EXPECT_TRUE(bench::write_file(h.task_json(), "{}"));
}

TEST(TaskTimeline, WritesTheBodyVerbatim) {
  const std::string path = "bench_util_test_timeline.json";
  const std::string flag = "--task-json=" + path;
  const char* argv[] = {"t", flag.c_str()};
  bench::Harness h(2, argv);
  const std::string body = "{\"bench\": \"t\", \"timeline\": []}\n";
  ::testing::internal::CaptureStdout();
  ASSERT_TRUE(bench::write_file(h.task_json(), body, "timeline in "));
  EXPECT_EQ(::testing::internal::GetCapturedStdout(),
            "timeline in " + path + "\n");
  EXPECT_EQ(slurp(path), body);
  std::remove(path.c_str());
}

TEST(TaskTimeline, UnwritablePathFailsLoudly) {
  const char* argv[] = {"t", "--task-json=no/such/dir/timeline.json"};
  bench::Harness h(2, argv);
  EXPECT_FALSE(bench::write_file(h.task_json(), "{}"));
}

TEST(LoadMachine, ResolvesPresetsAndRejectsGarbage) {
  const char* good[] = {"t", "--machine=e850c"};
  bench::Harness h(2, good);
  h.select_machine();
  EXPECT_ANY_THROW((void)h.machine()) << "no machine before start()";
  ASSERT_FALSE(h.start("", "").has_value());
  EXPECT_EQ(h.machine().spec().sockets, 2);

  for (const char* flag : {"--machine=e999", "--machine=missing_file.json"}) {
    const char* argv[] = {"t", flag};
    bench::Harness bad(2, argv);
    bad.select_machine();
    EXPECT_EQ(bad.start("", ""), 2) << flag;
    EXPECT_ANY_THROW((void)bad.machine()) << "no machine after a failure";
  }
}

TEST(LoadMachine, MachinesListKeepsOrderAndRejectsAnEmptyList) {
  const char* argv[] = {"t", "--machines=e850c,,e870"};
  bench::Harness h(2, argv);
  h.select_machines();
  ASSERT_FALSE(h.start("", "").has_value());
  ASSERT_EQ(h.machines().size(), 2u);
  EXPECT_EQ(h.machines()[0].selector, "e850c");
  EXPECT_EQ(h.machines()[1].spec, sim::machine_spec("e870"));

  const char* none[] = {"t", "--machines=,"};
  bench::Harness empty(2, none);
  empty.select_machines();
  EXPECT_EQ(empty.start("", ""), 2);
}

TEST(AuditGate, FailingMachineExitsTwoBeforeTheHeaderUnlessWaived) {
  arch::SystemSpec swapped = arch::e870();
  std::swap(swapped.processor.core.l2_bytes, swapped.processor.core.l3_bytes);
  const sim::Machine machine(swapped);
  for (const int argc : {1, 2}) {
    const char* argv[] = {"t", "--no-audit"};
    bench::Harness h(argc, argv);
    h.gate(machine);
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    const auto exit_code = h.start("Header", "printed only when waived");
    const std::string out = ::testing::internal::GetCapturedStdout();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("audit: FAILED"), std::string::npos) << err;
    EXPECT_EQ(exit_code.has_value(), argc == 1);
    EXPECT_EQ(out.empty(), argc == 1) << out;
  }
}

// ---------------------------------------------------------------------------
// Tolerance-table gate machinery.

TEST(GateVerdicts, AddCheckAndFailedCountAgree) {
  std::vector<bench::Verdict> verdicts;
  EXPECT_EQ(bench::failed_count(verdicts), 0);
  bench::add_check(verdicts, "latency.plateaus", true, "ordered");
  bench::add_check(verdicts, "mix.2to1-peak", false, "inverted");
  bench::add_check(verdicts, "noc.inter-gt-intra", false, "flat");
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts[1].invariant, "mix.2to1-peak");
  EXPECT_EQ(bench::failed_count(verdicts), 2);
}

TEST(GateVerdicts, PrintFailedReportsOnlyFailuresInRowOrder) {
  std::vector<bench::Verdict> verdicts;
  bench::add_check(verdicts, "first.ok", true, "fine");
  bench::add_check(verdicts, "second.bad", false, "off by 2x");
  bench::add_check(verdicts, "third.bad", false, "missing");
  ::testing::internal::CaptureStderr();
  const int failed = bench::print_failed("e870", verdicts);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(err,
            "FAIL [e870] second.bad: off by 2x\n"
            "FAIL [e870] third.bad: missing\n");
}

TEST(ToleranceChecks, WithinRatioAndStatus) {
  bench::ToleranceCheck c{"latency.DRAM", 100.0, 101.0, 0.02, false};
  EXPECT_DOUBLE_EQ(bench::tolerance_ratio(c), 1.01);
  EXPECT_TRUE(bench::tolerance_within(c));
  EXPECT_STREQ(bench::tolerance_status(c), "PASS");

  c.value = 103.0;  // 3% off a 2% tolerance
  EXPECT_FALSE(bench::tolerance_within(c));
  EXPECT_STREQ(bench::tolerance_status(c), "FAIL");

  c.allow_warn = true;  // documented deviation
  EXPECT_STREQ(bench::tolerance_status(c), "ALLOWED");

  // The boundary itself passes: |ratio - 1| <= tol, not < (values
  // chosen binary-exact so the ratio is exactly 1.25).
  const bench::ToleranceCheck edge{"edge", 8.0, 10.0, 0.25, false};
  EXPECT_TRUE(bench::tolerance_within(edge));
  const bench::ToleranceCheck past{"past", 8.0, 10.5, 0.25, false};
  EXPECT_FALSE(bench::tolerance_within(past));
}

TEST(ToleranceChecks, ZeroReferenceRequiresZeroValue) {
  bench::ToleranceCheck zero{"stream.idle", 0.0, 0.0, 0.02, false};
  EXPECT_EQ(bench::tolerance_ratio(zero), 0.0);
  EXPECT_TRUE(bench::tolerance_within(zero));
  zero.value = 1e-9;
  EXPECT_FALSE(bench::tolerance_within(zero));
  EXPECT_STREQ(bench::tolerance_status(zero), "FAIL");
}

TEST(ToleranceChecks, VerdictRendersStatusAndGatesOnlyOnFail) {
  const bench::Verdict pass = bench::tolerance_verdict(
      {"latency.L1", 0.7, 0.7, 0.02, false});
  EXPECT_TRUE(pass.ok);
  EXPECT_EQ(pass.invariant, "latency.L1");
  EXPECT_NE(pass.detail.find("PASS"), std::string::npos);

  const bench::Verdict allowed = bench::tolerance_verdict(
      {"bw.write-only", 10.0, 20.0, 0.02, true});
  EXPECT_TRUE(allowed.ok) << "ALLOWED rows must not gate";
  EXPECT_NE(allowed.detail.find("ALLOWED"), std::string::npos);

  const bench::Verdict fail = bench::tolerance_verdict(
      {"bw.2to1", 10.0, 20.0, 0.02, false});
  EXPECT_FALSE(fail.ok);
  EXPECT_NE(fail.detail.find("FAIL"), std::string::npos);
  EXPECT_NE(fail.detail.find("ratio 2"), std::string::npos);
}

TEST(HierarchyLandmarks, CoversEveryLevelOfTheE870MidPlateau) {
  const sim::MachineSpec spec = sim::machine_spec("e870");
  const auto landmarks = bench::hierarchy_landmarks(spec.system);
  ASSERT_EQ(landmarks.size(), 6u);
  const char* levels[] = {"L1", "L2", "L3", "chip-L3", "L4", "DRAM"};
  for (std::size_t i = 0; i < landmarks.size(); ++i) {
    EXPECT_STREQ(landmarks[i].level, levels[i]);
    if (i > 0) {
      EXPECT_GT(landmarks[i].bytes, landmarks[i - 1].bytes);
    }
  }
  // Each landmark sits strictly inside its plateau: L1's is half the
  // L1, L2's between the L1 and L2 capacities, and so on.
  EXPECT_EQ(landmarks[0].bytes, spec.system.processor.core.l1d_bytes / 2);
  EXPECT_LT(landmarks[1].bytes, spec.system.processor.core.l2_bytes);
  EXPECT_GT(landmarks[1].bytes, spec.system.processor.core.l1d_bytes);
}

TEST(HierarchyLandmarks, SkipsLevelsTheSpecDoesNotHave) {
  sim::MachineSpec spec = sim::machine_spec("e870");
  // Ablate the L4 below the chip L3: the L4 plateau disappears and the
  // DRAM landmark is sized off the deepest remaining level.
  spec.system.centaur.l4_bytes = 1;
  const auto landmarks = bench::hierarchy_landmarks(spec.system);
  for (const auto& lm : landmarks) EXPECT_STRNE(lm.level, "L4");
  const std::uint64_t chip_l3 =
      spec.system.processor.l3_total_bytes(spec.system.cores_per_chip);
  EXPECT_EQ(landmarks.back().bytes, 4 * chip_l3);
}

}  // namespace
