// Tests for the hardware prefetch engine: stream confirmation, DSCR
// depths, stride-N detection and DCBT hints.
#include <gtest/gtest.h>

#include "sim/prefetch/engine.hpp"

namespace p8::sim {
namespace {

constexpr std::uint64_t kLine = 128;

PrefetchConfig config_with(int dscr, bool stride_n = false) {
  PrefetchConfig c;
  c.dscr = dscr;
  c.stride_n_enabled = stride_n;
  return c;
}

// Feeds `n` sequential line accesses and returns total prefetches.
std::size_t run_sequential(PrefetchEngine& e, int n, std::uint64_t start = 0) {
  std::size_t total = 0;
  for (int i = 0; i < n; ++i)
    total += e.on_access(start + static_cast<std::uint64_t>(i) * kLine).size();
  return total;
}

TEST(PrefetchConfig, DepthEncoding) {
  EXPECT_EQ(config_with(1).depth_lines(), 0);  // disabled
  EXPECT_EQ(config_with(2).depth_lines(), 1);
  EXPECT_EQ(config_with(7).depth_lines(), 8);  // deepest
  EXPECT_EQ(config_with(0).depth_lines(), 8);  // hardware default: deep
  for (int d = 2; d < 7; ++d)
    EXPECT_LT(config_with(d).depth_lines(), config_with(d + 1).depth_lines());
}

TEST(PrefetchEngine, DisabledIssuesNothing) {
  PrefetchEngine e(config_with(1));
  EXPECT_EQ(run_sequential(e, 50), 0u);
}

TEST(PrefetchEngine, NeedsConfirmationBeforeIssuing) {
  PrefetchEngine e(config_with(7));
  EXPECT_TRUE(e.on_access(0).empty());          // allocation miss
  EXPECT_TRUE(e.on_access(kLine).empty());      // first advance
  EXPECT_FALSE(e.on_access(2 * kLine).empty()); // confirmed -> issue
}

TEST(PrefetchEngine, RampsUpGradually) {
  // Hardware streams start shallow and deepen by one line per
  // confirmed access — the §III-D "kicks in too late" behaviour.
  PrefetchEngine e(config_with(7));
  e.on_access(0);
  e.on_access(kLine);
  const auto first = e.on_access(2 * kLine);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].line_addr, 3 * kLine);
  EXPECT_EQ(first[1].line_addr, 4 * kLine);
  // The next access deepens the run-ahead.
  const auto second = e.on_access(3 * kLine);
  ASSERT_EQ(second.size(), 2u);  // one step + one ramp extension
}

TEST(PrefetchEngine, RampReachesFullDepth) {
  PrefetchEngine e(config_with(7));
  std::int64_t high_water = 0;
  for (int i = 0; i < 20; ++i)
    for (const auto& r : e.on_access(static_cast<std::uint64_t>(i) * kLine))
      high_water = static_cast<std::int64_t>(r.line_addr / kLine);
  // After the ramp, the engine runs the full 8 lines ahead.
  EXPECT_EQ(high_water, 19 + 8);
}

TEST(PrefetchEngine, DcbtSkipsTheRamp) {
  // A DCBT-hinted stream starts fully ramped: the initial burst
  // already spans the whole depth.
  PrefetchEngine e(config_with(7));
  const auto reqs = e.hint_stream(0, 64 * kLine);
  ASSERT_EQ(reqs.size(), 8u);
}

TEST(PrefetchEngine, SteadyStateIssuesOnePerAccess) {
  PrefetchEngine e(config_with(7));
  run_sequential(e, 20);
  const auto reqs = e.on_access(20 * kLine);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].line_addr, 28 * kLine);  // high-water + 1 step
}

TEST(PrefetchEngine, SameLineRetouchDoesNotAdvance) {
  PrefetchEngine e(config_with(7));
  run_sequential(e, 10);
  EXPECT_TRUE(e.on_access(9 * kLine).empty());
}

TEST(PrefetchEngine, DescendingStreamsWork) {
  PrefetchEngine e(config_with(7));
  const std::uint64_t top = 100 * kLine;
  e.on_access(top);
  e.on_access(top - kLine);
  const auto reqs = e.on_access(top - 2 * kLine);
  ASSERT_FALSE(reqs.empty());
  EXPECT_EQ(reqs[0].line_addr, top - 3 * kLine);
}

TEST(PrefetchEngine, BrokenPatternResets) {
  PrefetchEngine e(config_with(7));
  run_sequential(e, 10);
  // Jump far away: the stream restarts and must re-confirm.
  EXPECT_TRUE(e.on_access(1000 * kLine).empty());
  EXPECT_TRUE(e.on_access(2000 * kLine).empty());
}

TEST(PrefetchEngine, DefaultDetectorIgnoresLargeStrides) {
  PrefetchEngine e(config_with(7, /*stride_n=*/false));
  std::size_t total = 0;
  for (int i = 0; i < 30; ++i)
    total += e.on_access(static_cast<std::uint64_t>(i) * 256 * kLine).size();
  EXPECT_EQ(total, 0u);
}

TEST(PrefetchEngine, StrideNDetectorLocksLargeStrides) {
  PrefetchEngine e(config_with(7, /*stride_n=*/true));
  std::size_t total = 0;
  for (int i = 0; i < 30; ++i)
    total += e.on_access(static_cast<std::uint64_t>(i) * 256 * kLine).size();
  EXPECT_GT(total, 20u);
}

TEST(PrefetchEngine, StrideNPrefetchesAtStride) {
  PrefetchEngine e(config_with(7, /*stride_n=*/true));
  e.on_access(0);
  e.on_access(256 * kLine);
  const auto reqs = e.on_access(512 * kLine);
  ASSERT_FALSE(reqs.empty());
  EXPECT_EQ(reqs[0].line_addr, (512 + 256) * kLine);
}

TEST(PrefetchEngine, StrideBeyondDetectorLimitIgnored) {
  PrefetchConfig c = config_with(7, true);
  c.max_stride_lines = 64;
  PrefetchEngine e(c);
  std::size_t total = 0;
  for (int i = 0; i < 30; ++i)
    total += e.on_access(static_cast<std::uint64_t>(i) * 128 * kLine).size();
  EXPECT_EQ(total, 0u);
}

TEST(PrefetchEngine, DcbtInstallsEngagedStream) {
  PrefetchEngine e(config_with(7));
  const auto reqs = e.hint_stream(0, 64 * kLine);
  // Initial burst covers the start of the array immediately.
  ASSERT_EQ(reqs.size(), 8u);
  EXPECT_EQ(reqs[0].line_addr, 0u);
  EXPECT_EQ(reqs[7].line_addr, 7 * kLine);
}

TEST(PrefetchEngine, DcbtRespectsArrayEnd) {
  PrefetchEngine e(config_with(7));
  // A 3-line array: the burst must not run past it.
  const auto reqs = e.hint_stream(0, 3 * kLine);
  EXPECT_EQ(reqs.size(), 3u);
}

TEST(PrefetchEngine, DcbtDescending) {
  PrefetchEngine e(config_with(7));
  const std::uint64_t base = 100 * kLine;
  const auto reqs = e.hint_stream(base, 4 * kLine, /*descending=*/true);
  ASSERT_EQ(reqs.size(), 4u);
  EXPECT_EQ(reqs[0].line_addr, base);
  EXPECT_EQ(reqs[3].line_addr, base - 3 * kLine);
}

TEST(PrefetchEngine, DcbtStopFreesSlot) {
  PrefetchConfig c = config_with(7);
  c.max_streams = 2;
  PrefetchEngine e(c);
  e.hint_stream(0, 64 * kLine);
  EXPECT_EQ(e.active_streams(), 1u);
  e.hint_stop(0);
  EXPECT_EQ(e.active_streams(), 0u);
}

TEST(PrefetchEngine, StreamTableEvictsLru) {
  PrefetchConfig c = config_with(7);
  c.max_streams = 2;
  PrefetchEngine e(c);
  // Three interleaved streams fight over two slots; the engine must
  // not crash and keeps at most two.
  for (int i = 0; i < 10; ++i) {
    e.on_access(static_cast<std::uint64_t>(i) * kLine);
    e.on_access((10000 + static_cast<std::uint64_t>(i)) * kLine);
    e.on_access((20000 + static_cast<std::uint64_t>(i)) * kLine);
  }
  EXPECT_LE(e.active_streams(), 2u);
}

TEST(PrefetchEngine, ClearDropsState) {
  PrefetchEngine e(config_with(7));
  run_sequential(e, 10);
  e.clear();
  EXPECT_EQ(e.active_streams(), 0u);
  EXPECT_TRUE(e.on_access(11 * kLine).empty());
}

TEST(PrefetchEngine, ConfigValidation) {
  PrefetchConfig c;
  c.dscr = 9;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
  c.dscr = 0;
  c.max_streams = 0;
  EXPECT_THROW(PrefetchEngine{c}, std::invalid_argument);
}

class PrefetchDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefetchDepthSweep, HighWaterNeverExceedsDepth) {
  const int dscr = GetParam();
  PrefetchEngine e(config_with(dscr));
  const int depth = config_with(dscr).depth_lines();
  std::uint64_t furthest = 0;
  for (int i = 0; i < 100; ++i) {
    for (const auto& r :
         e.on_access(static_cast<std::uint64_t>(i) * kLine))
      furthest = std::max(furthest, r.line_addr / kLine);
    if (furthest > 0) {
      EXPECT_LE(furthest, static_cast<std::uint64_t>(i + depth));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PrefetchDepthSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

}  // namespace
}  // namespace p8::sim
