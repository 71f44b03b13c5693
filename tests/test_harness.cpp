// Unit tests for the evaluation harness: app profiles, thread axis,
// run_app mechanics, and the paper's applicability gaps ('*' and '#').
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/lock_registry.hpp"
#include "harness/app_profiles.hpp"
#include "harness/evaluation.hpp"

namespace rh = resilock::harness;
using resilock::kOriginal;
using resilock::kResilient;

namespace {
// A tiny profile so harness tests run in milliseconds.
rh::AppProfile tiny(bool trylock = false, bool pow2 = false) {
  return {"tiny", 4, 4, 4, 400, trylock, pow2, rh::Metric::kSeconds};
}
}  // namespace

TEST(AppProfiles, TableTwoRosterComplete) {
  const auto& profiles = rh::app_profiles();
  ASSERT_EQ(profiles.size(), 10u);
  EXPECT_EQ(profiles.front().name, "Barnes");
  EXPECT_EQ(profiles.back().name, "Synthetic");
  EXPECT_EQ(profiles.back().metric, rh::Metric::kMopsPerSec);
  EXPECT_EQ(profiles.back().cs_work, 0u);  // empty critical section
}

TEST(AppProfiles, PaperConstraintsEncoded) {
  EXPECT_TRUE(rh::app_profile("Fluidanimate").uses_trylock);
  EXPECT_TRUE(rh::app_profile("Fluidanimate").pow2_threads_only);
  EXPECT_TRUE(rh::app_profile("Streamcluster").uses_trylock);
  EXPECT_TRUE(rh::app_profile("Ocean").pow2_threads_only);
  EXPECT_FALSE(rh::app_profile("Radiosity").uses_trylock);
  EXPECT_THROW(rh::app_profile("nope"), std::out_of_range);
}

TEST(ThreadAxis, PowersOfTwoPlusMax) {
  const auto axis = rh::thread_axis(48);
  ASSERT_GE(axis.size(), 2u);
  EXPECT_EQ(axis.front(), 1u);
  EXPECT_EQ(axis.back(), 48u);
  // 1,2,4,8,16,32,48 — the paper's Figure 14 axis.
  const std::vector<std::uint32_t> expect = {1, 2, 4, 8, 16, 32, 48};
  EXPECT_EQ(axis, expect);
}

TEST(ThreadAxis, ExactPowerOfTwoMaxNotDuplicated) {
  const auto axis = rh::thread_axis(8);
  const std::vector<std::uint32_t> expect = {1, 2, 4, 8};
  EXPECT_EQ(axis, expect);
}

TEST(RunApp, ProducesPositiveMetrics) {
  const auto res = rh::run_app(tiny(), "MCS", kResilient, 2, 2);
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->seconds, 0.0);
  EXPECT_GT(res->mops, 0.0);
  EXPECT_DOUBLE_EQ(res->metric_value, res->seconds);
}

TEST(RunApp, Pow2ConstraintYieldsGap) {
  EXPECT_FALSE(rh::run_app(tiny(false, true), "MCS", kOriginal, 3, 1)
                   .has_value());  // the '#' cells of Figure 14
  EXPECT_TRUE(rh::run_app(tiny(false, true), "MCS", kOriginal, 4, 1)
                  .has_value());
}

TEST(RunApp, ClhSkippedForTrylockProfiles) {
  EXPECT_FALSE(rh::run_app(tiny(true), "CLH", kOriginal, 2, 1)
                   .has_value());  // the '*' cells of Figure 14
  EXPECT_TRUE(rh::run_app(tiny(true), "TAS", kOriginal, 2, 1).has_value());
}

TEST(RunApp, ZeroThreadsRejected) {
  EXPECT_FALSE(rh::run_app(tiny(), "MCS", kOriginal, 0, 1).has_value());
}

TEST(RunApp, AllTableTwoLocksRunTinyProfile) {
  for (const auto& name : resilock::table2_lock_names()) {
    const auto res = rh::run_app(tiny(), name, kResilient, 2, 1);
    ASSERT_TRUE(res.has_value()) << name;
    EXPECT_GT(res->seconds, 0.0) << name;
  }
}

TEST(OverheadCell, ComputesFiniteOverhead) {
  // Best of 9 interleaved reps, as overhead_cell is meant to be used:
  // a sub-millisecond TAS run whose holder is preempted can skew the
  // ratio by two orders of magnitude, and on a loaded machine (the
  // suite runs its binaries in parallel) a few reps in a row may be.
  const auto cell = rh::overhead_cell(tiny(), "TAS", 2, 9);
  ASSERT_TRUE(cell.has_value());
  EXPECT_GT(*cell, -95.0);  // sanity: not nonsense
  EXPECT_LT(*cell, 2000.0);
}

TEST(OverheadCell, GapPropagates) {
  EXPECT_FALSE(rh::overhead_cell(tiny(true), "CLH", 2, 1).has_value());
}

TEST(EnvKnobs, DefaultsAreSane) {
  // (Environment may override; check only invariants.)
  EXPECT_GT(rh::env_scale(), 0.0);
  EXPECT_GE(rh::env_max_threads(), 1u);
  EXPECT_GE(rh::env_reps(), 1u);
}
