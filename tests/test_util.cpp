#include <gtest/gtest.h>

#include <string>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace tealeaf {
namespace {

TEST(Args, ParsesKeyValueForms) {
  // Positionals precede options: `--verbose input.deck` would bind as a
  // key/value pair (the documented `--key value` form).
  const char* argv[] = {"prog", "input.deck", "--mesh", "128", "--eps=1e-8",
                        "--verbose"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("mesh", 0), 128);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-8);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.deck");
  EXPECT_EQ(args.program(), "prog");
}

TEST(Args, FlagFollowedByOptionIsBoolean) {
  const char* argv[] = {"prog", "--flag", "--mesh", "64"};
  Args args(4, argv);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("mesh", 0), 64);
}

TEST(Args, FallbacksApplyWhenMissing) {
  const char* argv[] = {"prog"};
  Args args(1, argv);
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Args, ExplicitBooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  Args args(5, argv);
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Args, RetiredFlagsFailLoudly) {
  // design_space_sweep, heat3d and bench_kernels reject their retired
  // engine flags (--fused, --pipeline, --tiles, --tile, --tile-scan) so.
  const char* argv[] = {"prog", "--fused", "0,1", "--tiles", "8"};
  Args args(5, argv);
  try {
    args.reject_retired({"pipeline", "fused", "tiles"});
    FAIL() << "--fused must be rejected";
  } catch (const TeaError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--fused was retired"), std::string::npos) << msg;
    EXPECT_NE(msg.find("derives its row-blocks"), std::string::npos) << msg;
    EXPECT_NE(msg.find("remove the flag"), std::string::npos) << msg;
  }
  try {
    args.reject_retired({"tiles"});
    FAIL() << "--tiles must be rejected";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("--tiles was retired"),
              std::string::npos);
  }
  EXPECT_NO_THROW(args.reject_retired({"pipeline", "tile", "tile-scan"}));
}

TEST(Require, ThrowsWithContext) {
  EXPECT_THROW(TEA_REQUIRE(false, "must hold"), TeaError);
  try {
    TEA_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const TeaError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(Numeric, RelDiffAndAlmostEqual) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_NEAR(rel_diff(1.0, 1.1), 0.1 / 1.1, 1e-12);
  EXPECT_TRUE(almost_equal(1.0, 1.0 + 1e-14));
  EXPECT_FALSE(almost_equal(1.0, 1.001));
  EXPECT_TRUE(almost_equal(0.0, 0.0));
}

TEST(Numeric, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(Numeric, CeilDivRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Numeric, SplitMix64Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  SplitMix64 c(42);
  for (int i = 0; i < 1000; ++i) {
    const double x = c.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
  SplitMix64 d(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = d.next_double(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Parallel, ForCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, [&](std::int64_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ReduceSumMatchesSerial) {
  const double got =
      parallel_reduce_sum(0, 10000, [](std::int64_t i) { return 1.0 * i; });
  EXPECT_DOUBLE_EQ(got, 10000.0 * 9999.0 / 2.0);
}

TEST(Stats, WelfordMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
}

TEST(TimerTest, SectionAccumulates) {
  SectionTimer st;
  for (int i = 0; i < 3; ++i) {
    auto scope = st.scope();
  }
  EXPECT_EQ(st.count(), 3);
  EXPECT_GE(st.total_s(), 0.0);
  st.reset();
  EXPECT_EQ(st.count(), 0);
}

}  // namespace
}  // namespace tealeaf
