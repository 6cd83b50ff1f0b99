// Unit tests for the common utilities: Status/Result, deterministic RNG,
// summary statistics and the table printer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "common/file.h"
#include "common/flat_index.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"
#include "common/timer.h"
#include "common/tree_path.h"

namespace pasa {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::Infeasible("too few users");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.message(), "too few users");
  EXPECT_EQ(s.ToString(), "INFEASIBLE: too few users");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInfeasible, StatusCode::kInvalidArgument,
        StatusCode::kInternal, StatusCode::kNotFound,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
}

TEST(StatusTest, ParseStatusCodeInvertsEveryName) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInfeasible, StatusCode::kInvalidArgument,
        StatusCode::kInternal, StatusCode::kNotFound,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    Result<StatusCode> parsed = ParseStatusCode(StatusCodeName(code));
    ASSERT_TRUE(parsed.ok()) << StatusCodeName(code);
    EXPECT_EQ(*parsed, code);
  }
  for (const char* name : {"", "UNKNOWN", "ok", "NOT FOUND", "OK "}) {
    Result<StatusCode> parsed = ParseStatusCode(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StatusTest, ResilienceFactories) {
  const Status unavailable = Status::Unavailable("provider down");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "UNAVAILABLE: provider down");
  const Status deadline = Status::DeadlineExceeded("budget spent");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(deadline.ToString(), "DEADLINE_EXCEEDED: budget spent");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(TreePathTest, PacksTurnsBelowAMarkerBit) {
  EXPECT_FALSE(TreePath().known());
  EXPECT_EQ(TreePath().depth(), -1);
  EXPECT_EQ(TreePath().ToString(), "");
  EXPECT_EQ(TreePath::FromTurns(0, 0).ToString(), "r");
  EXPECT_EQ(TreePath::FromTurns(0b10010, 5).ToString(), "r.1.0.0.1.0");
  EXPECT_EQ(TreePath::FromTurns(0b10010, 5).turns(), 0b10010u);
  // Bits above the depth are not turns.
  EXPECT_EQ(TreePath::FromTurns(0b111, 1), TreePath::FromTurns(1, 1));
  EXPECT_NE(TreePath::FromTurns(0, 1), TreePath::FromTurns(0, 2));
  const TreePath deepest = TreePath::FromTurns(~uint64_t{0}, 63);
  EXPECT_TRUE(deepest.known());
  EXPECT_EQ(deepest.depth(), 63);
  EXPECT_EQ(deepest.turns(), ~uint64_t{0} >> 1);
  EXPECT_FALSE(TreePath::FromTurns(0, 64).known());
  EXPECT_FALSE(TreePath::FromTurns(0, -1).known());
  static_assert(sizeof(TreePath) == sizeof(uint64_t));
}

TEST(TreePathTest, ParseInvertsToStringAtEveryDepth) {
  Rng rng(31);
  for (int depth = 0; depth <= TreePath::kMaxDepth; ++depth) {
    const TreePath path = TreePath::FromTurns(rng.Next(), depth);
    Result<TreePath> parsed = TreePath::Parse(path.ToString());
    ASSERT_TRUE(parsed.ok()) << path.ToString();
    EXPECT_EQ(*parsed, path);
    EXPECT_EQ(parsed->depth(), depth);
  }
  Result<TreePath> unknown = TreePath::Parse("");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(unknown->known());
  std::string too_deep = "r";
  for (int i = 0; i <= TreePath::kMaxDepth; ++i) too_deep += ".1";
  for (const std::string& bad :
       {std::string("x"), std::string("r."), std::string("r.2"),
        std::string("r0"), std::string("r.0.1."), std::string("r.01"),
        std::string(".0"), std::string("R.0"), std::string("r.0 "),
        too_deep}) {
    Result<TreePath> parsed = TreePath::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FlatIndexTest, ItemCountLimitAtItsBoundary) {
  // Items are numbered 0 .. 2^32 - 2; 2^32 - 1 means "absent".
  EXPECT_EQ(kMaxItems, size_t{UINT32_MAX});
  EXPECT_TRUE(ItemCountFits(0));
  EXPECT_TRUE(ItemCountFits(kMaxItems));
  EXPECT_FALSE(ItemCountFits(kMaxItems + 1));
  EXPECT_EQ(ItemNumber(0), 0u);
  EXPECT_EQ(ItemNumber(kMaxItems - 1), UINT32_MAX - 1);
  EXPECT_NE(ItemNumber(kMaxItems - 1), kNoItem);
  EXPECT_DEATH(ItemNumber(kMaxItems), "more than 2\\^32-1 items");
}

TEST(FlatIndexTest, TellsApartItemsThatShareHomeSlotAndTag) {
  // Every hash has its low 16 bits set, so at up to 2^16 slots every item
  // starts probing at the last slot and all but the first wrap. Items 0..5
  // hash alike, tag bits included, so only `equal` tells them apart;
  // items 6..11 keep other tags.
  const auto hash_of = [](uint32_t i) -> uint64_t {
    return i < 6 ? ~uint64_t{0} : (uint64_t{i} << 40) | 0xFFFF;
  };
  FlatIndex index;
  EXPECT_EQ(index.Find(hash_of(0), [](uint32_t) { return true; }), kNoItem);
  for (uint32_t i = 0; i < 12; ++i) {
    index.Insert(hash_of(i), i, hash_of);
    for (uint32_t j = 0; j <= i; ++j) {
      EXPECT_EQ(index.Find(hash_of(j), [&](uint32_t item) { return item == j; }),
                j);
    }
  }
  EXPECT_EQ(index.ApproxBytes(), 32 * sizeof(uint32_t));
  EXPECT_EQ(index.Find(hash_of(0), [](uint32_t) { return false; }), kNoItem);
  // A tag no item has is never handed to `equal`.
  EXPECT_EQ(index.Find((uint64_t{99} << 40) | 0xFFFF,
                       [](uint32_t) { return true; }),
            kNoItem);

  index.Reserve(1000, 12, hash_of);
  EXPECT_EQ(index.ApproxBytes(), 2048 * sizeof(uint32_t));
  for (uint32_t j = 0; j < 12; ++j) {
    EXPECT_EQ(index.Find(hash_of(j), [&](uint32_t item) { return item == j; }),
              j);
  }
  index.Clear();
  EXPECT_EQ(index.ApproxBytes(), 0u);
  EXPECT_EQ(index.Find(hash_of(0), [](uint32_t) { return true; }), kNoItem);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(7), 7u);
  }
}

TEST(RngTest, NextInRangeIsInclusive) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextGaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, SampleIndicesDistinctAndComplete) {
  Rng rng(5);
  const auto sample = rng.SampleIndices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const uint32_t v : sample) EXPECT_LT(v, 100u);

  // Dense sampling path (count * 4 >= population).
  const auto dense = rng.SampleIndices(40, 35);
  std::set<uint32_t> unique_dense(dense.begin(), dense.end());
  EXPECT_EQ(unique_dense.size(), 35u);
}

TEST(RngTest, SampleAllIndices) {
  Rng rng(6);
  const auto all = rng.SampleIndices(10, 10);
  std::set<uint32_t> unique(all.begin(), all.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.Add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(StatsTest, VarianceOfSingletonIsZero) {
  RunningStats s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StatsTest, EmptyRunningStatsHasNanExtremes) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(StatsTest, FirstAddReplacesNanExtremes) {
  RunningStats s;
  s.Add(-3.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, PercentileEdgeCases) {
  // Empty input: 0 regardless of p.
  EXPECT_DOUBLE_EQ(Percentile({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 100), 0.0);
  // Single element: every percentile is that element.
  EXPECT_DOUBLE_EQ(Percentile({9.5}, 0), 9.5);
  EXPECT_DOUBLE_EQ(Percentile({9.5}, 37), 9.5);
  EXPECT_DOUBLE_EQ(Percentile({9.5}, 100), 9.5);
  // Out-of-range p clamps to the extremes.
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, -10), 1.0);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3}, 250), 3.0);
}

TEST(StatsTest, ThousandsSeparators) {
  EXPECT_EQ(WithThousandsSeparators(0), "0");
  EXPECT_EQ(WithThousandsSeparators(999), "999");
  EXPECT_EQ(WithThousandsSeparators(1000), "1,000");
  EXPECT_EQ(WithThousandsSeparators(1750000), "1,750,000");
  EXPECT_EQ(WithThousandsSeparators(-1234567), "-1,234,567");
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "20000"});
  const std::string rendered = t.ToString();
  EXPECT_NE(rendered.find("| name  | value |"), std::string::npos);
  EXPECT_NE(rendered.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     | 20000 |"), std::string::npos);
}

TEST(TableTest, CellFormatters) {
  EXPECT_EQ(TablePrinter::Cell(int64_t{42}), "42");
  EXPECT_EQ(TablePrinter::Cell(3.14159, 2), "3.14");
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
}

TEST(ReadFileTest, ReadsTheWholeFile) {
  const std::string path = ::testing::TempDir() + "/pasa_read_file_test.txt";
  const std::string contents(10'000, 'x');
  std::ofstream(path) << contents;
  Result<std::string> read = ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, contents);
  std::remove(path.c_str());
}

TEST(ReadFileTest, MissingIsNotFoundAndADirectoryIsUnreadable) {
  EXPECT_EQ(ReadFile("/no/such/file").status().code(), StatusCode::kNotFound);
  const Status dir = ReadFile(::testing::TempDir()).status();
  EXPECT_EQ(dir.code(), StatusCode::kInternal) << dir.ToString();
}

}  // namespace
}  // namespace pasa
