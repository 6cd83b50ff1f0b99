// Unit tests for the memory accounting layer (obs/mem.h): the per-subsystem
// MemCounter, the global MemoryAccountant, the byte-estimation helpers, and
// the export surfaces (Prometheus gauges, the GET /memory JSON document, the
// memstats table).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/json.h"
#include "obs/mem.h"
#include "obs/metrics.h"

namespace pasa {
namespace obs {
namespace {

// The accountant is process-global and registrations are permanent, so
// every test zeroes it and uses targeted lookups rather than asserting on
// the full registration set.
class MemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Configure(ObsOptions{.enabled = true});
    MetricsRegistry::Global().Reset();
    MemoryAccountant::Global().Reset();
  }
  void TearDown() override {
    MemoryAccountant::Global().Reset();
    Configure(ObsOptions{.enabled = true});
  }
};

TEST_F(MemTest, MemCounterAddSetClampReset) {
  MemCounter counter;
  EXPECT_EQ(counter.bytes(), 0u);
  counter.Set(4096);
  EXPECT_EQ(counter.bytes(), 4096u);
  counter.Reset();
  EXPECT_EQ(counter.bytes(), 0u);
}

TEST_F(MemTest, AccountantGetCounterReturnsStableReference) {
  MemoryAccountant& accountant = MemoryAccountant::Global();
  MemCounter& a = accountant.GetCounter("mem_test/stable");
  MemCounter& b = accountant.GetCounter("mem_test/stable");
  EXPECT_EQ(&a, &b);
  a.Set(7);
  EXPECT_EQ(accountant.Snapshot().at("mem_test/stable"), 7u);
}

TEST_F(MemTest, AccountantSnapshotTotalAndReset) {
  MemoryAccountant& accountant = MemoryAccountant::Global();
  accountant.GetCounter("mem_test/a").Set(100);
  accountant.GetCounter("mem_test/b").Set(200);
  const auto snapshot = accountant.Snapshot();
  EXPECT_EQ(snapshot.at("mem_test/a"), 100u);
  EXPECT_EQ(snapshot.at("mem_test/b"), 200u);
  EXPECT_GE(accountant.TotalBytes(), 300u);
  accountant.Reset();
  // Registrations (and cached references) survive a reset; bytes zero.
  EXPECT_EQ(accountant.Snapshot().at("mem_test/a"), 0u);
  EXPECT_EQ(accountant.TotalBytes(), 0u);
}

TEST_F(MemTest, StringApproxBytesIsSsoAware) {
  std::string small = "tiny";
  EXPECT_EQ(StringApproxBytes(small), 0u);  // inline buffer, no heap
  std::string big(100, 'x');
  EXPECT_EQ(StringApproxBytes(big), big.capacity() + 1);
}

TEST_F(MemTest, VectorApproxBytesUsesCapacity) {
  std::vector<uint64_t> v;
  v.reserve(32);
  v.push_back(1);
  EXPECT_EQ(VectorApproxBytes(v), v.capacity() * sizeof(uint64_t));
}

TEST_F(MemTest, ExportJsonCarriesTotalsUsersAndSubsystems) {
  MemoryAccountant& accountant = MemoryAccountant::Global();
  accountant.GetCounter("mem_test/json").Set(1024);
  const std::string text = accountant.ExportJson(/*users=*/512);
  const Result<json::Value> doc = json::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  const json::Value* total = doc->Find("total_bytes");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->number(), 1024.0);
  const json::Value* users = doc->Find("users");
  ASSERT_NE(users, nullptr);
  EXPECT_EQ(users->number(), 512.0);
  ASSERT_NE(doc->Find("bytes_per_user"), nullptr);
  const json::Value* subsystems = doc->Find("subsystems");
  ASSERT_NE(subsystems, nullptr);
  ASSERT_TRUE(subsystems->is_object());
  const json::Value* entry = subsystems->Find("mem_test/json");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->number(), 1024.0);
}

TEST_F(MemTest, SummaryTableSortsByBytesAndEndsWithTotal) {
  MemoryAccountant& accountant = MemoryAccountant::Global();
  accountant.GetCounter("mem_test/small").Set(10);
  accountant.GetCounter("mem_test/large").Set(1'000'000);
  const std::string table = accountant.SummaryTable();
  const size_t large_pos = table.find("mem_test/large");
  const size_t small_pos = table.find("mem_test/small");
  const size_t total_pos = table.rfind("total");
  ASSERT_NE(large_pos, std::string::npos);
  ASSERT_NE(small_pos, std::string::npos);
  ASSERT_NE(total_pos, std::string::npos);
  EXPECT_LT(large_pos, small_pos);  // bytes-descending
  EXPECT_GT(total_pos, small_pos);  // roll-up row last
}

TEST_F(MemTest, PublishGaugesExportsLabeledPrometheusFamily) {
  MemoryAccountant& accountant = MemoryAccountant::Global();
  accountant.GetCounter("mem_test/gauge").Set(2048);
  accountant.PublishGauges(MetricsRegistry::Global());
  const std::string text =
      ExportPrometheus(MetricsRegistry::Global().Snapshot());
  EXPECT_NE(text.find("pasa_mem_bytes{subsystem=\"mem_test/gauge\"} 2048"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("pasa_mem_total_bytes"), std::string::npos);
  const Status format = CheckPrometheusText(text);
  EXPECT_TRUE(format.ok()) << format.ToString();
}

}  // namespace
}  // namespace obs
}  // namespace pasa
