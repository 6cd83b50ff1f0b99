// Heap allocations on the armed audit path. This binary replaces every
// global operator new with one that counts, so a test can assert that a
// stretch of code allocates nothing: with the provenance ring armed and
// full, annotating a cloak decision and appending the record (no fault
// fires) must not touch the heap, or the audit ring costs the request path
// an allocator round trip per request.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "obs/provenance.h"
#include "pasa/bulk_dp_binary.h"
#include "pasa/extraction.h"
#include "workload/bay_area.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
  if (p == nullptr) std::abort();  // the library is exception-free
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, 0); }
void* operator new[](std::size_t n) { return CountedAlloc(n, 0); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace pasa {
namespace {

constexpr int kK = 50;

class ProvenanceAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BayAreaOptions options;
    options.seed = 1;
    const BayAreaGenerator generator(options);
    db_ = generator.Generate(20'000);
    Result<BinaryTree> tree = BinaryTree::Build(
        db_, generator.extent(), TreeOptions{.split_threshold = kK});
    ASSERT_TRUE(tree.ok());
    tree_.emplace(std::move(*tree));
    Result<DpMatrix> matrix = ComputeDpMatrix(*tree_, kK, DpOptions{});
    ASSERT_TRUE(matrix.ok());
    Result<ExtractedPolicy> policy =
        ExtractOptimalPolicy(*tree_, *matrix, kK);
    ASSERT_TRUE(policy.ok());
    policy_.emplace(std::move(*policy));

    // Armed, and full: every further append overwrites the oldest record.
    obs::ProvenanceRing& ring = obs::ProvenanceRing::Global();
    ring.Enable();
    obs::ProvenanceRecord filler;
    AnnotateCloakDecision(*tree_, *policy_, kK, policy_->assignment[0], 1,
                          db_.row(0).user, &filler);
    while (ring.size() < ring.capacity()) ring.Append(filler);
  }
  void TearDown() override {
    obs::ProvenanceRing::Global().Disable();
    obs::ProvenanceRing::Global().Clear();
  }

  LocationDatabase db_;
  std::optional<BinaryTree> tree_;
  std::optional<ExtractedPolicy> policy_;
};

TEST_F(ProvenanceAllocTest, AnnotateAndAppendAllocateNothing) {
  obs::ProvenanceRing& ring = obs::ProvenanceRing::Global();
  ASSERT_TRUE(ring.enabled());
  ASSERT_EQ(ring.size(), ring.capacity());
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t row = 0; row < db_.size(); ++row) {
    obs::ProvenanceRecord record;
    AnnotateCloakDecision(*tree_, *policy_, kK, policy_->assignment[row],
                          static_cast<int64_t>(row) + 1, db_.row(row).user,
                          &record);
    ring.Append(std::move(record));
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(allocations, 0u);
  // The path was filled: the records describe real tree nodes.
  const std::vector<obs::ProvenanceRecord> records = ring.Records();
  EXPECT_EQ(records.back().tree_path,
            tree_->PathTo(policy_->assignment[db_.size() - 1]));
  EXPECT_TRUE(records.back().tree_path.known());
}

// The counter sees the allocations it is meant to catch: a path rendered
// as a string too long for the short-string buffer.
TEST_F(ProvenanceAllocTest, CounterSeesAPathRenderedAsAString) {
  const TreePath path = tree_->PathTo(policy_->assignment[0]);
  ASSERT_GE(path.depth(), 8);  // "r" + 2 chars a turn > 15 chars
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const std::string text = path.ToString();
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before) << text;
}

}  // namespace
}  // namespace pasa
