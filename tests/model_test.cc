// Unit tests for the LBS model: location database snapshots, service and
// anonymized requests, masking, and the cloaking table.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/flat_index.h"
#include "common/rng.h"
#include "model/anonymized_request.h"
#include "model/cloaking.h"
#include "model/location_database.h"
#include "model/service_request.h"

namespace pasa {
namespace {

LocationDatabase ExampleDb() {
  // Table I of the paper (shifted to 0-based half-open coordinates).
  LocationDatabase db;
  db.Add(1, {0, 0});  // Alice
  db.Add(2, {0, 1});  // Bob
  db.Add(3, {0, 3});  // Carol
  db.Add(4, {2, 0});  // Sam
  db.Add(5, {3, 3});  // Tom
  return db;
}

TEST(LocationDatabaseTest, BasicAccess) {
  const LocationDatabase db = ExampleDb();
  EXPECT_EQ(db.size(), 5u);
  EXPECT_EQ(db.row(2).user, 3);
  EXPECT_EQ(db.row(2).location, (Point{0, 3}));
}

TEST(LocationDatabaseTest, IndexOfFindsAndFails) {
  const LocationDatabase db = ExampleDb();
  Result<size_t> found = db.IndexOf(4);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 3u);
  EXPECT_EQ(db.IndexOf(99).status().code(), StatusCode::kNotFound);
}

TEST(LocationDatabaseTest, IndexStaysConsistent) {
  auto expect_all_found = [](const LocationDatabase& db) {
    for (size_t i = 0; i < db.size(); ++i) {
      Result<size_t> found = db.IndexOf(db.row(i).user);
      ASSERT_TRUE(found.ok()) << "user " << db.row(i).user;
      EXPECT_EQ(*found, i);
    }
    EXPECT_EQ(db.IndexOf(99).status().code(), StatusCode::kNotFound);
  };
  // Built by the constructor, then grown with Add.
  LocationDatabase db({{7, {1, 2}}, {3, {0, 0}}});
  expect_all_found(db);
  db.Add(12, {5, 5});
  db.Add(-4, {6, 6});
  ASSERT_EQ(db.size(), 4u);
  expect_all_found(db);

  // A copy owns an index of its own: growing it leaves the original alone.
  LocationDatabase copy(db);
  expect_all_found(copy);
  copy.Add(40, {7, 7});
  expect_all_found(copy);
  EXPECT_EQ(db.IndexOf(40).status().code(), StatusCode::kNotFound);

  // Moves change locations, never ids or rows.
  ASSERT_TRUE(copy.MoveRow(2, {0, 9}).ok());  // user 12
  ASSERT_TRUE(copy.MoveRow(4, {1, 1}).ok());  // user 40
  EXPECT_EQ(copy.row(2).location, (Point{0, 9}));
  expect_all_found(copy);
  EXPECT_EQ(copy.MoveRow(5, {0, 0}).code(), StatusCode::kInvalidArgument);
}

// Slots in the snapshot's id index; a slot is 4 bytes.
size_t IndexSlots(const LocationDatabase& db) {
  return db.IndexApproxBytes() / sizeof(uint32_t);
}

// The slot count `n` rows settle at: a power of two, at least 16, at most
// half full.
size_t SlotsFor(size_t n) {
  return std::bit_ceil(std::max<size_t>(16, 2 * n));
}

// `count` ids, from `first` upward, whose hash has its low 12 bits set: at
// every table of up to 4096 slots they all start probing at the last slot,
// so all but the first wrap past the end of the table.
std::vector<UserId> IdsHomedAtLastSlot(UserId first, size_t count) {
  std::vector<UserId> ids;
  for (UserId id = first; ids.size() < count; ++id) {
    if ((Mix64(static_cast<uint64_t>(id)) & 4095) == 4095) ids.push_back(id);
  }
  return ids;
}

// Every id the oracle holds maps to its row, and every row to its id.
void ExpectMatchesOracle(const LocationDatabase& db,
                         const std::unordered_map<UserId, size_t>& oracle) {
  ASSERT_EQ(db.size(), oracle.size());
  for (const auto& [user, row] : oracle) {
    const Result<size_t> found = db.IndexOf(user);
    ASSERT_TRUE(found.ok()) << "user " << user;
    EXPECT_EQ(*found, row) << "user " << user;
    EXPECT_EQ(db.row(row).user, user);
  }
}

TEST(LocationDatabaseTest, IndexAgreesWithAnOracleOnRandomStreams) {
  constexpr UserId kMin = std::numeric_limits<UserId>::min();
  constexpr UserId kMax = std::numeric_limits<UserId>::max();
  const std::vector<UserId> wrapping = IdsHomedAtLastSlot(0, 24);
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Ids the stream draws from: dense, negative, the extremes, multiples
    // of 2^32, and ids that all start probing at the last slot.
    std::vector<UserId> pool = {kMin, kMin + 1, kMax, kMax - 1, 0, -1};
    const UserId dense = static_cast<UserId>(rng.NextInRange(20, 400));
    for (UserId id = 0; id <= dense; ++id) pool.push_back(id);
    for (UserId id = -1; id >= -40; --id) pool.push_back(id);
    for (int64_t k = -8; k <= 8; ++k) pool.push_back(k * (int64_t{1} << 32));
    pool.insert(pool.end(), wrapping.begin(), wrapping.end());

    LocationDatabase db;
    // Half the streams start from a reserved table, so the wrapping ids
    // meet at one capacity for longer.
    if (seed % 2 == 0) db.Reserve(static_cast<size_t>(rng.NextInRange(1, 64)));
    std::unordered_map<UserId, size_t> oracle;
    const int ops = static_cast<int>(rng.NextInRange(200, 2000));
    for (int op = 0; op < ops; ++op) {
      const UserId user =
          rng.NextBounded(8) == 0
              ? static_cast<UserId>(rng.Next())  // almost surely a miss
              : pool[rng.NextBounded(pool.size())];
      if (rng.NextBounded(2) == 0) {
        const Point where{rng.NextInRange(0, 99), rng.NextInRange(0, 99)};
        const bool fresh = oracle.try_emplace(user, db.size()).second;
        if (fresh) {
          ASSERT_TRUE(db.Add(user, where)) << "user " << user;
        } else {
          const std::vector<UserLocation> before = db.rows();
          EXPECT_FALSE(db.Add(user, where)) << "user " << user;
          EXPECT_EQ(db.size(), oracle.size());
          EXPECT_EQ(db.rows(), before);
        }
      } else {
        const Result<size_t> found = db.IndexOf(user);
        const auto it = oracle.find(user);
        if (it == oracle.end()) {
          EXPECT_EQ(found.status().code(), StatusCode::kNotFound)
              << "user " << user;
        } else {
          ASSERT_TRUE(found.ok()) << "user " << user;
          EXPECT_EQ(*found, it->second) << "user " << user;
        }
      }
    }
    ExpectMatchesOracle(db, oracle);
    ExpectMatchesOracle(LocationDatabase(db.rows()), oracle);
    for (const UserId id : IdsHomedAtLastSlot(wrapping.back() + 1, 4)) {
      EXPECT_EQ(db.IndexOf(id).status().code(), StatusCode::kNotFound);
    }
  }
}

TEST(LocationDatabaseTest, ProbesWrapPastTheEndOfTheTable) {
  const std::vector<UserId> ids = IdsHomedAtLastSlot(-1000, 7);
  LocationDatabase db;
  db.Reserve(8);
  ASSERT_EQ(IndexSlots(db), 16u);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(db.Add(ids[i], {0, 0}));
  }
  ASSERT_EQ(IndexSlots(db), 16u);  // one home slot, six probes past the end
  for (size_t i = 0; i < ids.size(); ++i) {
    const Result<size_t> found = db.IndexOf(ids[i]);
    ASSERT_TRUE(found.ok()) << "user " << ids[i];
    EXPECT_EQ(*found, i);
    EXPECT_FALSE(db.Add(ids[i], {1, 1}));
  }
  for (const UserId miss : IdsHomedAtLastSlot(ids.back() + 1, 3)) {
    EXPECT_EQ(db.IndexOf(miss).status().code(), StatusCode::kNotFound);
  }
}

TEST(LocationDatabaseTest, IndexGrowsByDoublingFromEmpty) {
  LocationDatabase db;
  EXPECT_EQ(db.IndexApproxBytes(), 0u);
  std::unordered_map<UserId, size_t> oracle;
  size_t doublings = 0;
  size_t slots = 16;
  // Spread-out ids, so neighbouring rows do not hash alike.
  for (UserId n = 0; n < 20000; ++n) {
    const UserId user = (n * 7919) ^ (n << 33);
    ASSERT_TRUE(db.Add(user, {n % 100, n / 100}));
    oracle.emplace(user, static_cast<size_t>(n));
    ASSERT_EQ(IndexSlots(db), SlotsFor(db.size())) << "after " << db.size();
    if (IndexSlots(db) != slots) {
      EXPECT_EQ(IndexSlots(db), 2 * slots);
      slots = IndexSlots(db);
      ++doublings;
      ExpectMatchesOracle(db, oracle);
    }
  }
  EXPECT_GE(doublings, 10u);
  ExpectMatchesOracle(db, oracle);
}

TEST(LocationDatabaseTest, ReserveSizesTheIndexOnce) {
  for (const size_t n : {1u, 7u, 8u, 9u, 1000u, 4096u, 5000u}) {
    SCOPED_TRACE("n " + std::to_string(n));
    LocationDatabase db;
    db.Reserve(n);
    const uint64_t reserved = db.IndexApproxBytes();
    EXPECT_EQ(reserved, SlotsFor(n) * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(db.Add(static_cast<UserId>(i) - 3, {0, 0}));
    }
    EXPECT_EQ(db.IndexApproxBytes(), reserved);

    // Reserving more keeps every stored row findable.
    db.Reserve(4 * n + 100);
    EXPECT_EQ(db.IndexApproxBytes(), SlotsFor(4 * n + 100) * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i) {
      const Result<size_t> found = db.IndexOf(static_cast<UserId>(i) - 3);
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, i);
    }
  }
}

TEST(LocationDatabaseTest, MoveUser) {
  LocationDatabase db = ExampleDb();
  ASSERT_TRUE(db.MoveRow(0, {1, 1}).ok());  // Alice
  EXPECT_EQ(db.row(0).location, (Point{1, 1}));
  EXPECT_EQ(db.MoveRow(5, {0, 0}).code(), StatusCode::kInvalidArgument);
}

TEST(LocationDatabaseTest, BoundingBoxCoversAllRows) {
  const LocationDatabase db = ExampleDb();
  const Rect box = db.BoundingBox();
  for (const auto& row : db.rows()) {
    EXPECT_TRUE(box.Contains(row.location));
  }
  EXPECT_EQ(LocationDatabase().BoundingBox(), Rect{});
}

TEST(LocationDatabaseTest, CountInside) {
  const LocationDatabase db = ExampleDb();
  EXPECT_EQ(db.CountInside(Rect{0, 0, 2, 4}), 3u);  // Alice, Bob, Carol (R3)
  EXPECT_EQ(db.CountInside(Rect{2, 0, 4, 4}), 2u);  // Sam, Tom (R2)
  EXPECT_EQ(db.CountInside(Rect{0, 0, 4, 4}), 5u);
}

TEST(ServiceRequestTest, ValidityAgainstSnapshot) {
  const LocationDatabase db = ExampleDb();
  const ServiceRequest valid{3, {0, 3}, {{"poi", "rest"}}};
  const ServiceRequest wrong_location{3, {1, 3}, {{"poi", "rest"}}};
  const ServiceRequest unknown_user{9, {0, 3}, {}};
  EXPECT_TRUE(IsValid(valid, db));
  EXPECT_FALSE(IsValid(wrong_location, db));
  EXPECT_FALSE(IsValid(unknown_user, db));
  EXPECT_EQ(id(valid), 3);
  EXPECT_EQ(loc(valid), (Point{0, 3}));
}

TEST(AnonymizedRequestTest, MasksRequiresLocationAndParams) {
  const AnonymizedRequest ar{167, {0, 0, 2, 4}, {{"poi", "rest"}}};
  EXPECT_TRUE(Masks(ar, ServiceRequest{3, {0, 3}, {{"poi", "rest"}}}));
  EXPECT_FALSE(Masks(ar, ServiceRequest{4, {2, 0}, {{"poi", "rest"}}}));
  EXPECT_FALSE(Masks(ar, ServiceRequest{3, {0, 3}, {{"poi", "groc"}}}));
  EXPECT_EQ(reg(ar), (Rect{0, 0, 2, 4}));
}

TEST(CloakingTableTest, CostAndGroups) {
  CloakingTable table(5);
  const Rect r3{0, 0, 2, 4};
  const Rect r2{2, 0, 4, 4};
  for (const size_t i : {0u, 1u, 2u}) table.Assign(i, r3);
  for (const size_t i : {3u, 4u}) table.Assign(i, r2);
  EXPECT_EQ(table.TotalCost(), 3 * 8 + 2 * 8);
  EXPECT_DOUBLE_EQ(table.AverageArea(), 8.0);
  EXPECT_EQ(table.MinGroupSize(), 2u);
  const auto groups = table.GroupSizesByRegion();
  EXPECT_EQ(groups.size(), 2u);
}

TEST(CloakingTableTest, EmptyTable) {
  const CloakingTable table;
  EXPECT_EQ(table.TotalCost(), 0);
  EXPECT_DOUBLE_EQ(table.AverageArea(), 0.0);
  EXPECT_EQ(table.MinGroupSize(), 0u);
}

TEST(CloakingTableTest, MaskingCheck) {
  const LocationDatabase db = ExampleDb();
  CloakingTable table(5);
  for (size_t i = 0; i < 5; ++i) table.Assign(i, Rect{0, 0, 4, 4});
  EXPECT_TRUE(table.IsMasking(db));
  table.Assign(0, Rect{2, 0, 4, 4});  // Alice (0,0) not inside
  EXPECT_FALSE(table.IsMasking(db));
}

TEST(CloakingTableTest, ApplyProducesMaskingAnonymizedRequest) {
  const LocationDatabase db = ExampleDb();
  CloakingTable table(5);
  for (size_t i = 0; i < 5; ++i) table.Assign(i, Rect{0, 0, 4, 4});
  const ServiceRequest sr{3, {0, 3}, {{"poi", "rest"}}};
  Result<AnonymizedRequest> ar = table.Apply(db, sr, 167);
  ASSERT_TRUE(ar.ok());
  EXPECT_EQ(ar->rid, 167);
  EXPECT_TRUE(Masks(*ar, sr));

  // Invalid request: location disagrees with the snapshot.
  const ServiceRequest stale{3, {1, 1}, {}};
  EXPECT_EQ(table.Apply(db, stale, 168).status().code(),
            StatusCode::kInvalidArgument);
  const ServiceRequest unknown{42, {0, 0}, {}};
  EXPECT_EQ(table.Apply(db, unknown, 169).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pasa
