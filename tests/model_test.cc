// Unit tests for the LBS model: location database snapshots, service and
// anonymized requests, masking, and the cloaking table.

#include <gtest/gtest.h>

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
