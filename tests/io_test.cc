// Tests for the CSV exchange formats.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "io/csv.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::MakeDb;

TEST(CsvTest, ParseBasicWithHeaderCommentsAndBlanks) {
  const std::string text =
      "userid,locx,locy\n"
      "# a comment\n"
      "\n"
      "1,10,20\n"
      "2,-5,7\r\n";
  Result<LocationDatabase> db = ParseLocationDatabaseCsv(text);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db->size(), 2u);
  EXPECT_EQ(db->row(0).user, 1);
  EXPECT_EQ(db->row(1).location, (Point{-5, 7}));
}

TEST(CsvTest, ParseWithoutHeader) {
  Result<LocationDatabase> db = ParseLocationDatabaseCsv("7,1,2\n8,3,4\n");
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->size(), 2u);
}

TEST(CsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(ParseLocationDatabaseCsv("1,2\n").ok());
  EXPECT_FALSE(ParseLocationDatabaseCsv("1,2,x\n").ok());
  EXPECT_FALSE(ParseLocationDatabaseCsv("1,2,3,4\n").ok());
  // The error message carries the line number.
  const Status s = ParseLocationDatabaseCsv("1,1,1\n2,2,oops\n").status();
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(CsvTest, RejectsDuplicateUserIds) {
  const Status s =
      ParseLocationDatabaseCsv("userid,locx,locy\n1,0,0\n2,1,1\n1,2,2\n")
          .status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The header is line 1, so the second row of user 1 is line 4.
  EXPECT_NE(s.message().find("line 4"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("duplicate user id 1"), std::string::npos)
      << s.ToString();
}

TEST(CsvTest, LocationRoundTrip) {
  const LocationDatabase db = MakeDb({{0, 0}, {123, -456}, {7, 7}});
  Result<LocationDatabase> parsed =
      ParseLocationDatabaseCsv(FormatLocationDatabaseCsv(db));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(parsed->row(i), db.row(i));
  }
}

TEST(CsvTest, CloakingRoundTripMatchedByUserId) {
  const LocationDatabase db = MakeDb({{1, 1}, {2, 2}});
  CloakingTable table(2);
  table.Assign(0, Rect{0, 0, 4, 4});
  table.Assign(1, Rect{2, 0, 4, 4});
  const std::string csv = FormatCloakingCsv(db, table);
  Result<CloakingTable> parsed = ParseCloakingCsv(csv, db);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->cloak(0), table.cloak(0));
  EXPECT_EQ(parsed->cloak(1), table.cloak(1));
}

TEST(CsvTest, CloakingErrors) {
  const LocationDatabase db = MakeDb({{1, 1}, {2, 2}});
  // Unknown user.
  EXPECT_FALSE(ParseCloakingCsv("9,0,0,4,4\n", db).ok());
  // Missing user 1 (row index 1).
  EXPECT_FALSE(ParseCloakingCsv("0,0,0,4,4\n", db).ok());
}

TEST(CsvTest, FileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  const std::string loc_path = dir + "/pasa_io_test_locations.csv";
  const std::string cloak_path = dir + "/pasa_io_test_cloaks.csv";
  const LocationDatabase db = MakeDb({{5, 6}, {7, 8}});
  CloakingTable table(2);
  table.Assign(0, Rect{0, 0, 8, 8});
  table.Assign(1, Rect{0, 0, 8, 8});

  ASSERT_TRUE(SaveLocationDatabaseCsv(db, loc_path).ok());
  ASSERT_TRUE(SaveCloakingCsv(db, table, cloak_path).ok());

  Result<LocationDatabase> loaded = LoadLocationDatabaseCsv(loc_path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  Result<CloakingTable> cloaks = LoadCloakingCsv(cloak_path, *loaded);
  ASSERT_TRUE(cloaks.ok());
  EXPECT_EQ(cloaks->cloak(1), (Rect{0, 0, 8, 8}));

  std::remove(loc_path.c_str());
  std::remove(cloak_path.c_str());
}

TEST(CsvTest, MissingFile) {
  EXPECT_EQ(LoadLocationDatabaseCsv("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace pasa
