// Tests for the CSV exchange formats.

#include <gtest/gtest.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/csv.h"
#include "tests/test_util.h"

namespace pasa {
namespace {

using testing_util::MakeDb;

// ---------------------------------------------------------------------------
// Reference parser and formatters: the getline/strtoll/to_string
// implementation the scanner replaced, kept as the oracle the differential
// tests below compare against.
namespace oracle {

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (const char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  return fields;
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

Status ForEachRow(const std::string& text, size_t expected_fields,
                  const std::function<Status(size_t,
                                             const std::vector<std::string>&)>&
                      handle) {
  std::istringstream in(text);
  std::string line;
  size_t line_number = 0;
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = SplitFields(line);
    if (first_data_line) {
      first_data_line = false;
      int64_t probe = 0;
      if (!fields.empty() && !ParseInt(fields[0], &probe)) continue;
    }
    if (fields.size() != expected_fields) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": expected " +
          std::to_string(expected_fields) + " fields, got " +
          std::to_string(fields.size()));
    }
    Status s = handle(line_number, fields);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Result<LocationDatabase> ParseLocations(const std::string& text) {
  LocationDatabase db;
  Status s = ForEachRow(
      text, 3, [&](size_t line, const std::vector<std::string>& fields) {
        int64_t user = 0, x = 0, y = 0;
        if (!ParseInt(fields[0], &user) || !ParseInt(fields[1], &x) ||
            !ParseInt(fields[2], &y)) {
          return Status::InvalidArgument("line " + std::to_string(line) +
                                         ": malformed integer");
        }
        if (db.IndexOf(user).ok()) {
          return Status::InvalidArgument("line " + std::to_string(line) +
                                         ": duplicate user id " +
                                         std::to_string(user));
        }
        db.Add(user, Point{x, y});
        return Status::Ok();
      });
  if (!s.ok()) return s;
  return db;
}

Result<CloakingTable> ParseCloakings(const std::string& text,
                                     const LocationDatabase& db) {
  CloakingTable table(db.size());
  std::vector<bool> seen(db.size(), false);
  Status s = ForEachRow(
      text, 5, [&](size_t line, const std::vector<std::string>& fields) {
        int64_t values[5];
        for (int f = 0; f < 5; ++f) {
          if (!ParseInt(fields[f], &values[f])) {
            return Status::InvalidArgument("line " + std::to_string(line) +
                                           ": malformed integer");
          }
        }
        const Result<size_t> row = db.IndexOf(values[0]);
        if (!row.ok()) {
          return Status::InvalidArgument("line " + std::to_string(line) +
                                         ": unknown user " +
                                         std::to_string(values[0]));
        }
        table.Assign(*row, Rect{values[1], values[2], values[3], values[4]});
        seen[*row] = true;
        return Status::Ok();
      });
  if (!s.ok()) return s;
  for (size_t i = 0; i < db.size(); ++i) {
    if (!seen[i]) {
      return Status::InvalidArgument("no cloak for user " +
                                     std::to_string(db.row(i).user));
    }
  }
  return table;
}

std::string FormatLocations(const LocationDatabase& db) {
  std::string out = "userid,locx,locy\n";
  for (const UserLocation& row : db.rows()) {
    out += std::to_string(row.user);
    out += ',';
    out += std::to_string(row.location.x);
    out += ',';
    out += std::to_string(row.location.y);
    out += '\n';
  }
  return out;
}

std::string FormatCloakings(const LocationDatabase& db,
                            const CloakingTable& table) {
  std::string out = "userid,x1,y1,x2,y2\n";
  for (size_t i = 0; i < db.size(); ++i) {
    const Rect& r = table.cloak(i);
    out += std::to_string(db.row(i).user);
    for (const Coord v : {r.x1, r.y1, r.x2, r.y2}) {
      out += ',';
      out += std::to_string(v);
    }
    out += '\n';
  }
  return out;
}

}  // namespace oracle

// Builds mutated CSV texts from a seeded stream: rows of 2 to 6 fields drawn
// from valid and edge-case integers, with whitespace spliced anywhere, CRLF
// endings, comments, blank and space-only lines, header-like lines and a
// small id range so that duplicate, unknown and missing users all occur.
class CsvCorpus {
 public:
  explicit CsvCorpus(uint64_t seed) : rng_(seed) {}

  std::string Next(size_t fields) {
    std::string text;
    const size_t lines = rng_.NextBounded(7);
    for (size_t i = 0; i < lines; ++i) {
      text += Line(fields);
      text += Pick<const char*>({"\n", "\n", "\n", "\r\n", "\r\r\n"});
    }
    // Sometimes no final newline.
    if (rng_.NextBounded(3) == 0) text += Line(fields);
    return text;
  }

 private:
  template <typename T>
  T Pick(std::initializer_list<T> options) {
    return options.begin()[rng_.NextBounded(options.size())];
  }

  std::string Field() {
    switch (rng_.NextBounded(4)) {
      case 0:
        return std::to_string(rng_.NextInRange(-3, 8));  // ids collide
      case 1:
        return std::to_string(static_cast<int64_t>(rng_.Next()));
      default:
        return Pick<const char*>(
            {"+1", "-1", "+-1", "--1", "-+1", "+", "-", "", "007", "-0012",
             "+0", "-0", "0x10", "1e3", "12a", "a12", "9223372036854775807",
             "9223372036854775808", "-9223372036854775808",
             "-9223372036854775809", "+9223372036854775807",
             "+9223372036854775808", "000000000000000000000000000042",
             "userid", "locx", "x1", "#3"});
    }
  }

  std::string Line(size_t fields) {
    switch (rng_.NextBounded(12)) {
      case 0:
        return Pick<const char*>({"# comment", "#", "", "   ", "\t", "\r",
                                  " # not a comment", "#1,2,3"});
      case 1:
        return fields == 3 ? "userid,locx,locy" : "userid,x1,y1,x2,y2";
      case 2:
        return Pick<const char*>({"id", "user id,x,y", ",,", ",,,,"});
      default:
        break;
    }
    size_t count = fields;
    if (rng_.NextBounded(6) == 0) count = 2 + rng_.NextBounded(5);
    std::string line;
    for (size_t f = 0; f < count; ++f) {
      if (f > 0) line += ',';
      line += Field();
    }
    // Splice whitespace (and the odd NUL) in anywhere.
    const size_t spliced = rng_.NextBounded(4) == 0 ? 1 + rng_.NextBounded(3)
                                                    : 0;
    for (size_t i = 0; i < spliced; ++i) {
      const size_t at = rng_.NextBounded(line.size() + 1);
      line.insert(at, 1, Pick<char>({' ', '\t', '\v', '\f', '\r', '\0'}));
    }
    return line;
  }

  Rng rng_;
};

void ExpectSameStatus(const Status& want, const Status& got,
                      const std::string& text) {
  EXPECT_EQ(want.ok(), got.ok()) << testing::PrintToString(text);
  EXPECT_EQ(want.code(), got.code()) << testing::PrintToString(text);
  EXPECT_EQ(want.message(), got.message()) << testing::PrintToString(text);
}

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

// Rows are added a block at a time, after later lines are parsed; errors
// must still name the first bad line.
TEST(CsvTest, ReportsTheFirstBadLineAcrossBlocks) {
  const auto rows = [](int n) {
    std::string text = "userid,locx,locy\n";
    for (int i = 0; i < n; ++i) {
      text += std::to_string(i) + "," + std::to_string(i) + ",0\n";
    }
    return text;
  };
  // 100 rows span several blocks and all arrive, in order.
  Result<LocationDatabase> parsed = ParseLocationDatabaseCsv(rows(100));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(parsed->row(i).user, static_cast<UserId>(i));
    EXPECT_EQ(*parsed->IndexOf(static_cast<UserId>(i)), i);
  }
  const auto error = [](const std::string& text) {
    return ParseLocationDatabaseCsv(text).status().ToString();
  };
  // A repeat of user 5 on line 72 (header + 70 rows), far from the first.
  EXPECT_NE(error(rows(70) + "5,9,9\n").find("line 72: duplicate user id 5"),
            std::string::npos);
  // A duplicate still waiting in its block outranks a later malformed line.
  EXPECT_NE(error(rows(40) + "7,1,1\nnot,a,row\n").find(
                "line 42: duplicate user id 7"),
            std::string::npos);
  EXPECT_NE(error("1,0,0\n1,1,1\n2,x\n").find("line 2: duplicate user id 1"),
            std::string::npos);
  // A malformed line before the duplicate is the one reported.
  EXPECT_NE(error(rows(40) + "8,1\n7,1,1\n").find("line 42: expected 3"),
            std::string::npos);
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

TEST(CsvDifferentialTest, LocationsMatchTheReferenceParser) {
  CsvCorpus corpus(20240601);
  for (int i = 0; i < 20000; ++i) {
    const std::string text = corpus.Next(3);
    const Result<LocationDatabase> want = oracle::ParseLocations(text);
    const Result<LocationDatabase> got = ParseLocationDatabaseCsv(text);
    ExpectSameStatus(want.status(), got.status(), text);
    if (want.ok() && got.ok()) {
      EXPECT_EQ(want->rows(), got->rows()) << testing::PrintToString(text);
    }
    if (HasFailure()) break;
  }
}

TEST(CsvDifferentialTest, CloakingsMatchTheReferenceParser) {
  // Users -1..3: the corpus ids span -3..8, so unknown and missing users
  // and repeated rows all occur.
  LocationDatabase db;
  for (UserId user = -1; user <= 3; ++user) db.Add(user, Point{user, user});
  CsvCorpus corpus(20240602);
  for (int i = 0; i < 20000; ++i) {
    std::string text = corpus.Next(5);
    // Cover every user half the time, so that some inputs parse.
    if (i % 2 == 0) {
      for (UserId user = -1; user <= 3; ++user) {
        text = std::to_string(user) + ",0,0,4,4\n" + text;
      }
    }
    const Result<CloakingTable> want = oracle::ParseCloakings(text, db);
    const Result<CloakingTable> got = ParseCloakingCsv(text, db);
    ExpectSameStatus(want.status(), got.status(), text);
    if (want.ok() && got.ok()) {
      for (size_t row = 0; row < db.size(); ++row) {
        EXPECT_EQ(want->cloak(row), got->cloak(row))
            << testing::PrintToString(text);
      }
    }
    if (HasFailure()) break;
  }
}

TEST(CsvDifferentialTest, FormatsMatchToString) {
  Rng rng(7);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  LocationDatabase db;
  db.Add(kMin, Point{kMax, kMin});
  db.Add(kMax, Point{0, -1});
  db.Add(0, Point{kMin, kMax});
  while (db.size() < 2000) {
    const auto value = [&] {
      return rng.NextBounded(2) == 0 ? static_cast<int64_t>(rng.Next())
                                     : rng.NextInRange(-100000, 100000);
    };
    db.Add(value(), Point{value(), value()});
  }
  CloakingTable table(db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    table.Assign(i, Rect{static_cast<Coord>(rng.Next()), -static_cast<Coord>(i),
                         kMax, kMin});
  }
  EXPECT_EQ(FormatLocationDatabaseCsv(db), oracle::FormatLocations(db));
  EXPECT_EQ(FormatCloakingCsv(db, table), oracle::FormatCloakings(db, table));
  const LocationDatabase empty;
  EXPECT_EQ(FormatLocationDatabaseCsv(empty), oracle::FormatLocations(empty));
}

TEST(CsvTest, LargeFileReportsTheMalformedLastLine) {
  Rng rng(3);
  LocationDatabase db;
  for (UserId user = 0; user < 100000; ++user) {
    db.Add(user,
           Point{rng.NextInRange(0, 1 << 20), rng.NextInRange(0, 1 << 20)});
  }
  const std::string path = ::testing::TempDir() + "/pasa_io_test_large.csv";
  ASSERT_TRUE(SaveLocationDatabaseCsv(db, path).ok());
  Result<LocationDatabase> loaded = LoadLocationDatabaseCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->rows(), db.rows());

  // The header is line 1 and the rows lines 2..100001, so a bad last row
  // without a final newline is line 100002.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("100000,5,5x", f);
    std::fclose(f);
  }
  const Status s = LoadLocationDatabaseCsv(path).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 100002: malformed integer");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFile) {
  EXPECT_EQ(LoadLocationDatabaseCsv("/no/such/file.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, DirectoryIsUnreadable) {
  EXPECT_EQ(LoadLocationDatabaseCsv(::testing::TempDir()).status().code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace pasa
