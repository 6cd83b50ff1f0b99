#include "io/csv.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

namespace pasa {
namespace {

// Splits a CSV line into trimmed fields (no quoting: the formats here are
// purely numeric plus a header).
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

// Iterates data lines of `text`, skipping blanks, comments and a header.
// Calls `handle(line_number, fields)`; stops early on error.
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
      if (!fields.empty() && !ParseInt(fields[0], &probe)) {
        continue;  // header row
      }
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

}  // namespace

Result<LocationDatabase> ParseLocationDatabaseCsv(const std::string& text) {
  LocationDatabase db;
  db.Reserve(static_cast<size_t>(std::count(text.begin(), text.end(), '\n')));
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

std::string FormatLocationDatabaseCsv(const LocationDatabase& db) {
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

std::string FormatCloakingCsv(const LocationDatabase& db,
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

Result<CloakingTable> ParseCloakingCsv(const std::string& text,
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
          return Status::InvalidArgument(
              "line " + std::to_string(line) + ": unknown user " +
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

Result<LocationDatabase> LoadLocationDatabaseCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseLocationDatabaseCsv(buffer.str());
}

namespace {
Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << contents;
  return out.good() ? Status::Ok()
                    : Status::Internal("short write to " + path);
}
}  // namespace

Status SaveLocationDatabaseCsv(const LocationDatabase& db,
                               const std::string& path) {
  return WriteFile(path, FormatLocationDatabaseCsv(db));
}

Status SaveCloakingCsv(const LocationDatabase& db, const CloakingTable& table,
                       const std::string& path) {
  return WriteFile(path, FormatCloakingCsv(db, table));
}

Result<CloakingTable> LoadCloakingCsv(const std::string& path,
                                      const LocationDatabase& db) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCloakingCsv(buffer.str(), db);
}

}  // namespace pasa
