#include "io/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <string_view>
#include <vector>

#include "common/file.h"
#include "common/flat_index.h"
#include "obs/trace.h"

namespace pasa {
namespace {

// Parses a base-10 int64: an optional '+' or '-', then digits, and nothing
// else.
bool ParseInt(std::string_view s, int64_t* out) {
  const char* begin = s.data();
  const char* const end = begin + s.size();
  if (begin != end && *begin == '+') {
    ++begin;  // from_chars takes no '+', and "+-1" stays malformed
    if (begin != end && *begin == '-') return false;
  }
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

// Parses one field, dropping whitespace anywhere in it. A field that parses
// as it stands holds no whitespace; only one that does not is squeezed into
// `scratch` (reused across rows) and parsed again.
bool ParseField(std::string_view field, int64_t* out, std::string* scratch) {
  if (ParseInt(field, out)) return true;
  scratch->clear();
  for (const char c : field) {
    if (!std::isspace(static_cast<unsigned char>(c))) scratch->push_back(c);
  }
  return ParseInt(*scratch, out);
}

std::string LinePrefix(size_t line_number) {
  return "line " + std::to_string(line_number) + ": ";
}

// The row scanner both formats share. Walks the lines of `text` (found with
// memchr; a last line without '\n' counts), strips one trailing '\r', skips
// blank lines, lines starting with '#' and a header (a first data line whose
// first field is not an integer), and holds each line's fields as spans into
// `text`. Every data line must have N integer fields; `handle(line_number,
// values)` sees them parsed and may stop the scan with an error.
template <size_t N, typename Handler>
Status ScanRows(std::string_view text, Handler&& handle) {
  const char* p = text.data();
  const char* const end = p + text.size();
  std::string scratch;
  size_t line_number = 0;
  bool first_data_line = true;
  while (p != end) {
    const char* newline =
        static_cast<const char*>(std::memchr(p, '\n', end - p));
    const char* line_end = newline != nullptr ? newline : end;
    const char* const next = newline != nullptr ? newline + 1 : end;
    ++line_number;
    if (line_end != p && line_end[-1] == '\r') --line_end;
    if (line_end == p || *p == '#') {
      p = next;
      continue;
    }
    std::string_view fields[N];
    size_t count = 0;
    for (const char* field = p;;) {
      const char* comma = field;
      while (comma != line_end && *comma != ',') ++comma;
      if (count < N) fields[count] = std::string_view(field, comma - field);
      ++count;
      if (comma == line_end) break;
      field = comma + 1;
    }
    int64_t values[N];
    if (first_data_line) {
      first_data_line = false;
      if (!ParseField(fields[0], &values[0], &scratch)) {
        p = next;
        continue;  // header row
      }
    }
    if (count != N) {
      return Status::InvalidArgument(
          LinePrefix(line_number) + "expected " + std::to_string(N) +
          " fields, got " + std::to_string(count));
    }
    for (size_t f = 0; f < N; ++f) {
      if (!ParseField(fields[f], &values[f], &scratch)) {
        return Status::InvalidArgument(LinePrefix(line_number) +
                                       "malformed integer");
      }
    }
    Status s = handle(line_number, values);
    if (!s.ok()) return s;
    p = next;
  }
  return Status::Ok();
}

// Appends `values` as one comma-separated line.
template <size_t N>
void AppendRow(std::string* out, const int64_t (&values)[N]) {
  char line[N * 21];  // 20 characters for INT64_MIN, plus ',' or '\n'
  char* p = line;
  for (size_t f = 0; f < N; ++f) {
    p = std::to_chars(p, line + sizeof(line), values[f]).ptr;
    *p++ = f + 1 < N ? ',' : '\n';
  }
  out->append(line, p);
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  out << contents;
  return out.good() ? Status::Ok()
                    : Status::Internal("short write to " + path);
}

}  // namespace

Result<LocationDatabase> ParseLocationDatabaseCsv(const std::string& text) {
  // Every row is a line, and a last line need not end in '\n'.
  const size_t lines = static_cast<size_t>(
      std::count(text.begin(), text.end(), '\n') +
      (!text.empty() && text.back() != '\n'));
  if (!ItemCountFits(lines)) {
    return Status::InvalidArgument(
        std::to_string(lines) + " lines: a snapshot holds at most " +
        std::to_string(kMaxItems) + " rows");
  }
  LocationDatabase db;
  db.Reserve(lines);
  // Rows wait in blocks of kBlock before they are added, so each row's
  // index slot is fetched while the rows after it are parsed: at 10^6 rows
  // the index outgrows the caches and every Add would otherwise stall on
  // a miss.
  constexpr size_t kBlock = 32;
  struct Parsed {
    size_t line;
    UserLocation row;
  };
  std::vector<Parsed> block;
  block.reserve(kBlock);
  Status duplicate;
  const auto add_block = [&] {
    for (const Parsed& p : block) {
      if (!db.Add(p.row.user, p.row.location)) {
        duplicate = Status::InvalidArgument(LinePrefix(p.line) +
                                            "duplicate user id " +
                                            std::to_string(p.row.user));
        break;
      }
    }
    block.clear();
    return duplicate;
  };
  const Status s = ScanRows<3>(text, [&](size_t line, const int64_t(&v)[3]) {
    db.Prefetch(v[0]);
    block.push_back(Parsed{line, UserLocation{v[0], Point{v[1], v[2]}}});
    return block.size() == kBlock ? add_block() : Status::Ok();
  });
  // The rows still waiting precede the line a malformed-input error names.
  if (duplicate.ok()) add_block();
  if (!duplicate.ok()) return duplicate;
  if (!s.ok()) return s;
  return db;
}

std::string FormatLocationDatabaseCsv(const LocationDatabase& db) {
  std::string out = "userid,locx,locy\n";
  out.reserve(out.size() + db.size() * 24);  // ~7 digits a field
  for (const UserLocation& row : db.rows()) {
    AppendRow(&out, {row.user, row.location.x, row.location.y});
  }
  return out;
}

std::string FormatCloakingCsv(const LocationDatabase& db,
                              const CloakingTable& table) {
  std::string out = "userid,x1,y1,x2,y2\n";
  out.reserve(out.size() + db.size() * 40);  // ~7 digits a field
  for (size_t i = 0; i < db.size(); ++i) {
    const Rect& r = table.cloak(i);
    AppendRow(&out, {db.row(i).user, r.x1, r.y1, r.x2, r.y2});
  }
  return out;
}

Result<CloakingTable> ParseCloakingCsv(const std::string& text,
                                       const LocationDatabase& db) {
  CloakingTable table(db.size());
  std::vector<bool> seen(db.size(), false);
  Status s = ScanRows<5>(text, [&](size_t line, const int64_t(&v)[5]) {
    const Result<size_t> row = db.IndexOf(v[0]);
    if (!row.ok()) {
      return Status::InvalidArgument(LinePrefix(line) + "unknown user " +
                                     std::to_string(v[0]));
    }
    table.Assign(*row, Rect{v[1], v[2], v[3], v[4]});
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
  obs::ScopedSpan span("load_csv", obs::ScopedSpan::kRoot);
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseLocationDatabaseCsv(*text);
}

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
  Result<std::string> text = ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseCloakingCsv(*text, db);
}

}  // namespace pasa
