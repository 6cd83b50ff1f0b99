#ifndef PASA_IO_CSV_H_
#define PASA_IO_CSV_H_

#include <string>

#include "common/status.h"
#include "model/cloaking.h"
#include "model/location_database.h"

namespace pasa {

/// CSV exchange formats, so downstream users can run the anonymizer on
/// their own traces and feed the cloakings to other tools.
///
/// Location databases:   userid,locx,locy            (header optional)
/// Cloakings:            userid,x1,y1,x2,y2          (half-open rects)

/// Parses a location database from CSV text (the grammar is spelled out in
/// README.md, "CSV formats"). Blank lines and lines starting with '#' are
/// skipped; a leading header row is detected and skipped. Returns
/// InvalidArgument with a line number on malformed input or on a user id
/// that an earlier row already used, and InvalidArgument before allocating
/// anything when the text has more lines than a snapshot may hold rows
/// (ItemCountFits).
Result<LocationDatabase> ParseLocationDatabaseCsv(const std::string& text);

/// Serializes a snapshot (with header).
std::string FormatLocationDatabaseCsv(const LocationDatabase& db);

/// Serializes a cloaking for a snapshot (with header).
std::string FormatCloakingCsv(const LocationDatabase& db,
                              const CloakingTable& table);

/// Parses a cloaking, matched to `db` row order by userid. Fails if a user
/// is missing or unknown.
Result<CloakingTable> ParseCloakingCsv(const std::string& text,
                                       const LocationDatabase& db);

/// File helpers.
Result<LocationDatabase> LoadLocationDatabaseCsv(const std::string& path);
Status SaveLocationDatabaseCsv(const LocationDatabase& db,
                               const std::string& path);
Status SaveCloakingCsv(const LocationDatabase& db, const CloakingTable& table,
                       const std::string& path);
Result<CloakingTable> LoadCloakingCsv(const std::string& path,
                                      const LocationDatabase& db);

}  // namespace pasa

#endif  // PASA_IO_CSV_H_
