#ifndef PASA_COMMON_FILE_H_
#define PASA_COMMON_FILE_H_

#include <string>

#include "common/status.h"

namespace pasa {

/// Reads the whole file at `path`. NotFound when it cannot be opened;
/// Internal when it opens but cannot be read (a directory, an I/O error),
/// so an unreadable input is never taken for an empty one.
Result<std::string> ReadFile(const std::string& path);

}  // namespace pasa

#endif  // PASA_COMMON_FILE_H_
