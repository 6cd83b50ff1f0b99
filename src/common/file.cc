#include "common/file.h"

#include <sys/stat.h>

#include <cstdio>
#include <memory>

namespace pasa {
namespace {

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

}  // namespace

// One read sized by the file (a pipe, or a file that grows meanwhile, is
// read on until end of file).
Result<std::string> ReadFile(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return Status::NotFound("cannot open " + path);
  struct stat st {};
  const size_t size = ::fstat(::fileno(file.get()), &st) == 0 && st.st_size > 0
                          ? static_cast<size_t>(st.st_size)
                          : 0;
  // One byte past the size, so that the read that meets end of file
  // needs no growth.
  std::string contents(size + 1, '\0');
  size_t filled = 0;
  for (;;) {
    filled += std::fread(contents.data() + filled, 1,
                         contents.size() - filled, file.get());
    if (filled < contents.size()) break;  // end of file or error
    contents.resize(2 * contents.size());
  }
  if (std::ferror(file.get())) {
    return Status::Internal("cannot read " + path);
  }
  contents.resize(filled);
  return contents;
}

}  // namespace pasa
