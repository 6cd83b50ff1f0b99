#include "common/tree_path.h"

namespace pasa {

std::string TreePath::ToString() const {
  if (!known()) return "";
  std::string out = "r";
  for (int i = depth() - 1; i >= 0; --i) {
    out += '.';
    out += ((code_ >> i) & 1) != 0 ? '1' : '0';
  }
  return out;
}

Result<TreePath> TreePath::Parse(std::string_view text) {
  if (text.empty()) return TreePath();
  const auto malformed = [text] {
    return Status::InvalidArgument("malformed tree_path '" +
                                   std::string(text) + "'");
  };
  if (text[0] != 'r' || text.size() % 2 == 0 ||
      text.size() > 1 + 2 * static_cast<size_t>(kMaxDepth)) {
    return malformed();
  }
  uint64_t turns = 0;
  for (size_t i = 1; i < text.size(); i += 2) {
    if (text[i] != '.' || (text[i + 1] != '0' && text[i + 1] != '1')) {
      return malformed();
    }
    turns = turns << 1 | static_cast<uint64_t>(text[i + 1] - '0');
  }
  return FromTurns(turns, static_cast<int>(text.size() / 2));
}

}  // namespace pasa
