#include "obs/escape.h"

namespace mde::obs {

void JsonEscapeInto(std::string_view s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  JsonEscapeInto(s, &out);
  return out;
}

std::string EscapeLabelValue(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace mde::obs
