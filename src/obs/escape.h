#ifndef MDE_OBS_ESCAPE_H_
#define MDE_OBS_ESCAPE_H_

#include <string>
#include <string_view>

namespace mde::obs {

/// String escapers shared by every obs writer (trace JSON, JSONL metrics,
/// /queryz, flight dumps, Prometheus text). Names and tags are identifiers
/// in practice, but no writer may emit a malformed document.

/// Appends `s` escaped for the body of a JSON string literal: quote and
/// backslash get a backslash, control bytes (< 0x20) become a space, every
/// other byte passes through.
void JsonEscapeInto(std::string_view s, std::string* out);

/// JsonEscapeInto into a fresh string, for stream writers.
std::string JsonEscape(std::string_view s);

/// Escapes a Prometheus label value per the text exposition grammar:
/// backslash and quote get a backslash, newline becomes "\n".
std::string EscapeLabelValue(std::string_view s);

}  // namespace mde::obs

#endif  // MDE_OBS_ESCAPE_H_
