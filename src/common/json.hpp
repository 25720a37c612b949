// JSON string escaping, shared by the telemetry exporters and the knob
// registry.
#pragma once

#include <ostream>
#include <string_view>

namespace dmis {

inline void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
}

}  // namespace dmis
