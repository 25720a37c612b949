#include "common/knobs.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <sstream>

#include "common/json.hpp"

namespace dmis {
namespace {

using enum KnobType;

// Name, type, default, doc, bootstrap, then accepted words or range.
// The README's Configuration table says more about each.
constexpr KnobSpec kRegistry[] = {
    {"DMIS_KERNEL", kEnum, "gemm", "Conv backend.", false, "naive|gemm"},
    {"DMIS_LOG_LEVEL", kEnum, "INFO", "Lowest level logged.", true,
     "TRACE|DEBUG|INFO|WARN|ERROR|OFF"},
    {"DMIS_METRICS", kPath, "", "Metrics JSONL dump at exit.", true},
    {"DMIS_TRACE", kPath, "", "Chrome trace JSON at exit.", true},
    {"DMIS_TRACE_BUFFER", kInt, "65536", "Trace events/thread.", true, "", 1},
    {"DMIS_OBS_PORT", kInt, "", "Telemetry port.", true, "", 0, 65535},
    {"DMIS_OBS_LINGER_MS", kInt, "0", "Exporter uptime after exit.", true},
    {"DMIS_FLIGHT_DIR", kPath, "", "Flight recorder dump dir.", true},
    {"DMIS_SERVE_WORKERS", kInt, "2", "Worker threads.", false, "", 1,
     INT32_MAX},
    {"DMIS_SERVE_QUEUE", kInt, "16", "Serve queue capacity.", false, "", 1},
    {"DMIS_SERVE_DEADLINE_MS", kInt, "0", "Default request deadline."},
    {"DMIS_SERVE_VOXEL_BUDGET", kInt, "0", "Voxels before tiling."},
    {"DMIS_STRAGGLER_FACTOR", kPositiveDouble, "2.0", "Straggler p50 ratio.",
     false, "", 1},
    {"DMIS_BUCKET_BYTES", kBytes, "1048576", "Gradient bucket cap."},
    {"DMIS_ELASTIC", kBool, "0", "Shrink past a lost rank.", false, "0|1"},
    {"DMIS_ELASTIC_GROW", kBool, "0", "Re-admit ranks.", false, "0|1"},
    {"DMIS_COMM_TIMEOUT_MS", kInt, "0", "Per-collective deadline."},
    {"DMIS_COMM_LEASE_MS", kInt, "2000", "Membership lease.", false, "", 1},
    {"DMIS_COMM_ALGO", kEnum, "ring", "All-reduce schedule.", false,
     "ring|tree|hier|auto"},
    {"DMIS_COMM_RANKS_PER_NODE", kInt, "0", "Logical node size.", false, "",
     0, INT32_MAX},
    {"DMIS_COMPRESS", kEnum, "none", "Gradient codec.", false,
     "none|fp16|topk"},
    {"DMIS_TOPK_RATIO", kPositiveDouble, "0.01", "Top-k fraction.", false,
     "", 0, 1},
    {"DMIS_COMM_CALIB", kBool, "1", "Calibrate the tuner.", false, "0|1"},
    {"DMIS_COMM_SYNC_US", kPositiveDouble, "", "Pin tuner latency (us)."},
    {"DMIS_COMM_REDUCE_GBS", kPositiveDouble, "", "Pin reduce GB/s."},
    {"DMIS_COMM_COPY_GBS", kPositiveDouble, "", "Pin copy GB/s."},
    {"DMIS_COMM_FP16_PACK_GBS", kPositiveDouble, "", "Pin fp16 pack GB/s."},
    {"DMIS_COMM_FP16_REDUCE_GBS", kPositiveDouble, "", "Pin fp16 add GB/s."},
};
static_assert(std::size(kRegistry) ==
              static_cast<size_t>(Knob::kCommFp16ReduceGbs) + 1);

[[noreturn]] void reject(Knob knob, std::string_view text) {
  std::ostringstream os;
  os << knobs::spec(knob).name << " must be " << knobs::accepted(knob)
     << ", got '" << text << "'";
  throw InvalidArgument(os.str());
}

// The only getenv of a DMIS_* name.
std::optional<std::string> raw_env(Knob knob) {
  const char* env = std::getenv(std::string(knobs::spec(knob).name).c_str());
  if (env == nullptr || *env == '\0') return std::nullopt;
  return env;
}

}  // namespace

namespace knobs {

std::span<const KnobSpec> registry() { return kRegistry; }

std::string accepted(Knob knob) {
  const KnobSpec& s = spec(knob);
  if (!s.choices.empty()) return "one of " + std::string(s.choices);
  if (s.type == kPath) return "a path";
  const bool real = s.type == kPositiveDouble;
  std::ostringstream os;
  os << (real ? "a number" : s.type == kInt ? "an integer" : "a byte count");
  if (s.max == INT64_MAX) {
    os << (real ? " > " : " >= ") << s.min;
  } else {
    os << " in " << (real ? '(' : '[') << s.min << ", " << s.max << ']';
  }
  return os.str();
}

void check(Knob knob, std::string_view text) {
  if (spec(knob).type == kPositiveDouble) {
    (void)parse_real(knob, text);
  } else if (spec(knob).type != kPath) {
    (void)parse_integer(knob, text);
  }
}

int64_t parse_integer(Knob knob, std::string_view text) {
  const KnobSpec& s = spec(knob);
  if (!s.choices.empty()) {
    std::string_view rest = s.choices;
    for (int64_t index = 0;; ++index) {
      const size_t bar = rest.find('|');
      if (rest.substr(0, bar) == text) return index;
      if (bar == std::string_view::npos) reject(knob, text);
      rest.remove_prefix(bar + 1);
    }
  }
  DMIS_ASSERT(s.type == kInt || s.type == kBytes, s.name);
  int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < s.min || v > s.max) {
    reject(knob, text);
  }
  return v;
}

double parse_real(Knob knob, std::string_view text) {
  const KnobSpec& s = spec(knob);
  DMIS_ASSERT(s.type == kPositiveDouble, s.name);
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) ||
      !(v > static_cast<double>(s.min)) ||
      (s.max != INT64_MAX && v > static_cast<double>(s.max))) {
    reject(knob, text);
  }
  return v;
}

std::optional<std::string> env_value(Knob knob) {
  std::optional<std::string> text = raw_env(knob);
  try {
    if (text.has_value()) check(knob, *text);
  } catch (const InvalidArgument& e) {
    if (!spec(knob).bootstrap) throw;
    std::fprintf(stderr, "dmis: %s; keeping the default\n", e.what());
    return std::nullopt;
  }
  return text;
}

std::string config_json() {
  std::ostringstream os;
  for (const KnobSpec& s : kRegistry) {
    const Knob knob = static_cast<Knob>(&s - kRegistry);
    std::optional<std::string> env = raw_env(knob);
    try {
      if (env.has_value()) check(knob, *env);
    } catch (const InvalidArgument&) {
      env.reset();  // a rejected value is not in effect
    }
    const std::string_view value = env ? *env : s.default_text;
    os << (&s == kRegistry ? "{\"" : ",\"") << s.name << "\":{\"value\":";
    if (value.empty()) {
      os << "null";
    } else {
      os << '"';
      json_escape(os, value);
      os << '"';
    }
    os << ",\"source\":\"" << (env ? "env" : "default") << "\"}";
  }
  os << '}';
  return os.str();
}

}  // namespace knobs
}  // namespace dmis
