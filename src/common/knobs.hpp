// The run-time configuration registry: every DMIS_* knob in one table,
// one parser per type, one rule: env > configured > default (an empty
// variable counts as unset). A value a knob does not accept throws
// InvalidArgument naming it; bootstrap knobs, read before main, print
// that message to stderr instead and keep the default. DESIGN.md §13.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"

namespace dmis {

enum class Knob : int {
  kKernel, kLogLevel, kMetrics, kTrace, kTraceBuffer, kObsPort,
  kObsLingerMs, kFlightDir, kServeWorkers, kServeQueue, kServeDeadlineMs,
  kServeVoxelBudget, kStragglerFactor, kBucketBytes, kElastic, kElasticGrow,
  kCommTimeoutMs, kCommLeaseMs, kCommAlgo, kCommRanksPerNode, kCompress,
  kTopkRatio, kCommCalib, kCommSyncUs, kCommReduceGbs, kCommCopyGbs,
  kCommFp16PackGbs, kCommFp16ReduceGbs,
};

/// kInt and kBytes: decimal in [min, max]; kPositiveDouble: finite, in
/// (min, max]; kBool and kEnum: one of `choices`; kPath: any text.
enum class KnobType { kInt, kBytes, kPositiveDouble, kBool, kEnum, kPath };

struct KnobSpec {
  std::string_view name;
  KnobType type;
  std::string_view default_text;  ///< As the env spells it; "" = unset.
  std::string_view doc;
  bool bootstrap = false;
  /// '|'-separated words; word i is enumerator i of the C++ enum.
  std::string_view choices = {};
  int64_t min = 0;
  int64_t max = std::numeric_limits<int64_t>::max();  ///< = unbounded
};

namespace knobs {

/// The whole table, in Knob order.
std::span<const KnobSpec> registry();
inline const KnobSpec& spec(Knob knob) {
  return registry()[static_cast<size_t>(knob)];
}

/// What `knob` accepts ("an integer in [0, 65535]", "one of ring|tree").
std::string accepted(Knob knob);

/// Throws InvalidArgument "<NAME> must be <accepted>, got '<text>'"
/// unless `knob` accepts `text`.
void check(Knob knob, std::string_view text);

/// The environment's checked text for `knob`; nullopt when unset, empty
/// or (bootstrap knobs only) rejected.
std::optional<std::string> env_value(Knob knob);

/// Every knob's effective value and its source ("env" or "default") as
/// one JSON object.
std::string config_json();

/// The parsers behind parse(): a number, or the index of a word.
int64_t parse_integer(Knob knob, std::string_view text);
double parse_real(Knob knob, std::string_view text);

/// `text` as `knob`'s value in T: an integer type, bool, double, the C++
/// enum of a kEnum knob, or std::string for a path.
template <class T>
T parse(Knob knob, std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(text);
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(parse_real(knob, text));
  } else {
    return static_cast<T>(parse_integer(knob, text));
  }
}

/// env > `configured` > default; nullopt when all three are unset.
template <class T>
std::optional<T> find(Knob knob, std::optional<T> configured = std::nullopt) {
  const std::optional<std::string> env = env_value(knob);
  if (!env && configured) return configured;
  const std::string_view text = env ? *env : spec(knob).default_text;
  if (text.empty()) return std::nullopt;
  return parse<T>(knob, text);
}

/// Option structs initialise their fields from this, so each default is
/// written once, in the table.
template <class T>
T default_value(Knob knob) {
  DMIS_ASSERT(!spec(knob).default_text.empty(), spec(knob).name);
  return parse<T>(knob, spec(knob).default_text);
}

/// find() for a knob that has a default or a configured value.
template <class T>
T get(Knob knob, std::optional<T> configured = std::nullopt) {
  return find<T>(knob, configured).value();
}

}  // namespace knobs
}  // namespace dmis
