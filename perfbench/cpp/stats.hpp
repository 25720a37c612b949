// The benchmark's own arithmetic: percentiles, open-loop latency,
// steal screening and schedule shares. Header-only so the self-test
// (selftest.cpp) checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Linear-interpolated q-quantile (q in [0, 1]) of `v`; 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A tail percentile together with the sample count behind it.
struct Tail {
  double q = 0.0;      ///< The percentile actually reported (e.g. 0.99).
  double value = 0.0;  ///< Its value.
  int64_t samples = 0;
};

/// The highest percentile, no higher than `want`, that has at least ten
/// samples beyond it: p99 needs 1000 samples, p90 needs 100. Falls back
/// through p95, p90, p75 to the median.
inline Tail supported_tail(const std::vector<double>& v, double want = 0.99) {
  static constexpr double kLadder[] = {0.999, 0.99, 0.95, 0.9, 0.75, 0.5};
  Tail t;
  t.samples = static_cast<int64_t>(v.size());
  for (double q : kLadder) {
    if (q > want) continue;
    t.q = q;
    if (static_cast<double>(v.size()) * (1.0 - q) >= 10.0 - 1e-9) break;
  }
  t.value = quantile(v, t.q);
  return t;
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its reply was observed (all in ms on one clock).
struct Request {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
};

/// Open-loop latency is timed from the due time, so a generator stall
/// counts against every request it delayed.
inline double latency_ms(const Request& r) { return r.done_ms - r.due_ms; }

/// How late the generator ran for this request.
inline double gen_lag_ms(const Request& r) { return r.sent_ms - r.due_ms; }

/// One timed unit of work and the share of the host's CPU time that the
/// hypervisor stole while it ran.
template <class T>
struct Stolen {
  T value{};
  double steal = 0.0;
};

/// Number of units with at most `max_steal` stolen.
template <class T>
size_t clean_count(const std::vector<Stolen<T>>& units, double max_steal) {
  return static_cast<size_t>(
      std::count_if(units.begin(), units.end(),
                    [&](const Stolen<T>& u) { return u.steal <= max_steal; }));
}

/// The values to measure from: every unit with at most `max_steal` stolen
/// or, when fewer than `min` are that clean, the `min` least-stolen ones
/// (all of them when there are fewer). Steal only ever adds time, so the
/// least-stolen units are the closest to what the program costs.
/// `set_aside` grows by the number of units left out.
template <class T>
std::vector<T> least_stolen(std::vector<Stolen<T>> units, double max_steal,
                            size_t min, int64_t& set_aside) {
  std::stable_sort(units.begin(), units.end(),
                   [](const Stolen<T>& a, const Stolen<T>& b) {
                     return a.steal < b.steal;
                   });
  const size_t keep = std::min(
      units.size(), std::max(clean_count(units, max_steal), min));
  set_aside += static_cast<int64_t>(units.size() - keep);
  std::vector<T> out;
  for (size_t i = 0; i < keep; ++i) out.push_back(units[i].value);
  return out;
}

/// Share of in-collective time spent waiting for peers: 1 - transfer /
/// sync wait, where `transfer_ms` is the same collective timed with all
/// ranks released together. Clamped to [0, 1]; 0 when nothing waited.
inline double peer_wait_share(double transfer_ms, double sync_wait_ms) {
  if (sync_wait_ms <= 0.0) return 0.0;
  return std::clamp(1.0 - transfer_ms / sync_wait_ms, 0.0, 1.0);
}

/// A busy interval of one slot (seconds on any common clock).
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Share of slot-time left idle between `t0` and `t1` when `slots`
/// slots ran the given busy intervals: 1 - busy / (slots * (t1 - t0)).
inline double slot_idle_share(const std::vector<Interval>& busy, int slots,
                              double t0, double t1) {
  const double capacity = static_cast<double>(slots) * (t1 - t0);
  if (capacity <= 0.0) return 0.0;
  double used = 0.0;
  for (const Interval& b : busy) {
    used += std::max(0.0, std::min(b.end, t1) - std::max(b.start, t0));
  }
  return std::clamp(1.0 - used / capacity, 0.0, 1.0);
}

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
