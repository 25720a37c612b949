// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The registry is the always-on half of the telemetry layer (the tracer
// in trace.hpp is the opt-in half). Instruments are registered once by
// name — registration takes a mutex — and the returned references stay
// valid for the life of the process, so hot paths cache them and pay
// only a relaxed atomic op per update:
//
//   static obs::Counter& steps =
//       obs::MetricsRegistry::instance().counter("train.steps");
//   steps.add(1);
//
// A snapshot of every instrument can be dumped as JSON-lines
// (`MetricsRegistry::dump_jsonl`), one object per line, so bench runs
// emit machine-readable artifacts next to their stdout tables. Setting
// DMIS_METRICS=<path> dumps the registry there automatically at process
// exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dmis::obs {

/// Monotonic counter. add() is a single relaxed fetch_add.
class Counter {
 public:
  void add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Last-value-wins gauge (e.g. queue depth, current lr).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts observations <= bounds[i];
/// one implicit overflow bucket counts the rest. observe() is a handful
/// of relaxed atomic ops (bucket increment, count, sum) — no locks.
/// Constructible standalone (bench-local latency tracking); register
/// through MetricsRegistry to have it exported.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);

  void observe(double v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Upper bounds, one per finite bucket (ascending).
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in finite bucket i (i < bounds().size()) or the overflow
  /// bucket (i == bounds().size()).
  int64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// q-quantile estimate (q in [0, 1]) from the bucket counts: finds
  /// the bucket holding the target observation and interpolates
  /// linearly inside it — the same estimator Prometheus's
  /// histogram_quantile() applies to the exported buckets. Returns 0
  /// on an empty histogram; observations in the overflow bucket clamp
  /// to the last bound.
  double quantile(double q) const;

  /// The same estimate from snapshot data — the shared p50/p99 helper
  /// used by the /metrics exporter, dmis_top and the benches.
  /// `buckets` are per-bucket (non-cumulative) counts with
  /// bounds.size() + 1 entries (overflow last).
  static double quantile_from(const std::vector<double>& bounds,
                              const std::vector<int64_t>& buckets, double q);

 private:
  friend class MetricsRegistry;
  void reset();

  std::string name_;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class RollingHistogram;

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    int64_t count = 0;
    double sum = 0.0;
    std::vector<double> bounds;
    std::vector<int64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  };
  struct RollingHistogramValue {
    std::string name;
    int64_t windowed_count = 0;
    double rate_per_sec = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
  std::vector<RollingHistogramValue> rolling_histograms;
};

/// Default histogram bounds: exponential microsecond-ish ladder.
std::vector<double> default_duration_bounds();

class MetricsRegistry {
 public:
  /// Process-wide registry. Never destroyed, so references returned by
  /// counter()/gauge()/histogram() are valid until process exit.
  static MetricsRegistry& instance();

  /// Returns the counter registered under `name`, creating it on first
  /// use. Names are dot-separated lowercase paths ("comm.allreduce_bytes").
  Counter& counter(const std::string& name);

  Gauge& gauge(const std::string& name);

  /// Returns the histogram under `name`; `bounds` (ascending upper
  /// limits) applies only on first registration and is ignored — not an
  /// error — on later lookups.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = default_duration_bounds());

  /// Rolling (fixed-window) histogram — see obs/rolling.hpp. As with
  /// histogram(), the bounds/window parameters apply only on first
  /// registration.
  RollingHistogram& rolling_histogram(
      const std::string& name,
      std::vector<double> bounds = default_duration_bounds(),
      int64_t window_us = 60'000'000);

  MetricsSnapshot snapshot() const;

  /// Writes one JSON object per instrument, one per line:
  ///   {"type":"counter","name":"train.steps","value":123}
  ///   {"type":"histogram","name":"...","count":N,"sum":S,
  ///    "buckets":[{"le":1.0,"count":3},...,{"le":"inf","count":0}]}
  void dump_jsonl(std::ostream& os) const;
  void dump_jsonl(const std::string& path) const;

  /// Zeroes every instrument's value. Registrations (and therefore any
  /// cached references) survive — intended for test isolation.
  void reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<RollingHistogram>> rolling_histograms_;
};

/// Dumps the registry to the DMIS_METRICS path, at most once per
/// process no matter how many callers race (atexit, SIGINT/SIGTERM,
/// flight recorder). Returns true if this call performed the dump,
/// false if it already happened or DMIS_METRICS is unset. Not
/// async-signal-safe — signal handlers must defer to a thread.
bool dump_metrics_to_env_path_once();

}  // namespace dmis::obs
