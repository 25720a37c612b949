#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <ostream>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/knobs.hpp"
#include "obs/rolling.hpp"

namespace dmis::obs {
namespace {

/// CAS add — atomic<double>::fetch_add is C++20 but spotty across
/// toolchains; the loop is equivalent under contention this light.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

std::vector<double> default_duration_bounds() {
  // Microsecond ladder: 10us .. 10s in half-decade steps.
  return {10,     30,     100,     300,     1e3,     3e3,     1e4,
          3e4,    1e5,    3e5,     1e6,     3e6,     1e7};
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  DMIS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
             "histogram '" << name_ << "' bounds must be ascending");
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t idx = static_cast<size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
}

double Histogram::quantile(double q) const {
  std::vector<int64_t> buckets;
  buckets.reserve(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets.push_back(bucket_count(i));
  }
  return quantile_from(bounds_, buckets, q);
}

double Histogram::quantile_from(const std::vector<double>& bounds,
                                const std::vector<int64_t>& buckets,
                                double q) {
  DMIS_CHECK(q >= 0.0 && q <= 1.0, "quantile q must be in [0, 1], got " << q);
  DMIS_CHECK(buckets.size() == bounds.size() + 1,
             "quantile_from: " << buckets.size() << " buckets for "
                               << bounds.size() << " bounds");
  int64_t total = 0;
  for (const int64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  // Rank of the target observation (1-based), then walk the cumulative
  // counts to the bucket containing it.
  const double rank = q * static_cast<double>(total);
  int64_t cum = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const int64_t in_bucket = buckets[i];
    // Empty buckets can't contain the target rank; skipping them keeps
    // q=0 (rank 0) from stopping at an empty leading bucket and
    // reporting its upper edge when all the mass sits further right.
    if (in_bucket == 0) continue;
    cum += in_bucket;
    if (static_cast<double>(cum) < rank) continue;
    if (i == bounds.size()) {
      // Overflow bucket has no upper edge; clamp to the last finite
      // bound (Prometheus's histogram_quantile does the same).
      return bounds.empty() ? 0.0 : bounds.back();
    }
    const double hi = bounds[i];
    const double lo = (i == 0) ? 0.0 : bounds[i - 1];
    const double into = std::clamp(
        rank - static_cast<double>(cum - in_bucket), 0.0,
        static_cast<double>(in_bucket));
    return lo + (hi - lo) * into / static_cast<double>(in_bucket);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void Histogram::reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

bool dump_metrics_to_env_path_once() {
  const std::optional<std::string> path =
      knobs::find<std::string>(Knob::kMetrics);
  if (!path.has_value()) return false;
  // The once-guard makes the atexit hook, the SIGINT/SIGTERM handlers
  // and any explicit caller idempotent: whoever gets here first writes
  // the file, everyone else is a no-op.
  static std::atomic<bool> dumped{false};
  if (dumped.exchange(true, std::memory_order_acq_rel)) return false;
  MetricsRegistry::instance().dump_jsonl(*path);
  return true;
}

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: telemetry must outlive every static destructor
  // and the atexit dump hook registered just below.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    if (knobs::find<std::string>(Knob::kMetrics).has_value()) {
      std::atexit([] { dump_metrics_to_env_path_once(); });
    }
    return r;
  }();
  return *registry;
}

namespace {
// Construct the registry (and register the DMIS_METRICS atexit dump)
// at program start, so a dump file appears even for a process that
// happens to touch no instrument.
const bool g_registry_bootstrapped = (MetricsRegistry::instance(), true);
}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter(name));
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge(name));
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram(name, std::move(bounds)));
  return *slot;
}

RollingHistogram& MetricsRegistry::rolling_histogram(
    const std::string& name, std::vector<double> bounds, int64_t window_us) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = rolling_histograms_[name];
  if (slot == nullptr) {
    slot.reset(new RollingHistogram(name, std::move(bounds), window_us));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.count = h->count();
    hv.sum = h->sum();
    hv.bounds = h->bounds();
    for (size_t i = 0; i <= hv.bounds.size(); ++i) {
      hv.buckets.push_back(h->bucket_count(i));
    }
    snap.histograms.push_back(std::move(hv));
  }
  for (const auto& [name, rh] : rolling_histograms_) {
    snap.rolling_histograms.push_back({name, rh->windowed_count(),
                                       rh->rate_per_sec(), rh->quantile(0.5),
                                       rh->quantile(0.9), rh->quantile(0.99)});
  }
  return snap;
}

void MetricsRegistry::dump_jsonl(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& c : snap.counters) {
    os << "{\"type\":\"counter\",\"name\":\"";
    json_escape(os, c.name);
    os << "\",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : snap.gauges) {
    os << "{\"type\":\"gauge\",\"name\":\"";
    json_escape(os, g.name);
    os << "\",\"value\":" << g.value << "}\n";
  }
  for (const auto& h : snap.histograms) {
    os << "{\"type\":\"histogram\",\"name\":\"";
    json_escape(os, h.name);
    os << "\",\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"buckets\":[";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) os << ',';
      os << "{\"le\":";
      if (i < h.bounds.size()) {
        os << h.bounds[i];
      } else {
        os << "\"inf\"";
      }
      os << ",\"count\":" << h.buckets[i] << '}';
    }
    os << "]}\n";
  }
  for (const auto& rh : snap.rolling_histograms) {
    os << "{\"type\":\"rolling_histogram\",\"name\":\"";
    json_escape(os, rh.name);
    os << "\",\"windowed_count\":" << rh.windowed_count
       << ",\"rate_per_sec\":" << rh.rate_per_sec << ",\"p50\":" << rh.p50
       << ",\"p90\":" << rh.p90 << ",\"p99\":" << rh.p99 << "}\n";
  }
}

void MetricsRegistry::dump_jsonl(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  DMIS_CHECK_IO(os.good(), "cannot open '" << path << "' for writing");
  dump_jsonl(os);
  DMIS_CHECK_IO(os.good(), "write failed for '" << path << "'");
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, rh] : rolling_histograms_) rh->reset();
}

}  // namespace dmis::obs
