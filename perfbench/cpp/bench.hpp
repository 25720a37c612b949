// Shared pieces of the benchmark executable: run arguments, the result
// a workload fills in, and the fixed workload geometry.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch space for record shards.
};

struct Metric {
  std::string name;
  double value = 0.0;
};

/// What one run reports. Every operation whose output is checked adds
/// to `attempted`; a failed check adds to `failed` with a reason.
struct Output {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  void tally(int64_t tried, int64_t bad, const std::string& what) {
    attempted += tried;
    failed += bad;
    if (bad > 0 && failures.size() < 20) failures.push_back(what);
  }
  /// Units come from the metric table in main.cpp.
  void add(const std::string& name, double value) {
    metrics.push_back({name, value});
  }
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Milliseconds on the tracer's clock, so the benchmark's own timestamps
/// line up with the spans the program records.
inline double now_ms() {
  return static_cast<double>(dmis::obs::Tracer::now_us()) / 1000.0;
}

/// Aggregate CPU time counters of the host, in clock ticks.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};

/// Reads the first line of /proc/stat; zeros where it is unavailable.
inline CpuTimes cpu_times() {
  CpuTimes t;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    if (!(f >> v)) return {};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Share of CPU time between two readings that the hypervisor gave to
/// other guests (0 when nothing was counted).
inline double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return b.total > a.total ? static_cast<double>(b.steal - a.steal) /
                                 static_cast<double>(b.total - a.total)
                           : 0.0;
}

/// Seconds of vCPU time the hypervisor gave to other guests between two
/// readings, summed over the host's vCPUs.
inline double stolen_s(const CpuTimes& a, const CpuTimes& b) {
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A wall-clock interval with the time stolen from this guest during it.
struct Unstolen {
  Clock::time_point t0 = Clock::now();
  CpuTimes cpu0 = cpu_times();

  /// Wall seconds since construction less the vCPU time stolen since,
  /// with the share of the host's CPU time stolen. When the hypervisor
  /// runs another guest on one of our vCPUs, every parallel_for barrier
  /// waits for the chunk on it, so the whole program stalls for about as
  /// long as the vCPU is gone.
  Stolen<double> stop() const {
    const CpuTimes c = cpu_times();
    return {seconds_since(t0) - stolen_s(cpu0, c), steal_share(cpu0, c)};
  }
};

/// Milliseconds of a fixed vector-FMA loop that belongs to the benchmark,
/// not the program, run on every core at once; the median of the cores'
/// own times, so a core the hypervisor stole from does not count. Its
/// time follows the host's speed under an all-core load, which moved by
/// 25-30% within an hour, with no steal, on the host the bounds were set
/// on; the program's time moved with it.
double reference_loop_ms();

/// Collects reference-loop times through a run. Times are reported at a
/// fixed host speed: multiplied by scale(), they read as on a host where
/// the reference loop takes kReferenceMs.
class HostSpeed {
 public:
  static constexpr double kReferenceMs = 2.0;
  void sample(int n = 5) {
    for (int i = 0; i < n; ++i) ms_.push_back(reference_loop_ms());
  }
  double scale() const { return kReferenceMs / quantile(ms_, 0.5); }

 private:
  std::vector<double> ms_;
};

/// A timed unit with more than this share of the host's CPU time stolen
/// is set aside when enough others are cleaner: subtracting stolen time
/// over-corrects when several vCPUs are stolen at once.
constexpr double kMaxSteal = 0.01;

/// Each figure is taken from at least this many units, the least-stolen
/// ones when fewer are clean.
constexpr size_t kMinUnits = 3;

/// Measurement runs past --seconds by at most this factor while it waits
/// for kMinUnits clean units.
constexpr double kStealGrace = 1.5;

/// Peak resident memory of this process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Change of a registry counter between two snapshots.
inline double counter_delta(const dmis::obs::MetricsSnapshot& before,
                            const dmis::obs::MetricsSnapshot& after,
                            const std::string& name) {
  int64_t d = 0;
  for (const auto& c : after.counters) d += c.name == name ? c.value : 0;
  for (const auto& c : before.counters) d -= c.name == name ? c.value : 0;
  return static_cast<double>(d);
}

// ---- Fixed workload geometry (see perfbench/README.md) -------------------

constexpr int kWorkers = 4;  ///< DP replicas, EP slots, concurrent probe callers.
constexpr int64_t kBatchPerReplica = 2;
constexpr int kModelDepth = 3;

/// Record-pipeline options for `seed`, writing under `dir`.
dmis::core::PipelineOptions pipeline_options(uint64_t seed,
                                             const std::string& dir);

/// The fixed 8-trial sweep: lr x loss x base_filters, augment on the
/// heavy (base_filters 8) half.
std::vector<dmis::core::ExperimentConfig> sweep_configs(uint64_t seed);

inline bool is_heavy(const dmis::core::ExperimentConfig& c) {
  return c.base_filters == 8;
}

// ---- Workloads -----------------------------------------------------------

void run_sweep(const Args& args, Output& out);
void run_serve(const Args& args, Output& out);

// ---- Probes (traced runs only) --------------------------------------------

/// nn.* and tensor.* probes on the light and heavy sweep models.
void probe_nn_and_tensor(const Args& args, Output& out);

/// Median ms of one all-reduce of `floats` floats over `ranks` ranks of
/// comm::make_group, all ranks released together.
double probe_allreduce_ms(int ranks, int64_t floats);

}  // namespace perfbench
