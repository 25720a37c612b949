#include "train/straggler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::train {

StragglerDetector::StragglerDetector(int world, StragglerOptions opts)
    : world_(world), opts_(opts) {
  opts_.threshold =
      knobs::get<double>(Knob::kStragglerFactor, opts.threshold);
  DMIS_CHECK(world >= 1, "straggler detector needs >= 1 rank, got " << world);
  auto& registry = obs::MetricsRegistry::instance();
  step_.reserve(static_cast<size_t>(world));
  wait_.reserve(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    const std::string suffix = ".r" + std::to_string(r);
    step_.push_back(std::make_unique<obs::RollingHistogram>(
        "step" + suffix, obs::default_duration_bounds(), opts_.window_us));
    wait_.push_back(std::make_unique<obs::RollingHistogram>(
        "wait" + suffix, obs::default_duration_bounds(), opts_.window_us));
    step_export_.push_back(&registry.rolling_histogram(
        "train.rank_step_us" + suffix, obs::default_duration_bounds(),
        opts_.window_us));
    wait_export_.push_back(&registry.rolling_histogram(
        "train.rank_wait_us" + suffix, obs::default_duration_bounds(),
        opts_.window_us));
  }
}

void StragglerDetector::record_step(int rank, double us) {
  record_step_at(obs::Tracer::now_us(), rank, us);
}

void StragglerDetector::record_step_at(int64_t now_us, int rank, double us) {
  DMIS_CHECK(rank >= 0 && rank < world_, "bad rank " << rank);
  step_[static_cast<size_t>(rank)]->observe_at(now_us, us);
  step_export_[static_cast<size_t>(rank)]->observe_at(now_us, us);
}

void StragglerDetector::record_wait(int rank, double us) {
  record_wait_at(obs::Tracer::now_us(), rank, us);
}

void StragglerDetector::record_wait_at(int64_t now_us, int rank, double us) {
  DMIS_CHECK(rank >= 0 && rank < world_, "bad rank " << rank);
  wait_[static_cast<size_t>(rank)]->observe_at(now_us, us);
  wait_export_[static_cast<size_t>(rank)]->observe_at(now_us, us);
}

StragglerDetector::Report StragglerDetector::check() {
  return check_at(obs::Tracer::now_us());
}

StragglerDetector::Report StragglerDetector::check_at(int64_t now_us) {
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("train.straggler.checks").add(1);

  Report report;
  if (world_ < 2) return report;
  std::vector<double> p50s;
  p50s.reserve(static_cast<size_t>(world_));
  for (int r = 0; r < world_; ++r) {
    const auto& h = *step_[static_cast<size_t>(r)];
    if (h.windowed_count_at(now_us) < opts_.min_samples) return report;
    p50s.push_back(h.quantile_at(now_us, 0.5));
  }
  report.decided = true;

  const auto worst_it = std::max_element(p50s.begin(), p50s.end());
  report.rank = static_cast<int>(worst_it - p50s.begin());
  report.worst_p50 = *worst_it;
  std::vector<double> sorted = p50s;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  report.median_p50 = sorted[sorted.size() / 2];
  report.worst_wait_p50 =
      wait_[static_cast<size_t>(report.rank)]->quantile_at(now_us, 0.5);
  if (report.median_p50 > 0.0) {
    report.ratio = report.worst_p50 / report.median_p50;
  }
  registry.gauge("train.straggler.ratio").set(report.ratio);

  if (report.ratio >= opts_.threshold) {
    report.flagged = true;
    registry.counter("train.straggler.flags").add(1);
    registry.gauge("train.straggler.rank").set(report.rank);
    DMIS_LOG(kWarn) << "straggler: rank " << report.rank << " p50 step "
                    << report.worst_p50 << " us is " << report.ratio
                    << "x the group median (" << report.median_p50
                    << " us, threshold " << opts_.threshold
                    << "x); its grad-sync wait p50 is "
                    << report.worst_wait_p50 << " us";
  }
  return report;
}

}  // namespace dmis::train
