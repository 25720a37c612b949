#include "obs/rolling.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmis::obs {
namespace {

int64_t slot_width(int64_t window_us, int slots) {
  DMIS_CHECK(window_us > 0, "rolling window must be > 0 us, got "
                                << window_us);
  DMIS_CHECK(slots >= 2, "rolling instrument needs >= 2 slots, got "
                             << slots);
  return std::max<int64_t>(1, window_us / slots);
}

}  // namespace

RollingHistogram::RollingHistogram(std::string name,
                                   std::vector<double> bounds,
                                   int64_t window_us, int slots)
    : name_(std::move(name)),
      bounds_(std::move(bounds)),
      slot_us_(slot_width(window_us, slots)),
      n_slots_(slots),
      frames_(static_cast<size_t>(slots),
              std::vector<int64_t>(bounds_.size() + 1, 0)),
      frame_index_(static_cast<size_t>(slots), -1),
      frame_count_(static_cast<size_t>(slots), 0),
      created_us_(Tracer::now_us()) {
  DMIS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
             "rolling histogram '" << name_ << "' bounds must be ascending");
}

size_t RollingHistogram::advance_locked(int64_t now_us) const {
  const int64_t abs_slot = now_us / slot_us_;
  const size_t i = static_cast<size_t>(abs_slot % n_slots_);
  if (frame_index_[i] != abs_slot) {
    std::fill(frames_[i].begin(), frames_[i].end(), 0);
    frame_count_[i] = 0;
    frame_index_[i] = abs_slot;
  }
  return i;
}

double RollingHistogram::covered_seconds_locked(int64_t now_us) const {
  const double window_s =
      static_cast<double>(slot_us_) * n_slots_ / 1e6;
  const double age_s =
      static_cast<double>(std::max<int64_t>(now_us - created_us_, slot_us_)) /
      1e6;
  return std::min(window_s, age_s);
}

void RollingHistogram::observe(double v) { observe_at(Tracer::now_us(), v); }

void RollingHistogram::observe_at(int64_t now_us, double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  const std::lock_guard<std::mutex> lock(mutex_);
  const size_t i = advance_locked(now_us);
  ++frames_[i][bucket];
  ++frame_count_[i];
}

std::vector<int64_t> RollingHistogram::merged_locked(int64_t now_us) const {
  const int64_t abs_slot = now_us / slot_us_;
  std::vector<int64_t> merged(bounds_.size() + 1, 0);
  for (size_t f = 0; f < frames_.size(); ++f) {
    if (frame_index_[f] < 0 || frame_index_[f] > abs_slot ||
        abs_slot - frame_index_[f] >= n_slots_) {
      continue;
    }
    for (size_t b = 0; b < merged.size(); ++b) merged[b] += frames_[f][b];
  }
  return merged;
}

int64_t RollingHistogram::windowed_count() const {
  return windowed_count_at(Tracer::now_us());
}

int64_t RollingHistogram::windowed_count_at(int64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int64_t abs_slot = now_us / slot_us_;
  int64_t sum = 0;
  for (size_t f = 0; f < frames_.size(); ++f) {
    if (frame_index_[f] >= 0 && frame_index_[f] <= abs_slot &&
        abs_slot - frame_index_[f] < n_slots_) {
      sum += frame_count_[f];
    }
  }
  return sum;
}

double RollingHistogram::rate_per_sec() const {
  return rate_at(Tracer::now_us());
}

double RollingHistogram::rate_at(int64_t now_us) const {
  const int64_t count = windowed_count_at(now_us);
  const std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(count) / covered_seconds_locked(now_us);
}

double RollingHistogram::quantile(double q) const {
  return quantile_at(Tracer::now_us(), q);
}

double RollingHistogram::quantile_at(int64_t now_us, double q) const {
  std::vector<int64_t> merged;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    merged = merged_locked(now_us);
  }
  return Histogram::quantile_from(bounds_, merged, q);
}

std::vector<int64_t> RollingHistogram::windowed_buckets() const {
  return windowed_buckets_at(Tracer::now_us());
}

std::vector<int64_t> RollingHistogram::windowed_buckets_at(
    int64_t now_us) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return merged_locked(now_us);
}

void RollingHistogram::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& f : frames_) std::fill(f.begin(), f.end(), 0);
  std::fill(frame_index_.begin(), frame_index_.end(), -1);
  std::fill(frame_count_.begin(), frame_count_.end(), 0);
}

}  // namespace dmis::obs
