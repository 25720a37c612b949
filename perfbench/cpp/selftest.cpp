// Self-test of the benchmark's own arithmetic (stats.hpp). run.py runs it
// before every measurement; it can also be run on its own after a build:
//
//   .bench_build/perfbench/perfbench_selftest
//
// Exits 0 when every check holds, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <string>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentiles: linear interpolation between closest ranks.
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile(ramp(101), 0.9), 91.0), "p90 of 1..101 is 91");
  expect(near(quantile({}, 0.5), 0.0), "quantile of nothing is 0");

  // The highest percentile with at least ten samples beyond it.
  const Tail t1000 = supported_tail(ramp(1000));
  expect(near(t1000.q, 0.99) && t1000.samples == 1000, "1000 samples give p99");
  expect(near(supported_tail(ramp(999)).q, 0.95), "999 samples fall to p95");
  expect(near(supported_tail(ramp(200)).q, 0.95), "200 samples give p95");
  expect(near(supported_tail(ramp(100)).q, 0.9), "100 samples give p90");
  expect(near(supported_tail(ramp(40)).q, 0.75), "40 samples give p75");
  expect(near(supported_tail(ramp(8)).q, 0.5), "8 samples give the median");
  expect(near(supported_tail(ramp(10000), 0.9).q, 0.9),
         "never above the percentile asked for");
  expect(near(supported_tail(ramp(1000)).value, quantile(ramp(1000), 0.99)),
         "tail value is that percentile");

  // Open-loop latency runs from the due time, not the send time.
  const Request late{10.0, 30.0, 45.0};
  expect(near(latency_ms(late), 35.0), "latency counts the generator stall");
  expect(near(gen_lag_ms(late), 20.0), "generator lag is send minus due");

  // Steal screening: clean units when there are enough of them,
  // otherwise the least-stolen ones.
  const std::vector<Stolen<double>> units = {
      {10.0, 0.0}, {30.0, 0.05}, {11.0, 0.01}, {20.0, 0.03}, {12.0, 0.02}};
  int64_t aside = 0;
  expect(least_stolen(units, 0.02, 3, aside) ==
                 std::vector<double>({10.0, 11.0, 12.0}) &&
             aside == 2,
         "three clean units are kept, two stolen ones set aside");
  aside = 0;
  expect(least_stolen(units, 0.0, 2, aside) ==
                 std::vector<double>({10.0, 11.0}) &&
             aside == 3,
         "too few clean units: the least-stolen make up the minimum");
  aside = 0;
  expect(least_stolen(units, 0.5, 1, aside).size() == 5 && aside == 0,
         "all clean: all kept");
  aside = 0;
  expect(least_stolen(units, 0.0, 9, aside).size() == 5 && aside == 0,
         "the minimum never exceeds what was measured");
  expect(clean_count(units, 0.02) == 3, "clean count includes the limit");

  // Peer-wait share from transfer time and in-run collective time.
  expect(near(peer_wait_share(1.0, 10.0), 0.9), "1 ms of 10 ms is transfer");
  expect(near(peer_wait_share(5.0, 2.0), 0.0), "share never goes negative");
  expect(near(peer_wait_share(1.0, 0.0), 0.0), "no collective, no wait");

  // Slot idle share from a synthetic schedule: two slots over 10 s.
  expect(near(slot_idle_share({{0, 10}, {0, 5}}, 2, 0, 10), 0.25),
         "one slot idle for half the run");
  expect(near(slot_idle_share({{0, 10}, {0, 10}}, 2, 0, 10), 0.0),
         "both slots busy throughout");
  expect(near(slot_idle_share({{-5, 5}, {20, 30}}, 2, 0, 10), 0.75),
         "busy time outside the window is not counted");

  // Metric names.
  expect(valid_metric_name("train.step_ms.p50.light"), "dotted name is valid");
  expect(valid_metric_name("comm.allreduce_bytes-x4"), "dash is valid");
  expect(!valid_metric_name(""), "empty name is invalid");
  expect(!valid_metric_name(".leading"), "leading dot is invalid");
  expect(!valid_metric_name("has space"), "space is invalid");
  expect(!valid_metric_name("a/b"), "slash is invalid");
  expect(!valid_metric_name(std::string(65, 'a')), "65 letters is too long");
  expect(valid_metric_name(std::string(64, 'a')), "64 letters is allowed");

  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
