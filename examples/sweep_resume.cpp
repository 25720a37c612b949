// Sweep-level crash recovery: a tune_run driver that is killed
// mid-sweep and restarted over the same checkpoint root re-runs only
// the unfinished trials — completed ones are adopted from the durable
// sweep ledger (see raylite/sweep_ledger.hpp).
//
//   ./examples/sweep_resume <root> [crash_after]
//
// With `crash_after` = K the process hard-exits (_exit, no cleanup —
// a real SIGKILL as far as the ledger is concerned) when trial K+1
// starts and no ledger existed at startup, simulating the first,
// interrupted run. Re-invoking without `crash_after` (or with it — the
// crash only fires on a ledger-less first run) finishes the sweep.
// The final line
//   completed=<n> adopted=<k> best=<id> metric=<value>
// is what verify.sh compares against an uninterrupted run.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "raylite/search_space.hpp"
#include "raylite/sweep_ledger.hpp"
#include "raylite/tune.hpp"

int main(int argc, char** argv) {
  using namespace dmis;

  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <root> [crash_after]\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  const int crash_after = argc > 2 ? std::atoi(argv[2]) : -1;

  // The crash only simulates the *first* run: once a ledger exists the
  // restart must complete, so the same command line can be replayed.
  const bool first_run =
      !std::filesystem::exists(root + "/sweep_ledger.jsonl");

  ray::SearchSpace space;
  space.choice("x", {0.5, 1.0, 1.5, 2.0, 2.5, 3.0});
  const std::vector<ray::ParamSet> configs = space.grid();

  // A deterministic pure-math trainable: "loss" is a quadratic bowl in
  // x with its optimum inside the grid, so the best trial is stable
  // across runs and adoption must reproduce it exactly.
  // Lines currently in the ledger — the trials the driver has durably
  // recorded so far.
  const auto ledger_lines = [&root]() {
    std::ifstream is(root + "/sweep_ledger.jsonl");
    int64_t n = 0;
    std::string line;
    while (std::getline(is, line)) {
      if (!line.empty()) ++n;
    }
    return n;
  };

  std::atomic<int> started{0};
  const ray::Trainable trainable = [&](const ray::ParamSet& params,
                                       ray::Reporter& reporter) {
    const int nth = ++started;
    if (first_run && crash_after >= 0 && nth > crash_after) {
      // Die only after the finished trials are in the ledger, as a real
      // preemption arrives long after earlier results were durably
      // written. A slot writes a trial's ledger line before it starts
      // the next trial, so with one slot this wait returns at once.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ledger_lines() < crash_after &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      std::printf("crashing before trial #%d (simulated driver kill, "
                  "%lld trials in ledger)\n",
                  nth, static_cast<long long>(ledger_lines()));
      std::fflush(stdout);
      _exit(42);
    }
    const double x = ray::param_double(params, "x");
    for (int64_t it = reporter.start_iteration(); it < 3; ++it) {
      const double score = 1.0 / (1.0 + (x - 1.4) * (x - 1.4) / (it + 1));
      reporter.report(it, {{"score", score}});
      if (reporter.should_stop()) return;
    }
  };

  ray::TuneOptions options;
  options.num_gpus = 1;  // sequential: the crash point is deterministic
  options.checkpoint_root = root;

  const ray::TuneResult result = tune_run(trainable, configs, options);

  int64_t adopted = 0;
  for (const ray::Trial& t : result.trials) {
    std::printf("trial %d  %-10s  iters=%lld  %s\n", t.id,
                ray::trial_status_name(t.status),
                static_cast<long long>(t.iterations),
                ray::param_set_str(t.params).c_str());
    if (t.attempts == 0) ++adopted;  // never dispatched: ledger adoption
  }

  const ray::Trial& best = result.best("score");
  std::printf("completed=%lld adopted=%lld best=%d metric=%.6f\n",
              static_cast<long long>(result.count(ray::TrialStatus::kTerminated)),
              static_cast<long long>(adopted), best.id,
              best.last_metrics.at("score"));
  return 0;
}
