// dmis_perfbench: runs one benchmark workload and writes its result as
// JSON. perfbench/run.py builds this program, scrubs the environment and
// calls it:
//
//   dmis_perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --work-dir <dir> --out <file>
//
// The metric table below is the single list of what each workload
// reports, with units; run.py checks it against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

enum : unsigned {
  kSeq = 1,
  kDp = 2,
  kEp = 4,
  kServe = 8,
  kSweeps = kSeq | kDp | kEp,
  kAll = kSweeps | kServe,
};

struct Spec {
  const char* name;
  const char* unit;
  unsigned workloads;  ///< where the metric is measured; elsewhere it is 0
};

// End-to-end metrics (--trace 0). Every workload measures every one.
const Spec kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"elapsed_s", "s", kAll},
    {"seg_loss", "loss", kAll},
    {"ok_frac", "ratio", kAll},
    {"peak_rss_mb", "MiB", kAll},
};

// Per-layer metrics (--trace 1).
const Spec kPerLayer[] = {
    {"core.prepare_s", "s", kSweeps},
    {"data.wait_ms", "ms", kSweeps},
    {"data.wait_share", "ratio", kSweeps},
    {"data.examples_read", "count", kAll},
    {"data.prefetch_stalls", "count", kAll},
    {"train.step_ms.p50.light", "ms", kSweeps},
    {"train.step_ms.p90.light", "ms", kSweeps},
    {"train.step_ms.p50.heavy", "ms", kSweeps},
    {"train.step_ms.p90.heavy", "ms", kSweeps},
    {"train.steps.light", "count", kSweeps},
    {"train.steps.heavy", "count", kSweeps},
    {"train.validate_ms", "ms", kSweeps},
    {"train.trial_build_ms", "ms", kSweeps},
    {"train.grad_sync_wait_ms", "ms", kDp},
    {"nn.forward_ms.light.x1", "ms", kAll},
    {"nn.backward_ms.light.x1", "ms", kAll},
    {"nn.loss_ms.light.x1", "ms", kAll},
    {"nn.optim_ms.light.x1", "ms", kAll},
    {"nn.train_gflops.light.x1", "GFLOP/s", kAll},
    {"nn.forward_ms.light.x4", "ms", kAll},
    {"nn.backward_ms.light.x4", "ms", kAll},
    {"nn.loss_ms.light.x4", "ms", kAll},
    {"nn.optim_ms.light.x4", "ms", kAll},
    {"nn.train_gflops.light.x4", "GFLOP/s", kAll},
    {"nn.forward_ms.heavy.x1", "ms", kAll},
    {"nn.backward_ms.heavy.x1", "ms", kAll},
    {"nn.loss_ms.heavy.x1", "ms", kAll},
    {"nn.optim_ms.heavy.x1", "ms", kAll},
    {"nn.train_gflops.heavy.x1", "GFLOP/s", kAll},
    {"nn.forward_ms.heavy.x4", "ms", kAll},
    {"nn.backward_ms.heavy.x4", "ms", kAll},
    {"nn.loss_ms.heavy.x4", "ms", kAll},
    {"nn.optim_ms.heavy.x4", "ms", kAll},
    {"nn.train_gflops.heavy.x4", "GFLOP/s", kAll},
    {"tensor.sgemm_gflops", "GFLOP/s", kAll},
    {"tensor.sgemm_gflops.x4", "GFLOP/s", kAll},
    {"tensor.im2col_ms", "ms", kAll},
    {"host.fma_peak_gflops", "GFLOP/s", kAll},
    {"comm.allreduce_bytes", "B", kAll},
    {"comm.allreduce_calls", "count", kAll},
    {"comm.allreduce.buckets", "count", kAll},
    {"comm.allreduce_ms", "ms", kDp},
    {"comm.sync_wait_ms", "ms", kDp},
    {"comm.peer_wait_share", "ratio", kDp},
    {"raylite.queue_wait_ms", "ms", kEp},
    {"raylite.trial_s.p50", "s", kEp},
    {"raylite.trial_s.max", "s", kEp},
    {"raylite.slot_idle_share", "ratio", kEp},
    {"serve.service_ms.full", "ms", kServe},
    {"serve.service_ms.tiled", "ms", kServe},
    {"serve.p99_ms", "ms", kServe},
    {"serve.queue_ms", "ms", kServe},
    {"serve.infer_ms", "ms", kServe},
    {"serve.admit_us", "us", kServe},
    {"serve.gen_lag_ms.max", "ms", kServe},
    {"serve.shed", "count", kServe},
    {"serve.timeouts", "count", kServe},
    {"serve.tiled_bitwise", "flag", kServe},
    {"obs.trace_overhead", "ratio", kAll},
};

unsigned workload_bit(const std::string& w) {
  if (w == "sweep_seq") return kSeq;
  if (w == "sweep_dp") return kDp;
  if (w == "sweep_ep") return kEp;
  if (w == "serve_mixed") return kServe;
  return 0;
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Orders the workload's metrics by the table, fills metrics that do not
/// apply to this workload with 0, and reports any mismatch as a failure.
std::vector<std::pair<const Spec*, double>> tabulate(unsigned bit, bool trace,
                                                     Output& out) {
  std::map<std::string, double> got;
  for (const Metric& m : out.metrics) {
    if (!valid_metric_name(m.name) || !got.emplace(m.name, m.value).second) {
      out.check(false, "bad or repeated metric name " + m.name);
    }
  }
  std::vector<std::pair<const Spec*, double>> rows;
  auto take = [&](const Spec& s) {
    const auto it = got.find(s.name);
    const bool applies = (s.workloads & bit) != 0;
    if (applies != (it != got.end())) {
      out.check(false, std::string("metric ") + s.name +
                           (applies ? " missing" : " not expected"));
    }
    rows.emplace_back(&s, it == got.end() ? 0.0 : it->second);
    if (it != got.end()) got.erase(it);
  };
  if (trace) {
    for (const Spec& s : kPerLayer) take(s);
  } else {
    for (const Spec& s : kEndToEnd) take(s);
  }
  for (const auto& [name, v] : got) out.check(false, "unlisted metric " + name);
  return rows;
}

std::string build_type() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return "optimized";
#else
  return "debug";
#endif
}

int usage() {
  std::cerr << "usage: dmis_perfbench --workload <sweep_seq|sweep_dp|"
               "sweep_ep|serve_mixed> --seed <n> --seconds <s> --trace <0|1>"
               " --work-dir <dir> --out <file>\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--out") {
      out_path = v;
    } else {
      return usage();
    }
  }
  const unsigned bit = workload_bit(args.workload);
  if (bit == 0 || args.work_dir.empty() || out_path.empty() ||
      !(args.seconds > 0)) {
    return usage();
  }
  if (build_type() != "optimized") {
    std::cerr << "dmis_perfbench: refusing to measure a non-optimized build\n";
    return 3;
  }

  std::filesystem::create_directories(args.work_dir);
  Output out;
  try {
    if (bit == kServe) {
      run_serve(args, out);
    } else {
      run_sweep(args, out);
    }
  } catch (const std::exception& e) {
    out.check(false, std::string("workload threw: ") + e.what());
  }
  if (!args.trace) {
    out.add("ok_frac", out.attempted > 0
                           ? 1.0 - static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)
                           : 0.0);
  }
  const auto rows = tabulate(bit, args.trace, out);
  std::filesystem::remove_all(args.work_dir);

  std::ostringstream js;
  js << "{\"correct\": " << (out.failed == 0 && out.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < rows.size(); ++i) {
    js << (i ? ", " : "") << json_str(rows[i].first->name)
       << ": {\"value\": " << json_num(rows[i].second)
       << ", \"unit\": " << json_str(rows[i].first->unit) << "}";
  }
  js << "}, \"failures\": [";
  for (size_t i = 0; i < out.failures.size(); ++i) {
    js << (i ? ", " : "") << json_str(out.failures[i]);
  }
  js << "], \"info\": {\"compiler\": " << json_str(std::string("GCC ") + __VERSION__)
     << ", \"build\": " << json_str(build_type())
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"avx512f\": " << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ", \"avx2\": " << (__builtin_cpu_supports("avx2") ? "true" : "false");
  for (const auto& [k, v] : out.info) js << ", " << json_str(k) << ": " << json_str(v);
  js << "}}\n";
  std::ofstream(out_path) << js.str();
  return 0;
}
