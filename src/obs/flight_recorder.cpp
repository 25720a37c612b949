#include "obs/flight_recorder.hpp"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/json.hpp"
#include "common/knobs.hpp"
#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_server.hpp"
#include "obs/trace.hpp"

namespace dmis::obs {
namespace {

/// Strips the trailing newline render_spans()/render_healthz() append,
/// so the fragment embeds cleanly inside the dump object.
std::string chomp(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

/// JSONL -> JSON array: every dump_jsonl line is a complete object, so
/// joining them with commas inside brackets is a valid embedding.
std::string jsonl_to_array(const std::string& jsonl) {
  std::string out = "[";
  std::istringstream is(jsonl);
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (!first) out += ',';
    first = false;
    out += line;
  }
  out += ']';
  return out;
}

// Self-pipe shared by every deferred-dump signal handler: the handler
// writes the signal number (async-signal-safe), the watcher thread does
// the heavy lifting.
int g_signal_pipe[2] = {-1, -1};

extern "C" void telemetry_signal_handler(int signo) {
  const unsigned char byte = static_cast<unsigned char>(signo);
  // The watcher drains promptly; a full pipe just drops the request.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void signal_watcher_loop() {
  unsigned char byte = 0;
  while (::read(g_signal_pipe[0], &byte, 1) == 1) {
    const int signo = byte;
    if (signo == SIGUSR1) {
      // On-demand snapshot of a live run: flight dump only. The
      // DMIS_METRICS / DMIS_TRACE exports stay unburned so the
      // process-exit dump still reflects final state.
      FlightRecorder::instance().dump("signal.SIGUSR1");
      continue;
    }
    const char* trigger = (signo == SIGINT)    ? "signal.SIGINT"
                          : (signo == SIGTERM) ? "signal.SIGTERM"
                                               : "signal.unknown";
    dump_telemetry_now(trigger);
    // Hand the signal back to its default disposition so the exit
    // status still says "killed by SIGINT/SIGTERM".
    std::signal(signo, SIG_DFL);
    ::raise(signo);
  }
}

/// Installs the deferred handler for `signo` if the process still has
/// the default disposition (never stomp an application handler).
void install_if_default(int signo) {
  struct sigaction current {};
  if (::sigaction(signo, nullptr, &current) != 0) return;
  if (current.sa_handler != SIG_DFL || (current.sa_flags & SA_SIGINFO) != 0) {
    return;
  }
  struct sigaction action {};
  action.sa_handler = telemetry_signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(signo, &action, nullptr);
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  // Leaked like the registry/tracer: dumps can fire from atexit and
  // signal-watcher contexts after static destruction begins. Keep this
  // initializer trivial: configure() re-enters instance() via
  // install_telemetry_signal_handlers(), so arming DMIS_FLIGHT_DIR here
  // would recurse into a still-initializing static. The env bootstrap
  // lives in g_flight_recorder_bootstrapped below instead.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

void FlightRecorder::configure(std::string dir, size_t max_spans) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dir_ = std::move(dir);
    max_spans_ = max_spans;
  }
  if (enabled()) install_telemetry_signal_handlers();
}

bool FlightRecorder::enabled() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !dir_.empty();
}

int FlightRecorder::register_health_provider(std::string name,
                                             HealthProvider provider) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int token = next_token_++;
  providers_.push_back({token, std::move(name), std::move(provider)});
  return token;
}

void FlightRecorder::unregister_health_provider(int token) {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::erase_if(providers_,
                [token](const Provider& p) { return p.token == token; });
}

std::string FlightRecorder::last_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return last_path_;
}

std::string FlightRecorder::dump(const std::string& trigger) {
  // Render outside the lock: snapshot()/events() synchronize
  // themselves, and providers may be slow-ish.
  std::string dir;
  size_t max_spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (dir_.empty()) return "";
    dir = dir_;
    max_spans = max_spans_;
  }

  std::ostringstream os;
  os << "{\"trigger\":\"";
  json_escape(os, trigger);
  os << "\",\"pid\":" << ::getpid() << ",\"ts_us\":" << Tracer::now_us()
     << ",\"spans\":" << chomp(TelemetryServer::render_spans(max_spans));
  std::ostringstream metrics;
  MetricsRegistry::instance().dump_jsonl(metrics);
  os << ",\"metrics\":" << jsonl_to_array(metrics.str());
  os << ",\"config\":" << knobs::config_json();
  os << ",\"health\":{";
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    bool first = true;
    for (const Provider& p : providers_) {
      if (!first) os << ',';
      first = false;
      os << '"';
      json_escape(os, p.name);
      os << "\":" << p.fn();
    }
  }
  os << "}}\n";

  const int64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = dir + "/flight_" + std::to_string(::getpid()) +
                           "_" + std::to_string(seq) + ".json";
  try {
    std::filesystem::create_directories(dir);
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out.good()) throw std::runtime_error("cannot open " + tmp);
      out << os.str();
      out.flush();
      if (!out.good()) throw std::runtime_error("write failed for " + tmp);
    }
    // rename() is atomic within a filesystem: a watcher either sees the
    // complete dump or no file, never a torn one.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw std::runtime_error("rename failed for " + path);
    }
  } catch (const std::exception& e) {
    // A failed flight dump must never mask the fault being recorded.
    DMIS_LOG(kWarn) << "flight recorder: dump failed: " << e.what();
    return "";
  }

  dumps_.fetch_add(1, std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    last_path_ = path;
  }
  DMIS_LOG(kWarn) << "flight recorder: wrote " << path << " (trigger: "
                  << trigger << ")";
  return path;
}

void dump_telemetry_now(const char* trigger) {
  dump_metrics_to_env_path_once();
  Tracer::write_trace_to_env_path_once();
  if (FlightRecorder::instance().enabled()) {
    FlightRecorder::instance().dump(trigger);
  }
}

void install_telemetry_signal_handlers() {
  static std::mutex install_mutex;
  static bool watcher_started = false;
  static bool usr1_installed = false;
  static bool exit_installed = false;
  const std::lock_guard<std::mutex> lock(install_mutex);

  const bool recorder_armed = FlightRecorder::instance().enabled();
  const bool telemetry_configured =
      recorder_armed || knobs::find<std::string>(Knob::kMetrics) ||
      knobs::find<std::string>(Knob::kTrace);
  if (!telemetry_configured) return;

  if (!watcher_started) {
    if (::pipe(g_signal_pipe) != 0) {
      DMIS_LOG(kWarn) << "flight recorder: pipe() failed, signal dumps "
                         "disabled: "
                      << std::strerror(errno);
      return;
    }
    std::thread(signal_watcher_loop).detach();
    watcher_started = true;
  }
  if (recorder_armed && !usr1_installed) {
    install_if_default(SIGUSR1);
    usr1_installed = true;
  }
  if (!exit_installed) {
    install_if_default(SIGINT);
    install_if_default(SIGTERM);
    exit_installed = true;
  }
}

namespace {
// Arm DMIS_FLIGHT_DIR and the signal handlers at program start, like
// the metrics/trace/server bootstraps. Runs after instance() can
// complete, so configure()'s re-entry into instance() is safe here.
const bool g_flight_recorder_bootstrapped = [] {
  if (const auto dir = knobs::find<std::string>(Knob::kFlightDir)) {
    FlightRecorder::instance().configure(*dir);
  }
  install_telemetry_signal_handlers();
  return true;
}();
}  // namespace

}  // namespace dmis::obs
