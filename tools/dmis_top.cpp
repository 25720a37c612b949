// dmis_top: live terminal view of a running dmis process.
//
// Polls the embedded telemetry exporter (obs::TelemetryServer,
// DMIS_OBS_PORT) and renders a compact table: tune progress, serving
// load (queue depth, volumes/sec and shed/sec derived from successive
// scrapes), elastic world size, and per-rank step/wait quantiles from
// the straggler detector's rolling histograms.
//
//   dmis_top --port 9464 [--host 127.0.0.1] [--interval-ms 1000] [--once]
//
// --once takes a single scrape and prints without clearing the screen
// (scriptable; tools/verify.sh uses it to validate a live sweep).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/knobs.hpp"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int interval_ms = 1000;
  bool once = false;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s --port PORT [--host HOST] [--interval-ms MS] "
               "[--once]\n",
               argv0);
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  opts.port =
      dmis::knobs::find<int>(dmis::Knob::kObsPort).value_or(opts.port);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--port") {
      opts.port = std::atoi(need_value());
    } else if (arg == "--host") {
      opts.host = need_value();
    } else if (arg == "--interval-ms") {
      opts.interval_ms = std::atoi(need_value());
    } else if (arg == "--once") {
      opts.once = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      usage(argv[0], 2);
    }
  }
  if (opts.port <= 0 || opts.port > 65535) {
    std::fprintf(stderr, "dmis_top: need --port (or DMIS_OBS_PORT)\n");
    std::exit(2);
  }
  if (opts.interval_ms < 100) opts.interval_ms = 100;
  return opts;
}

/// Minimal HTTP GET over a fresh connection; returns the body or
/// nullopt on any failure (target not up yet, mid-poll exit, ...).
std::optional<std::string> http_get(const std::string& host, int port,
                                    const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  const std::string ip = (host == "localhost") ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return std::nullopt;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) return std::nullopt;
  if (response.compare(0, 12, "HTTP/1.1 200") != 0 &&
      response.compare(0, 12, "HTTP/1.1 503") != 0) {
    return std::nullopt;
  }
  return response.substr(body + 4);
}

/// One parsed scrape: samples keyed by "name" or "name|rank".
struct Scrape {
  std::map<std::string, double> samples;

  double get(const std::string& key, double fallback = 0.0) const {
    const auto it = samples.find(key);
    return it == samples.end() ? fallback : it->second;
  }

  /// rank -> value for samples of `name` carrying a rank label.
  std::map<int, double> by_rank(const std::string& name) const {
    std::map<int, double> out;
    const std::string prefix = name + "|";
    for (auto it = samples.lower_bound(prefix);
         it != samples.end() && it->first.compare(0, prefix.size(), prefix) ==
                                    0;
         ++it) {
      out[std::atoi(it->first.c_str() + prefix.size())] = it->second;
    }
    return out;
  }
};

Scrape parse_prometheus(const std::string& text) {
  Scrape scrape;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t brace = key.find('{');
    if (brace != std::string::npos) {
      const std::string labels = key.substr(brace);
      key.resize(brace);
      const size_t rank = labels.find("rank=\"");
      if (rank != std::string::npos) {
        const size_t start = rank + 6;
        const size_t end = labels.find('"', start);
        if (end != std::string::npos) {
          key += "|" + labels.substr(start, end - start);
        }
      }
    }
    scrape.samples[key] = value;
  }
  return scrape;
}

void render(const Scrape& now, const Scrape* prev, double dt_s,
            const Options& opts) {
  if (!opts.once) std::fputs("\x1b[2J\x1b[H", stdout);
  std::printf("dmis_top — %s:%d every %d ms\n\n", opts.host.c_str(),
              opts.port, opts.interval_ms);

  const double completed = now.get("dmis_tune_trials_completed");
  const double failed = now.get("dmis_tune_trials_failed");
  const double attempts = now.get("dmis_tune_attempts");
  const double transient = now.get("dmis_tune_transient_failures");
  const double running =
      std::max(0.0, attempts - completed - failed - transient);
  std::printf("tune    trials: %3.0f running  %3.0f completed  %3.0f failed  "
              "(%.0f attempts, %.0f transient)\n",
              running, completed, failed, attempts, transient);

  const auto rate = [&](const char* name) -> double {
    if (prev == nullptr || dt_s <= 0.0) return 0.0;
    return std::max(0.0, (now.get(name) - prev->get(name)) / dt_s);
  };
  std::printf("serve   queue %3.0f  workers %2.0f  health %1.0f  |  "
              "%6.1f vol/s  %6.1f shed/s  %.0f completed\n",
              now.get("dmis_serve_queue_depth"),
              now.get("dmis_serve_workers"), now.get("dmis_serve_health"),
              rate("dmis_serve_completed"), rate("dmis_serve_shed"),
              now.get("dmis_serve_completed"));
  // Gradient-sync wire compression (DMIS_COMPRESS): cumulative
  // logical-to-wire byte ratio, "off" until the first compressed sync.
  char compress[16];
  const double cratio = now.get("dmis_comm_compress_ratio");
  if (cratio > 0.0) {
    std::snprintf(compress, sizeof(compress), "%.2fx", cratio);
  } else {
    std::snprintf(compress, sizeof(compress), "off");
  }
  std::printf("train   steps %6.0f (%5.1f/s)  epochs %4.0f  world %2.0f  "
              "straggler ratio %.2f  compress %s\n\n",
              now.get("dmis_train_steps"), rate("dmis_train_steps"),
              now.get("dmis_train_epochs"),
              now.get("dmis_train_elastic_world_size"),
              now.get("dmis_train_straggler_ratio"), compress);

  const std::map<int, double> p50 = now.by_rank("dmis_train_rank_step_us_p50");
  if (!p50.empty()) {
    const std::map<int, double> p99 =
        now.by_rank("dmis_train_rank_step_us_p99");
    const std::map<int, double> wait =
        now.by_rank("dmis_train_rank_wait_us_p50");
    std::printf("rank    step p50 (us)   step p99 (us)   wait p50 (us)\n");
    for (const auto& [rank, v] : p50) {
      const auto find = [&](const std::map<int, double>& m) {
        const auto it = m.find(rank);
        return it == m.end() ? 0.0 : it->second;
      };
      std::printf("%4d    %13.0f   %13.0f   %13.0f\n", rank, v, find(p99),
                  find(wait));
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);

  std::optional<Scrape> prev;
  int failures = 0;
  for (;;) {
    const std::optional<std::string> body =
        http_get(opts.host, opts.port, "/metrics");
    if (!body.has_value()) {
      if (opts.once) {
        std::fprintf(stderr, "dmis_top: no exporter at %s:%d\n",
                     opts.host.c_str(), opts.port);
        return 1;
      }
      if (++failures >= 5) {
        std::fprintf(stderr,
                     "dmis_top: lost contact with %s:%d (5 failed polls)\n",
                     opts.host.c_str(), opts.port);
        return 1;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opts.interval_ms));
      continue;
    }
    failures = 0;
    const Scrape scrape = parse_prometheus(*body);
    render(scrape, prev.has_value() ? &*prev : nullptr,
           static_cast<double>(opts.interval_ms) / 1000.0, opts);
    if (opts.once) return 0;
    prev = scrape;
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.interval_ms));
  }
}
