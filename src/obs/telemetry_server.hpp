// Embedded HTTP telemetry exporter.
//
// TelemetryServer binds a plain TCP socket and serves four read-only
// endpoints from a background accept thread:
//
//   /metrics  Prometheus text exposition (version 0.0.4) of every
//             registered instrument — cumulative counters/gauges/
//             histograms plus the rolling instruments' windowed rates
//             and streaming quantiles.
//   /healthz  200 {"status":"ok"} while serve's circuit breaker is
//             closed (serve.health gauge == 0 or absent), 503
//             {"status":"degraded"} otherwise; the body also carries
//             train's elastic world-size gauge.
//   /spans    JSON snapshot of the trace ring buffers (most recent
//             spans, capped).
//   /config   JSON of every DMIS_* knob's effective value and its
//             source, env or default (knobs::config_json()).
//
// Setting DMIS_OBS_PORT=<port> starts a process-wide server at static
// init (port 0 picks an ephemeral port; the bound port is logged).
// DMIS_OBS_LINGER_MS=<ms> keeps the server up that long at process
// exit, so a scraper polling a short-lived run can take a final scrape
// after all counters have settled — this is what lets a live scrape
// reconcile exactly with the final TuneResult.
//
// The exporter renders from MetricsRegistry::snapshot() and
// Tracer::events(), both safe against concurrent updates, so scraping
// never blocks a hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

namespace dmis::obs {

class TelemetryServer {
 public:
  /// Binds 0.0.0.0:<port> (0 = ephemeral) and starts the accept loop.
  /// Throws IoError if the port cannot be bound.
  explicit TelemetryServer(uint16_t port);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// The bound port (useful after requesting an ephemeral one).
  uint16_t port() const { return port_; }

  /// Stops the accept loop and closes the socket. Idempotent.
  void stop();

  /// Endpoint renderers, exposed so tests (and the flight recorder)
  /// can validate output without a socket round-trip.
  static std::string render_metrics();
  /// Renders the /healthz body and stores the HTTP status (200/503).
  static std::string render_healthz(int& http_status);
  static std::string render_spans(size_t max_spans = 2048);

  /// Mangles a registry name into a Prometheus metric name:
  /// "comm.allreduce_bytes" -> "dmis_comm_allreduce_bytes". A trailing
  /// ".r<k>" rank scope (the FaultInjector/straggler convention)
  /// becomes a {rank="k"} label: the suffix is stripped and `rank`
  /// receives "k" (otherwise "" — no label).
  static std::string prometheus_metric_name(const std::string& name,
                                            std::string& rank);

  /// Escapes a label value per the exposition format
  /// (backslash, double-quote, newline).
  static std::string prometheus_escape_label(const std::string& value);

 private:
  void serve_loop();
  void handle_connection(int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace dmis::obs
