#include "common/logging.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "common/knobs.hpp"

namespace dmis {
namespace {

std::atomic<int> g_level{
    static_cast<int>(knobs::get<LogLevel>(Knob::kLogLevel))};
std::mutex g_emit_mutex;
LogSink g_sink;  // guarded by g_emit_mutex; empty -> stderr
std::atomic<int> g_next_thread_tag{0};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void set_log_level(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

int thread_tag() {
  thread_local const int tag =
      g_next_thread_tag.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

void set_log_sink(LogSink sink) {
  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  g_sink = std::move(sink);
}

void log_line(LogLevel level, const std::string& message) {
  using Clock = std::chrono::system_clock;
  const auto now = Clock::now();
  const auto secs = std::chrono::time_point_cast<std::chrono::seconds>(now);
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - secs)
          .count();
  const std::time_t tt = Clock::to_time_t(now);
  std::tm tm_buf{};
  localtime_r(&tt, &tm_buf);
  char stamp[32];
  std::strftime(stamp, sizeof(stamp), "%H:%M:%S", &tm_buf);

  char prefix[64];
  std::snprintf(prefix, sizeof(prefix), "[%s.%03d %s t%d] ", stamp,
                static_cast<int>(ms), level_name(level), thread_tag());

  const std::lock_guard<std::mutex> lock(g_emit_mutex);
  if (g_sink) {
    g_sink(level, std::string(prefix) + message);
  } else {
    std::fprintf(stderr, "%s%s\n", prefix, message.c_str());
  }
}

}  // namespace dmis
