// In-memory span recording for the campaign benchmark.
//
// Every call the benchmark makes into a repository layer is wrapped in a
// SpanScope named "<layer>.<call>" (e.g. "gate.trace_capture",
// "store.append"). A scope always adds its duration to the pass's PassLog,
// so untraced passes still get their outside-timed layer totals; with a
// Tracer attached it also keeps the span (id, parent, weight, interval) in
// memory for the self-time table and the Chrome trace written at the end.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none (the pass span)
  std::uint32_t pass = 0;
  std::uint32_t tid = 0;
  std::uint32_t weight = 1;  ///< threads this span stands for (see attribute)
  const char* name = "";     ///< static "<layer>.<call>"
  Clock::time_point t0{}, t1{};
};

/// Run-wide span store. Thread-safe.
class Tracer {
 public:
  std::uint32_t next_id() { return ids_.fetch_add(1) + 1; }
  void add(const Span& s);
  std::vector<Span> spans() const;

 private:
  std::atomic<std::uint32_t> ids_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-pass duration totals and samples by span name. Thread-safe.
class PassLog {
 public:
  PassLog(std::uint32_t pass, Tracer* tracer) : pass_(pass), tracer_(tracer) {}

  std::uint32_t pass() const { return pass_; }
  Tracer* tracer() const { return tracer_; }

  void add(const char* name, double seconds);
  /// Sum of every duration recorded under `name` (0 when none).
  double total(const std::string& name) const;
  /// Every duration recorded under `name`, in seconds.
  std::vector<double> samples(const std::string& name) const;

 private:
  std::uint32_t pass_;
  Tracer* tracer_;
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII span: stamps the start at construction, records at close() or
/// destruction, whichever comes first.
class SpanScope {
 public:
  SpanScope(PassLog& log, const char* name, std::uint32_t parent,
            std::uint32_t weight = 1);
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return span_.id; }
  /// Ends the span now (idempotent); returns its duration in seconds.
  double close();

 private:
  PassLog& log_;
  Span span_;
  bool open_ = true;
  double seconds_ = 0;
};

/// Wall time of one pass split over layers: at each instant the pass's time
/// is shared among the spans running then that have no running child,
/// each in proportion to its weight minus its running children (a span
/// standing for a 4-thread pool with one appending child keeps 3/4). The
/// shares add up to the pass span's duration exactly. Keys are layer names
/// (the span-name prefix before the first '.'); the benchmark's own
/// "bench.*" spans hold the unaccounted time.
std::map<std::string, double> attribute(const std::vector<Span>& pass_spans);

/// Writes spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os);

}  // namespace perfbench
