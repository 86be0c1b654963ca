// Span recorder for the benchmark's traced mode.
//
// The benchmark opens a span around every call it makes into an engine
// layer (sql, analysis, core, algos, ra, exec, baseline, graph), so the
// trace is measured from outside the program. Spans are kept in memory
// and written out once, at exit, as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing). Recording happens on the benchmark's
// own thread only, so no locking is needed.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `start`.
inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Span {
  std::string name;      ///< "<layer>.<step>", e.g. "core.compile"
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int parent = -1;       ///< index into Tracer::spans(); -1 = root
  int64_t query = -1;    ///< id shared by every span of one query

  double Millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  /// The part of the name before the first '.'.
  std::string Layer() const { return name.substr(0, name.find('.')); }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  /// Query id stamped on the spans opened from now on.
  void set_query(int64_t q) { query_ = q; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int Begin(std::string name);
  /// Closes span `id`, the innermost open one (a no-op for -1).
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, in milliseconds: its duration minus the
  /// part of that interval its child spans cover.
  std::vector<double> SelfMillis() const;

  /// Writes every span as a Chrome trace-event ("X" complete event) with
  /// its query id and parent in args. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  int64_t query_ = -1;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
