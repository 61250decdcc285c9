// Shared infrastructure of the repository benchmark: run options, the
// result record printed as the last stdout line, wall clocks, order
// statistics, process memory, and the span tracer used by traced runs.
//
// Every layer is measured from outside: spans wrap calls into a module's
// public functions from the benchmark's own files, never from product
// code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// ---- run options and result ---------------------------------------------

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans.
  std::string trace_dir = ".bench_build/traces";
};

/// What one run reports. `attempted`/`failed` count the correctness
/// checks and served records/frames of the run; any failure makes the
/// process exit non-zero.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records one check; a false `ok` is logged to stderr with `what`.
  void check(bool ok, const std::string& what);
  /// Adds work items (records or frames) to the attempted/failed tally.
  void tally(std::uint64_t attempted, std::uint64_t failed);

  bool passed() const { return failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The one-line JSON result: correct, attempted, failed, metrics.
  std::string json() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- clocks and statistics -----------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Median of a non-empty sample (mean of the middle pair when even).
double median(std::vector<double> v);

/// Nearest-rank quantile of a non-empty sample, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mb();

/// CPU seconds (user + system) a thread of this process has used, read
/// from /proc/self/task/<tid>/stat; 0 when the thread is gone.
double thread_cpu_seconds(int tid);

/// Thread ids currently in /proc/self/task.
std::vector<int> thread_ids();

/// CPU seconds (user + system) of the whole process.
double process_cpu_seconds();

/// CPU seconds of the calling thread.
double this_thread_cpu_seconds();

// ---- tracing ---------------------------------------------------------------

/// One recorded span: [start, end) on `thread`, caused by `parent`
/// (0 = root).
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store. Spans are coarse (one per public call into a
/// layer, never per record), so a mutex-guarded vector is enough; hot
/// per-record calls are timed into counters instead (PredictorProbe).
class Tracer {
 public:
  /// The active tracer, or null in an untraced run. Span is a no-op
  /// while this is null.
  static Tracer* active();
  static void activate(Tracer* tracer);

  std::uint32_t begin(const char* name, std::uint32_t parent);
  void end(std::uint32_t id);

  /// Spans opened on a thread with no open span of its own (thread-pool
  /// workers) are parented here — set by the span that fans work out.
  void set_fork_parent(std::uint32_t id) { fork_parent_.store(id); }
  std::uint32_t fork_parent() const { return fork_parent_.load(); }

  std::vector<SpanRecord> spans() const;

  /// Self time per layer (the span-name prefix before the first '.'):
  /// each span's duration minus the part of it covered by the union of
  /// its children's intervals.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Total duration of every span with this exact name, seconds.
  double total_seconds(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::atomic<std::uint32_t> fork_parent_{0};
};

/// RAII span around one call into a layer. Names are "<layer>.<call>".
class Span {
 public:
  explicit Span(const char* name, bool fork_point = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t id_ = 0;
  std::uint32_t saved_fork_ = 0;
  bool fork_point_ = false;
};

}  // namespace perfbench
