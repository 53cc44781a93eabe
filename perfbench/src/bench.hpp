// Shared machinery of the end-to-end load driver: timing, percentiles with
// a sample-count guard, process resource snapshots, host description, the
// span tracer, and the metric/result record every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/param_space.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Raised when a reported percentile lacks the samples to back it; the
/// driver then exits without printing a result.
class GuardError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Samples needed beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile `q` in (0, 1) of `v`. Throws GuardError unless
/// at least kMinTailSamples samples lie beyond the reported rank.
[[nodiscard]] double guarded_percentile(std::vector<double> v, double q,
                                        const std::string& what);
/// Plain median (no guard) for per-layer summaries; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Median of `reps` timed set-ups, each building the workload's state from
/// nothing; `build(last)` keeps its state only when `last` is set.
template <typename Fn>
double median_setup(int reps, Fn&& build) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    build(i + 1 == reps);
    s.push_back(seconds_since(t0));
  }
  return median(s);
}

/// Process-wide CPU, context-switch and /proc/stat counters at an instant.
struct ResourceSnapshot {
  Clock::time_point wall;
  double cpu_s = 0.0;          ///< user + sys of the whole process
  std::int64_t ctx_switches = 0; ///< voluntary + involuntary
  std::uint64_t stat_total = 0;  ///< all jiffies of the host
  std::uint64_t stat_steal = 0;
  std::uint64_t stat_iowait = 0;
  [[nodiscard]] static ResourceSnapshot take();
};

/// Deltas between two snapshots.
struct ResourceDelta {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  double steal_share = 0.0;
  double iowait_share = 0.0;
};
[[nodiscard]] ResourceDelta delta(const ResourceSnapshot& a,
                                  const ResourceSnapshot& b);

/// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mb();
/// Online CPUs.
[[nodiscard]] std::size_t host_cpus();

/// One recorded span. `job` is -1 for spans outside any job.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::int64_t job = -1;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span store, written out as JSON at exit. Disabled tracers
/// record nothing and hand out id 0.
class Tracer {
 public:
  void enable(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t record(const std::string& name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::int64_t job = -1);
  /// Reserves an id for a span whose children finish before it does.
  std::uint64_t reserve();
  /// Records a span under an id from reserve().
  void record_as(std::uint64_t id, const std::string& name,
                 Clock::time_point start, Clock::time_point end,
                 std::uint64_t parent = 0, std::int64_t job = -1);

  /// Durations in ms of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Writes {"origin_ns":..., "spans":[{id,parent,job,name,start_us,end_us}]}
  /// with times relative to `origin`. Returns false when the file cannot
  /// be written.
  bool write_json(const std::string& path, Clock::time_point origin) const;

 private:
  [[nodiscard]] std::vector<Span> spans() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// The process-wide tracer the workloads and the registry wrapper share.
[[nodiscard]] Tracer& tracer();

/// RAII root span (outside any job) on the global tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::string name_;
  std::uint64_t id_;
  Clock::time_point start_;
};

/// One metric as printed: a value and its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Free-form facts for the detail line (sample counts, host, notes);
  /// values are already-encoded JSON.
  std::map<std::string, std::string> detail;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& json_value) {
    detail[key] = json_value;
  }
  /// Records a failed correctness check (counted against `correct`, with
  /// the first few reasons kept for the detail line).
  void fail_check(const std::string& why);

 private:
  std::size_t reasons_ = 0;
};

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Reduced sizes for the self-test (fewer/smaller jobs, same code paths).
  bool small = false;
  /// serve-warm only: corrupt one cached row in a temp copy of the cache
  /// file and serve from the copy (self-test of the correctness gate).
  bool corrupt_row = false;
  /// Directory for sockets, cache files and span dumps (inside the
  /// checkout).
  std::string out_dir = ".bench_out";
  /// Committed reference outputs (calibrated-explore candidates).
  std::string data_dir = "perfbench/data";
  /// calibrated-explore only: write the reference file from this build
  /// instead of checking against it.
  bool write_reference = false;
};

/// Jobs in one timed phase: `per_second` x --seconds, a fixed count so a
/// faster build does the same work (`small_jobs` at the reduced size). A
/// traced run splits the same work between its untraced and traced phase.
[[nodiscard]] std::size_t phase_jobs(const RunConfig& cfg, double per_second,
                                     std::size_t small_jobs);

/// Bit-exact equality of two rows (doubles compared by their bits).
[[nodiscard]] bool same_bits(const std::vector<mss::sweep::Value>& a,
                             const std::vector<mss::sweep::Value>& b);

/// JSON string literal.
[[nodiscard]] std::string json_str(const std::string& s);
/// JSON number with every significant digit (non-finite -> 0 is never
/// printed: callers guard).
[[nodiscard]] std::string json_num(double v);

/// Samples and counters of one timed phase (a fixed number of jobs).
struct Phase {
  std::vector<double> job_ms;       ///< submit (or call) to last row
  std::vector<double> first_row_ms; ///< submit to first row
  std::vector<double> submit_ms;    ///< Submit RPC round trip (serve-*)
  std::vector<double> queue_wait_ms;///< first row - submit - first eval
  std::vector<double> row_gap_us;   ///< between consecutive rows of a job
  /// Per round (one drive of the clients; serve-warm runs several): the
  /// round's job and first-row samples, throughput and CPU per row.
  std::vector<std::vector<double>> round_job_ms;
  std::vector<std::vector<double>> round_first_row_ms;
  std::vector<double> round_rows_per_s;
  std::vector<double> round_cpu_us_per_row;
  double rows = 0.0;
  ResourceDelta res;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Sums over the phase's jobs of the server's exact JobStatus counters.
  double slices = 0.0;
  double evaluated = 0.0;
  double cache_hits = 0.0;
  double points = 0.0;
  /// Serial single-thread cost of the phase's evaluations (from the
  /// per-layer replay), for sweep.runner.efficiency.
  double serial_work_s = 0.0;
};

/// Adds `from`'s samples, counters and resource deltas to `to` (wall and
/// CPU add up; steal and iowait shares are weighted by wall time), so a
/// phase run in several rounds reports as one.
void merge_phase(Phase& to, const Phase& from);

/// End-to-end metrics of an untraced phase. A phase of several rounds
/// reports each metric as the median over its rounds (of each round's
/// percentile, throughput or CPU per row), so a host slowdown during a
/// minority of the rounds does not move it.
void report_end_to_end(RunResult& r, const Phase& p, double setup_s);

/// Per-layer metrics every workload derives the same way from its traced
/// phase, plus the tracing overhead against the untraced phase.
void report_phase_layers(RunResult& r, const Phase& untraced,
                         const Phase& traced, std::size_t pool_threads);

/// Writes the tracer's spans to <out_dir>/spans-<workload>-<seed>.json and
/// notes the path.
void write_spans(RunResult& r, const RunConfig& cfg, Clock::time_point origin);

/// Host facts recorded with every result.
void note_host(RunResult& r, const ResourceDelta& timed);

// --- workloads ---------------------------------------------------------------
RunResult run_serve_cold(const RunConfig& cfg);
RunResult run_serve_warm(const RunConfig& cfg);
RunResult run_calibrated_explore(const RunConfig& cfg);

} // namespace perfbench
