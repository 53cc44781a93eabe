#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double guarded_percentile(std::vector<double> v, double q,
                          const std::string& what) {
  const std::size_t n = v.size();
  // Nearest rank (1-based) and the samples strictly above it.
  const auto rank = std::size_t(std::ceil(q * double(n)));
  if (n == 0 || rank == 0 || n - rank < kMinTailSamples) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s: p%.0f needs %zu samples beyond it, have %zu of %zu",
                  what.c_str(), q * 100.0, kMinTailSamples,
                  n > rank ? n - rank : 0, n);
    throw GuardError(buf);
  }
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(rank - 1), v.end());
  return v[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + std::ptrdiff_t(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo = *std::max_element(v.begin(), v.begin() + std::ptrdiff_t(mid));
  return 0.5 * (lo + hi);
}

ResourceSnapshot ResourceSnapshot::take() {
  ResourceSnapshot s;
  s.wall = Clock::now();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = double(ru.ru_utime.tv_sec) + 1e-6 * double(ru.ru_utime.tv_usec) +
            double(ru.ru_stime.tv_sec) + 1e-6 * double(ru.ru_stime.tv_usec);
  s.ctx_switches = std::int64_t(ru.ru_nvcsw) + std::int64_t(ru.ru_nivcsw);
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  std::uint64_t f[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (auto& x : f) stat >> x;
    for (const auto x : f) s.stat_total += x;
    s.stat_iowait = f[4];
    s.stat_steal = f[7];
  }
  return s;
}

ResourceDelta delta(const ResourceSnapshot& a, const ResourceSnapshot& b) {
  ResourceDelta d;
  d.wall_s = std::chrono::duration<double>(b.wall - a.wall).count();
  d.cpu_s = b.cpu_s - a.cpu_s;
  d.ctx_switches = double(b.ctx_switches - a.ctx_switches);
  const double total = double(b.stat_total - a.stat_total);
  if (total > 0) {
    d.steal_share = double(b.stat_steal - a.stat_steal) / total;
    d.iowait_share = double(b.stat_iowait - a.stat_iowait) / total;
  }
  return d;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return double(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
    }
  }
  return 0.0;
}

std::size_t host_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? std::size_t(n) : std::size_t(1);
}

// --- tracer ------------------------------------------------------------------

std::uint64_t Tracer::record(const std::string& name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::int64_t job) {
  if (!enabled_) return 0;
  const std::lock_guard lock(m_);
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, job, name, start, end});
  return id;
}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  const std::lock_guard lock(m_);
  return next_id_++;
}

void Tracer::record_as(std::uint64_t id, const std::string& name,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent, std::int64_t job) {
  if (!enabled_ || id == 0) return;
  const std::lock_guard lock(m_);
  spans_.push_back(Span{id, parent, job, name, start, end});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard lock(m_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(m_);
  return spans_;
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(m_);
  return spans_.size();
}

bool Tracer::write_json(const std::string& path,
                        Clock::time_point origin) const {
  const auto all = spans();
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << ",\"name\":" << json_str(s.name)
        << ",\"start_us\":" << json_num(us(s.start))
        << ",\"end_us\":" << json_num(us(s.end)) << "}";
  }
  out << "\n]}\n";
  return bool(out);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

ScopedSpan::ScopedSpan(std::string name)
    : name_(std::move(name)), id_(tracer().reserve()), start_(Clock::now()) {}

ScopedSpan::~ScopedSpan() {
  tracer().record_as(id_, name_, start_, Clock::now());
}

// --- results -----------------------------------------------------------------

void RunResult::fail_check(const std::string& why) {
  correct = false;
  if (reasons_ < 5) {
    detail["failure_" + std::to_string(reasons_)] = json_str(why);
  }
  ++reasons_;
  detail["failed_checks"] = std::to_string(reasons_);
}

std::size_t phase_jobs(const RunConfig& cfg, double per_second,
                       std::size_t small_jobs) {
  const std::size_t n =
      cfg.small ? small_jobs
                : std::size_t(std::ceil(double(cfg.seconds) * per_second));
  return cfg.trace ? (n + 1) / 2 : n;
}

bool same_bits(const std::vector<mss::sweep::Value>& a,
               const std::vector<mss::sweep::Value>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index() != b[i].index()) return false;
    if (const auto* x = std::get_if<double>(&a[i])) {
      const double y = std::get<double>(b[i]);
      if (std::memcmp(x, &y, sizeof y) != 0) return false;
    } else if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void merge_phase(Phase& to, const Phase& from) {
  const auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(to.job_ms, from.job_ms);
  append(to.first_row_ms, from.first_row_ms);
  append(to.submit_ms, from.submit_ms);
  append(to.queue_wait_ms, from.queue_wait_ms);
  append(to.row_gap_us, from.row_gap_us);
  to.round_job_ms.insert(to.round_job_ms.end(), from.round_job_ms.begin(),
                         from.round_job_ms.end());
  to.round_first_row_ms.insert(to.round_first_row_ms.end(),
                               from.round_first_row_ms.begin(),
                               from.round_first_row_ms.end());
  append(to.round_rows_per_s, from.round_rows_per_s);
  append(to.round_cpu_us_per_row, from.round_cpu_us_per_row);
  to.rows += from.rows;
  to.attempted += from.attempted;
  to.failed += from.failed;
  to.slices += from.slices;
  to.evaluated += from.evaluated;
  to.cache_hits += from.cache_hits;
  to.points += from.points;
  to.serial_work_s += from.serial_work_s;
  const double wall = to.res.wall_s + from.res.wall_s;
  if (wall > 0) {
    to.res.steal_share = (to.res.steal_share * to.res.wall_s +
                          from.res.steal_share * from.res.wall_s) / wall;
    to.res.iowait_share = (to.res.iowait_share * to.res.wall_s +
                           from.res.iowait_share * from.res.wall_s) / wall;
  }
  to.res.wall_s = wall;
  to.res.cpu_s += from.res.cpu_s;
  to.res.ctx_switches += from.res.ctx_switches;
}

void report_end_to_end(RunResult& r, const Phase& p, double setup_s) {
  const bool rounds = p.round_rows_per_s.size() > 1;
  const auto pct = [&](const std::vector<double>& pooled,
                       const std::vector<std::vector<double>>& per_round,
                       double q, const std::string& what) {
    if (!rounds) return guarded_percentile(pooled, q, what);
    std::vector<double> v;
    for (const auto& s : per_round) v.push_back(guarded_percentile(s, q, what));
    return median(v);
  };
  r.set("setup_s", setup_s, "s");
  r.set("job_p50_ms", pct(p.job_ms, p.round_job_ms, 0.50, "job_ms"), "ms");
  r.set("job_p90_ms", pct(p.job_ms, p.round_job_ms, 0.90, "job_ms"), "ms");
  r.set("first_row_p50_ms",
        pct(p.first_row_ms, p.round_first_row_ms, 0.50, "first_row_ms"), "ms");
  r.set("first_row_p90_ms",
        pct(p.first_row_ms, p.round_first_row_ms, 0.90, "first_row_ms"), "ms");
  r.set("rows_per_s",
        rounds ? median(p.round_rows_per_s) : p.rows / p.res.wall_s, "1/s");
  r.set("cpu_us_per_row",
        rounds ? median(p.round_cpu_us_per_row) : 1e6 * p.res.cpu_s / p.rows,
        "us");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  r.note("job_samples", std::to_string(p.job_ms.size()));
  if (rounds) {
    std::string per = "[";
    for (const double v : p.round_rows_per_s) {
      per += (per.size() > 1 ? "," : "") + json_num(v);
    }
    r.note("round_rows_per_s", per + "]");
  }
  r.note("first_row_samples", std::to_string(p.first_row_ms.size()));
  r.note("timed_rows", json_num(p.rows));
  r.note("timed_wall_s", json_num(p.res.wall_s));
}

void report_phase_layers(RunResult& r, const Phase& untraced,
                         const Phase& traced, std::size_t pool_threads) {
  const double jobs = double(std::max<std::size_t>(traced.job_ms.size(), 1));
  r.set("server.client.submit_ms", median(traced.submit_ms), "ms");
  r.set("server.queue.wait_ms", median(traced.queue_wait_ms), "ms");
  r.set("server.client.row_gap_us", median(traced.row_gap_us), "us");
  r.set("server.executor.slices_per_job", traced.slices / jobs, "count");
  r.set("server.executor.evaluated_per_job", traced.evaluated / jobs, "count");
  r.set("server.cache.hit_ratio",
        traced.points > 0 ? traced.cache_hits / traced.points : 0.0, "ratio");
  r.set("process.ctx_switches_per_job", traced.res.ctx_switches / jobs,
        "count");
  r.set("util.pool.busy_share",
        traced.res.cpu_s / (traced.res.wall_s * double(host_cpus())), "ratio");
  r.set("sweep.runner.efficiency",
        traced.serial_work_s / (traced.res.wall_s * double(pool_threads)),
        "ratio");
  const double plain = median(untraced.job_ms);
  const double with = median(traced.job_ms);
  r.set("trace.job_p50_untraced_ms", plain, "ms");
  r.set("trace.job_p50_traced_ms", with, "ms");
  r.set("trace.overhead_share", plain > 0 ? with / plain - 1.0 : 0.0, "ratio");
}

void write_spans(RunResult& r, const RunConfig& cfg, Clock::time_point origin) {
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + "-" +
                           std::to_string(cfg.seed) + ".json";
  if (tracer().write_json(path, origin)) {
    r.note("spans_file", json_str(path));
    r.note("spans", std::to_string(tracer().size()));
  } else {
    r.fail_check("cannot write " + path);
  }
}

void note_host(RunResult& r, const ResourceDelta& timed) {
  r.note("host_nproc", std::to_string(host_cpus()));
  r.note("host_hw_threads",
         std::to_string(std::thread::hardware_concurrency()));
  r.note("build_type", json_str(PERFBENCH_BUILD_TYPE));
  r.note("build_flags", json_str(PERFBENCH_CXX_FLAGS));
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) == 3) {
    std::string avg = "[";
    for (int i = 0; i < 3; ++i) {
      if (i > 0) avg += ',';
      avg += json_num(load[i]);
    }
    r.note("loadavg", avg + "]");
  }
  r.note("cpu_steal_share", json_num(timed.steal_share));
  r.note("cpu_iowait_share", json_num(timed.iowait_share));
}

} // namespace perfbench
