// calibrated-explore: repeated nvsim::explore over mats {1,2,4} with every
// candidate calibrated by array-scale SPICE transients (the paper's
// SPICE -> NVSim hand-off), called directly — no server, no cache.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "core/pdk.hpp"
#include "nvsim/optimizer.hpp"
#include "probes.hpp"
#include "server/cache.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using mss::nvsim::Candidate;
using mss::nvsim::Goal;
using mss::nvsim::MemoryEstimate;

constexpr std::size_t kCapacityBits = std::size_t(1) << 20;
constexpr std::size_t kWordBits = 512;
/// The SPICE equivalence-suite tolerance.
constexpr double kRelTol = 1e-9;

const std::vector<Goal> kGoals = {Goal::ReadLatency, Goal::WriteLatency,
                                  Goal::ReadEnergy,  Goal::WriteEnergy,
                                  Goal::Area,        Goal::ReadEdp};

/// The estimate fields a candidate is checked on, in file order.
std::vector<double> fields(const MemoryEstimate& e) {
  return {e.read_latency, e.write_latency, e.read_energy,
          e.write_energy, e.leakage_power, e.area};
}

double objective_of(Goal g, const std::vector<double>& f) {
  switch (g) {
    case Goal::ReadLatency: return f[0];
    case Goal::WriteLatency: return f[1];
    case Goal::ReadEnergy: return f[2];
    case Goal::WriteEnergy: return f[3];
    case Goal::Area: return f[5];
    case Goal::ReadEdp: return f[0] * f[2];
  }
  return 0.0;
}

bool close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(std::abs(a), std::abs(b));
}

/// One reference candidate: (mats, rows, cols) and its estimate fields.
struct RefCandidate {
  std::size_t mats = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<double> f;
};

std::string reference_path(const RunConfig& cfg, std::size_t spice) {
  return cfg.data_dir + "/explore_reference_" + std::to_string(spice) + ".txt";
}

std::vector<RefCandidate> load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::vector<RefCandidate> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    RefCandidate c;
    ls >> c.mats >> c.rows >> c.cols;
    c.f.resize(6);
    for (auto& x : c.f) ls >> x;
    if (!ls) throw std::runtime_error("malformed reference line: " + line);
    out.push_back(c);
  }
  if (out.empty()) throw std::runtime_error("empty reference " + path);
  return out;
}

void write_reference(const std::string& path, std::vector<Candidate> cands,
                     std::size_t spice) {
  std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& b) {
    return std::pair(a.mats, a.org.rows) < std::pair(b.mats, b.org.rows);
  });
  std::ofstream out(path);
  out << "# nvsim::explore(Pdk::mss45(), 1<<20, 512, mats {1,2,4}, "
         "spice_calibrate "
      << spice << "x" << spice << ")\n"
      << "# mats rows cols read_latency write_latency read_energy "
         "write_energy leakage area\n";
  char buf[64];
  for (const auto& c : cands) {
    out << c.mats << ' ' << c.org.rows << ' ' << c.org.cols;
    for (const double x : fields(c.estimate)) {
      std::snprintf(buf, sizeof buf, " %.17g", x);
      out << buf;
    }
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Empty when `cands` is the reference set in `goal` order; else why not.
std::string check(const std::vector<Candidate>& cands,
                  const std::vector<RefCandidate>& ref, Goal goal) {
  if (cands.size() != ref.size()) return "candidate count differs";
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const auto& c = cands[i];
    const auto it = std::find_if(ref.begin(), ref.end(), [&](const RefCandidate& r) {
      return r.mats == c.mats && r.rows == c.org.rows;
    });
    if (it == ref.end() || it->cols != c.org.cols) return "unknown organisation";
    const auto got = fields(c.estimate);
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (!close(got[k], it->f[k])) return "estimate field " + std::to_string(k) + " differs";
    }
    if (!close(c.objective, objective_of(goal, it->f))) return "objective differs";
    if (i > 0) {
      const auto& p = cands[i - 1];
      if (std::tuple(p.objective, p.mats, p.org.rows) >
          std::tuple(c.objective, c.mats, c.org.rows)) {
        return "candidates out of goal order";
      }
    }
  }
  return {};
}

mss::nvsim::ArrayOrg org_of(const RefCandidate& c) {
  mss::nvsim::ArrayOrg org;
  org.rows = c.rows;
  org.cols = c.cols;
  org.word_bits = kWordBits / c.mats;
  return org;
}

} // namespace

RunResult run_calibrated_explore(const RunConfig& cfg) {
  RunResult r;
  const auto origin = Clock::now();
  const std::size_t spice = cfg.small ? 16 : 64;
  mss::nvsim::ExploreOptions opt;
  opt.mats = {1, 2, 4};
  opt.spice_calibrate = true;
  opt.spice_rows = spice;
  opt.spice_cols = spice;
  const auto pdk = mss::core::Pdk::mss45();
  const auto explore = [&](Goal g) {
    return mss::nvsim::explore(pdk, kCapacityBits, kWordBits, g, opt);
  };

  if (cfg.write_reference) {
    write_reference(reference_path(cfg, spice), explore(Goal::ReadEdp), spice);
    r.attempted = 1;
    r.set("setup_s", 0.0, "s");
    return r;
  }
  const auto ref = load_reference(reference_path(cfg, spice));

  // Set-up: a warm-up call (thread pool start, first-touch allocations).
  std::vector<std::vector<Candidate>> warm_ups;
  const double setup_s = median_setup(kSetupReps, [&](bool) {
    warm_ups.push_back(explore(Goal::ReadEdp));
  });
  for (const auto& warm : warm_ups) {
    const std::string why = check(warm, ref, Goal::ReadEdp);
    if (!why.empty()) r.fail_check("warm-up explore: " + why);
  }

  // Every calibration must switch and converge. All candidates clamp to
  // the same spice x spice array, so each distinct clamp is replayed once.
  std::vector<Calibration> calibrations;
  {
    std::vector<std::pair<std::size_t, std::size_t>> seen;
    for (const auto& c : ref) {
      const auto clamp = std::pair(std::min(c.rows, spice), std::min(c.cols, spice));
      if (std::find(seen.begin(), seen.end(), clamp) != seen.end()) continue;
      seen.push_back(clamp);
      calibrations.push_back(replay_calibration(org_of(c), spice, spice));
      const auto& w = calibrations.back().write;
      if (!w.switched || !w.converged) {
        r.fail_check("calibration did not switch and converge");
      }
    }
  }

  const std::size_t calls = phase_jobs(cfg, 3.0, 100);
  mss::util::Rng pick(cfg.seed);
  std::int64_t next_job = 0;
  const auto run_phase = [&](Phase& p) {
    // The seed picks each call's goal: the same evaluations, ranked anew.
    std::vector<Goal> goals;
    for (std::size_t k = 0; k < calls; ++k) {
      goals.push_back(kGoals[pick.uniform_u64(kGoals.size())]);
    }
    const auto before = ResourceSnapshot::take();
    for (const Goal g : goals) {
      const std::int64_t job = next_job++;
      const auto t0 = Clock::now();
      std::vector<Candidate> cands;
      std::string why;
      try {
        cands = explore(g);
      } catch (const std::exception& e) {
        why = e.what();
      }
      const auto t1 = Clock::now();
      tracer().record("call.explore", t0, t1, 0, job);
      ++p.attempted;
      if (why.empty()) why = check(cands, ref, g);
      if (!why.empty()) {
        ++p.failed;
        r.fail_check("explore call " + std::to_string(job) + ": " + why);
        continue;
      }
      // A blocking call: its first row reaches the caller with the last.
      p.job_ms.push_back(ms_between(t0, t1));
      p.first_row_ms.push_back(ms_between(t0, t1));
      p.rows += double(cands.size());
      p.evaluated += double(cands.size());
      p.points += double(cands.size());
    }
    p.res = delta(before, ResourceSnapshot::take());
  };

  Phase plain;
  run_phase(plain);
  r.attempted = plain.attempted;
  r.failed = plain.failed;
  note_host(r, plain.res);
  if (!cfg.trace) {
    report_end_to_end(r, plain, setup_s);
    return r;
  }

  tracer().enable(true);
  Phase traced;
  run_phase(traced);
  r.attempted += traced.attempted;
  r.failed += traced.failed;

  // Serial replay of the same candidates, layer by layer.
  std::vector<double> est_ms;
  for (const auto& c : ref) {
    const ScopedSpan span("replay.estimate_spice");
    const auto t0 = Clock::now();
    (void)mss::nvsim::ArrayModel(pdk, org_of(c)).estimate_spice(spice, spice);
    est_ms.push_back(1e3 * seconds_since(t0));
  }
  double serial_call_s = 0.0;
  for (const double ms : est_ms) serial_call_s += 1e-3 * ms;
  traced.serial_work_s = serial_call_s * double(traced.job_ms.size());
  r.set("nvsim.estimate_spice_ms", median(est_ms), "ms");
  report_calibration(r, calibrations.front());

  // Server-side layers on the rows this workload would serve as
  // nvsim.explore (the explore columns, keyed as the server keys them).
  const auto space = mss::nvsim::organisation_space(kCapacityBits, kWordBits, opt.mats);
  std::vector<KeyedRow> keyed;
  std::vector<Row> rows;
  for (std::size_t i = 0; i < space.size(); ++i) {
    const auto p = space.at(i);
    const auto it = std::find_if(ref.begin(), ref.end(), [&](const RefCandidate& c) {
      return std::int64_t(c.mats) == p.integer("mats") &&
             std::int64_t(c.rows) == p.integer("rows");
    });
    if (it == ref.end()) continue;
    Row row = {std::int64_t(it->mats), std::int64_t(it->rows), std::int64_t(it->cols)};
    for (const double x : it->f) row.emplace_back(x);
    row.emplace_back(it->f[0] * it->f[2]);
    keyed.push_back({mss::server::cache_key("nvsim.explore", 1, 0, p.key()), row});
    rows.push_back(row);
  }
  probe_cache(r, keyed, "", cfg.out_dir);
  probe_wire(r, rows);
  probe_sweep(r, {space}, mss::nvsim::servable_explore().columns, rows);
  (void)probe_magpie(r, fixed_magpie_points(), true);
  report_phase_layers(r, plain, traced, mss::util::ThreadPool::global().size());
  tracer().enable(false);
  write_spans(r, cfg, origin);
  return r;
}

} // namespace perfbench
