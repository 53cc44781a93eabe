#include "probes.hpp"

#include <algorithm>
#include <filesystem>

#include "core/pdk.hpp"
#include "magpie/mcpat.hpp"
#include "magpie/scenario.hpp"
#include "magpie/sim.hpp"
#include "server/cache.hpp"
#include "server/wire.hpp"
#include "sweep/result_table.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using mss::sweep::Value;

mss::sweep::ParamSpace magpie_space(std::size_t first_kernel,
                                    std::size_t kernels_n,
                                    std::size_t scenarios_n) {
  const auto kernels = mss::magpie::parsec_kernels();
  const auto scenarios = mss::magpie::all_scenarios();
  std::vector<std::int64_t> ki;
  std::vector<std::string> kn;
  for (std::size_t k = first_kernel; k < first_kernel + kernels_n; ++k) {
    ki.push_back(std::int64_t(k));
    kn.push_back(kernels.at(k).name);
  }
  std::vector<std::int64_t> si;
  std::vector<std::string> sn;
  for (std::size_t s = 0; s < scenarios_n; ++s) {
    si.push_back(std::int64_t(s));
    sn.push_back(mss::magpie::to_string(scenarios.at(s)));
  }
  mss::sweep::ParamSpace space;
  space.zip({mss::sweep::Axis::list("kernel_index", std::move(ki)),
             mss::sweep::Axis::list("kernel", std::move(kn))})
      .zip({mss::sweep::Axis::list("scenario_index", std::move(si)),
            mss::sweep::Axis::list("scenario", std::move(sn))});
  return space;
}

std::vector<mss::sweep::Point> fixed_magpie_points() {
  const auto space = magpie_space(0);
  std::vector<mss::sweep::Point> points;
  for (std::size_t i = 0; i < 4; ++i) points.push_back(space.at(i));
  return points;
}

void probe_cache(RunResult& r, const std::vector<KeyedRow>& rows,
                 const std::string& replay_source, const std::string& dir) {
  const ScopedSpan span("probe.cache");
  const std::string fresh = dir + "/probe-insert.mssc";
  const std::string copy = dir + "/probe-replay.mssc";
  fs::remove(fresh);
  {
    mss::server::ResultCache cache(fresh);
    const auto t0 = Clock::now();
    for (const auto& kr : rows) cache.insert(kr.key, kr.row);
    r.set("server.cache.insert_us",
          1e6 * seconds_since(t0) / double(std::max<std::size_t>(rows.size(), 1)),
          "us");
  }
  fs::copy_file(replay_source.empty() ? fresh : replay_source, copy,
                fs::copy_options::overwrite_existing);
  const auto t0 = Clock::now();
  const mss::server::ResultCache replayed(copy);
  r.set("server.cache.replay_s", seconds_since(t0), "s");
  r.set("server.cache.entries", double(replayed.entries()), "count");
  r.set("server.cache.bytes_per_row",
        double(replayed.file_bytes()) /
            double(std::max<std::size_t>(replayed.entries(), 1)),
        "B");

  std::size_t misses = 0;
  const double per = seconds_per_call([&] {
    for (const auto& kr : rows) {
      const auto hit = replayed.lookup(kr.key);
      if (!hit || !same_bits(*hit, kr.row)) ++misses;
    }
  });
  if (misses != 0) {
    r.fail_check("cache probe: " + std::to_string(misses) +
                 " keys missing or different after replay");
  }
  r.set("server.cache.lookup_us",
        1e6 * per / double(std::max<std::size_t>(rows.size(), 1)), "us");
  fs::remove(fresh);
  fs::remove(copy);
}

void probe_wire(RunResult& r, const std::vector<Row>& rows) {
  const ScopedSpan span("probe.wire");
  const double n = double(std::max<std::size_t>(rows.size(), 1));
  std::string bytes;
  const double enc = seconds_per_call([&] {
    mss::server::WireWriter w;
    for (const auto& row : rows) {
      w.u8(std::uint8_t(mss::server::FrameType::Row));
      w.u32(std::uint32_t(row.size()));
      for (const auto& v : row) w.value(v);
    }
    bytes = w.take();
  });
  std::size_t decoded = 0;
  const double dec = seconds_per_call([&] {
    mss::server::WireReader rd(bytes);
    decoded = 0;
    while (rd.remaining() > 0) {
      (void)rd.u8();
      const std::uint32_t cells = rd.u32();
      for (std::uint32_t c = 0; c < cells; ++c) (void)rd.value();
      ++decoded;
    }
  });
  if (decoded != rows.size()) r.fail_check("wire probe: row count mismatch");
  r.set("server.wire.encode_ns_per_row", 1e9 * enc / n, "ns");
  r.set("server.wire.decode_ns_per_row", 1e9 * dec / n, "ns");
  // + the u32 length prefix every frame carries on the socket.
  r.set("server.wire.bytes_per_row", double(bytes.size()) / n + 4.0, "B");
}

void probe_sweep(RunResult& r, const std::vector<mss::sweep::ParamSpace>& spaces,
                 const std::vector<std::string>& columns,
                 const std::vector<Row>& rows) {
  const ScopedSpan span("probe.sweep");
  std::vector<mss::sweep::Point> points;
  for (const auto& s : spaces) {
    for (std::size_t i = 0; i < s.size(); ++i) points.push_back(s.at(i));
  }
  std::size_t chars = 0;
  const double key = seconds_per_call([&] {
    for (const auto& p : points) chars += p.key().size();
  });
  r.set("sweep.point_key_ns",
        1e9 * key / double(std::max<std::size_t>(points.size(), 1)), "ns");

  mss::sweep::ResultTable table(columns);
  for (const auto& row : rows) table.add_row(row);
  const double emit = seconds_per_call([&] { chars += table.csv().size(); });
  r.set("sweep.table_emit_us_per_row",
        1e6 * emit / double(std::max<std::size_t>(rows.size(), 1)), "us");
  if (chars == 0) r.fail_check("sweep probe: empty output");
}

std::map<std::string, double> probe_magpie(
    RunResult& r, const std::vector<mss::sweep::Point>& points,
    bool via_evaluate) {
  using namespace mss::magpie;
  const ScopedSpan span("probe.magpie");
  const auto kernels = parsec_kernels();
  const auto pdk = mss::core::Pdk::mss45();
  const SweepOptions defaults;
  std::vector<SystemConfig> systems;
  for (const Scenario s : all_scenarios()) {
    systems.push_back(make_scenario(s, pdk, defaults.iso_area_factor));
  }

  std::vector<double> eval_ms;
  if (via_evaluate) {
    const auto exp = servable_scenario_sweep();
    mss::util::Rng rng(0);
    (void)exp.evaluate(points.front(), rng); // lazy platform derivation
    for (const auto& p : points) {
      const auto t0 = Clock::now();
      (void)exp.evaluate(p, rng);
      eval_ms.push_back(1e3 * seconds_since(t0));
    }
    r.set("magpie.eval_ms_per_point", median(eval_ms), "ms");
  }

  std::map<std::string, double> serial_ms;
  std::vector<double> sim_ms;
  std::vector<double> rollup_ms;
  double instr = 0.0;
  double sim_s = 0.0;
  double l1 = 0.0;
  for (const auto& p : points) {
    const auto& sys = systems.at(std::size_t(p.integer("scenario_index")));
    const auto& kernel = kernels.at(std::size_t(p.integer("kernel_index")));
    const auto t0 = Clock::now();
    const ActivityReport act = simulate(sys, kernel, defaults.seed);
    const auto t1 = Clock::now();
    const EnergyBreakdown energy = energy_rollup(sys, act);
    const auto t2 = Clock::now();
    if (!(energy.total() > 0.0)) r.fail_check("magpie probe: zero energy");
    sim_ms.push_back(ms_between(t0, t1));
    rollup_ms.push_back(ms_between(t1, t2));
    serial_ms[p.key()] = ms_between(t0, t2);
    instr += double(act.little.instructions + act.big.instructions);
    sim_s += std::chrono::duration<double>(t1 - t0).count();
    l1 += double(act.little.l1_accesses + act.big.l1_accesses);
  }
  const double n = double(std::max<std::size_t>(points.size(), 1));
  r.set("magpie.sim_ms_per_point", median(sim_ms), "ms");
  r.set("magpie.rollup_ms_per_point", median(rollup_ms), "ms");
  r.set("magpie.sim_minstr_per_host_s", instr / sim_s / 1e6, "Minstr/s");
  r.set("magpie.l1_accesses_per_point", l1 / n, "count");
  return serial_ms;
}

Calibration replay_calibration(const mss::nvsim::ArrayOrg& org,
                               std::size_t max_rows, std::size_t max_cols) {
  const ScopedSpan span("probe.calibration");
  const auto pdk = mss::core::Pdk::mss45();
  const mss::nvsim::ArrayModel model(pdk, org);
  // The options ArrayModel::estimate_spice builds (the cell pitch and line
  // loading defaults of ArrayNetlistOptions are the nvsim geometry's).
  mss::cells::ArrayNetlistOptions o;
  o.rows = std::min(org.rows, max_rows);
  o.cols = std::min(org.cols, max_cols);
  o.target_row = o.rows - 1;
  const double pulse = std::max(3.0 * model.cell().t_switch, 2e-9);
  const double t_read = 2e-9;

  Calibration c;
  auto t0 = Clock::now();
  {
    const auto net = mss::cells::build_array_write_netlist(
        pdk, o, mss::core::WriteDirection::ToAntiparallel, pulse);
    c.write_build_ms = 1e3 * seconds_since(t0);
  }
  t0 = Clock::now();
  {
    const auto net = mss::cells::build_array_read_netlist(
        pdk, o, mss::core::MtjState::Parallel, t_read);
    c.read_build_ms = 1e3 * seconds_since(t0);
  }
  t0 = Clock::now();
  c.write = mss::cells::characterize_array_write(
      pdk, o, mss::core::WriteDirection::ToAntiparallel, pulse);
  c.write_char_ms = 1e3 * seconds_since(t0);
  t0 = Clock::now();
  c.read = mss::cells::characterize_array_read(pdk, o, t_read);
  c.read_char_ms = 1e3 * seconds_since(t0);
  return c;
}

void report_calibration(RunResult& r, const Calibration& c) {
  r.set("cells.write_netlist_build_ms", c.write_build_ms, "ms");
  r.set("cells.read_netlist_build_ms", c.read_build_ms, "ms");
  r.set("cells.write_char_ms", c.write_char_ms, "ms");
  r.set("cells.read_char_ms", c.read_char_ms, "ms");
  r.set("spice.write.dim", double(c.write.dim), "count");
  r.set("spice.write.steps", double(c.write.steps), "count");
  r.set("spice.write.factor_cols_per_step",
        double(c.write.factor_cols) /
            double(std::max<std::size_t>(c.write.steps, 1)),
        "count");
  r.set("spice.write.supernode_col_share",
        double(c.write.supernode_cols) /
            double(std::max<std::size_t>(c.write.dim, 1)),
        "ratio");
  r.set("spice.read.factor_cols", double(c.read.factor_cols), "count");
  r.note("spice_write_backend", json_str(c.write.backend));
  r.note("spice_read_backend", json_str(c.read.backend));
}

} // namespace perfbench
