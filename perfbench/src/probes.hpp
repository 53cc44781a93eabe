// Per-layer replays for the traced run. Each probe calls one layer's public
// functions directly, on the rows, keys and points the workload produced
// (or, for a layer the workload does not reach, on a fixed small input),
// and reports that layer's metrics. Probes run after the timed phase, so
// they never perturb the end-to-end numbers.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cells/characterization.hpp"
#include "nvsim/array_model.hpp"
#include "sweep/param_space.hpp"

namespace perfbench {

using Row = std::vector<mss::sweep::Value>;

/// A row and the full cache key it is stored under.
struct KeyedRow {
  std::string key;
  Row row;
};

/// The magpie.scenario space of PARSEC kernels [first, first + kernels) x
/// the first `scenarios` L2 scenarios, kernel-major.
[[nodiscard]] mss::sweep::ParamSpace magpie_space(std::size_t first_kernel,
                                                  std::size_t kernels = 4,
                                                  std::size_t scenarios = 4);
/// Kernel 0 on each of the four scenarios: the magpie probe input of the
/// workloads that do not evaluate magpie.scenario themselves.
[[nodiscard]] std::vector<mss::sweep::Point> fixed_magpie_points();

/// server.cache.*: file-backed inserts of `rows` into a fresh cache, replay
/// of a copy of `replay_source` (the freshly written file when empty),
/// lookups of every key against the replayed copy.
void probe_cache(RunResult& r, const std::vector<KeyedRow>& rows,
                 const std::string& replay_source, const std::string& dir);

/// server.wire.*: Row-frame encode and decode of `rows`.
void probe_wire(RunResult& r, const std::vector<Row>& rows);

/// sweep.point_key_ns over every point of `spaces`, and
/// sweep.table_emit_us_per_row for ResultTable::csv() of `rows`.
void probe_sweep(RunResult& r, const std::vector<mss::sweep::ParamSpace>& spaces,
                 const std::vector<std::string>& columns,
                 const std::vector<Row>& rows);

/// magpie.*: serial replay of magpie::simulate and energy_rollup on the
/// (kernel_index, scenario_index) points of `points`. When `via_evaluate`
/// is set the served magpie.scenario evaluate() is also timed per point
/// (magpie.eval_ms_per_point). Returns serial ms (sim + rollup) per
/// Point::key().
std::map<std::string, double> probe_magpie(
    RunResult& r, const std::vector<mss::sweep::Point>& points,
    bool via_evaluate);

/// The SPICE calibration explore() runs for one organisation, replayed
/// serially with its two characterisations exposed.
struct Calibration {
  mss::cells::ArrayWriteResult write;
  mss::cells::ArrayReadResult read;
  double write_build_ms = 0.0;
  double read_build_ms = 0.0;
  double write_char_ms = 0.0;
  double read_char_ms = 0.0;
};

/// Runs the calibration ArrayModel::estimate_spice performs at
/// `max_rows` x `max_cols` for `org` (same netlist options, pulse and read
/// window), timing netlist builds and characterisations separately.
[[nodiscard]] Calibration replay_calibration(const mss::nvsim::ArrayOrg& org,
                                             std::size_t max_rows,
                                             std::size_t max_cols);

/// Reports cells.* and spice.* from a calibration replay.
void report_calibration(RunResult& r, const Calibration& c);

/// Runs `fn` repeatedly until at least `min_s` seconds have passed (and at
/// least once); returns seconds per call.
template <typename Fn>
double seconds_per_call(Fn&& fn, double min_s = 0.02) {
  const auto t0 = Clock::now();
  std::size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (seconds_since(t0) < min_s);
  return seconds_since(t0) / double(calls);
}

} // namespace perfbench
