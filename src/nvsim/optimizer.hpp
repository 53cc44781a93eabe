// Organisation optimizer: NVSim's "find the best subarray organisation for
// a target" role, which VAET-STT exposes as "optimization settings (e.g.
// buffer design optimization) and various design constraints" for design
// space exploration before fabrication.
//
// The exploration is declarative: organisation_space() enumerates every
// feasible (mats, rows) organisation as a sweep::ParamSpace and explore()
// evaluates it through sweep::Runner — in parallel across the thread
// pool, bit-identical for any thread count. Optionally the candidates are
// calibrated with array-scale SPICE characterisations (the sparse-MNA
// backend) instead of the analytic cell model: one per distinct clamped
// array, run before the per-candidate estimates.
#pragma once

#include <optional>
#include <vector>

#include "nvsim/array_model.hpp"
#include "sweep/param_space.hpp"
#include "sweep/servable.hpp"

namespace mss::nvsim {

/// Optimisation objective.
enum class Goal {
  ReadLatency,
  WriteLatency,
  ReadEnergy,
  WriteEnergy,
  Area,
  ReadEdp, ///< read latency x read energy
};

/// Optional constraints an organisation must satisfy.
struct Constraints {
  std::optional<double> max_read_latency;  ///< [s]
  std::optional<double> max_write_latency; ///< [s]
  std::optional<double> max_area;          ///< [m^2]
  std::optional<double> max_leakage;       ///< [W]
};

/// Exploration options.
struct ExploreOptions {
  Constraints constraints;
  /// Mat-splitting degrees to explore (NVSim's bank/mat dimension): the
  /// word is interleaved across m mats operated in lock-step, each an
  /// independent rows x cols subarray holding capacity/m bits and serving
  /// word_bits/m bits. m must divide both; infeasible degrees are skipped.
  std::vector<std::size_t> mats = {1};
  /// Calibrate every candidate with an array-scale SPICE write/read
  /// characterisation (ArrayModel::calibrate_spice, sparse MNA backend)
  /// clamped to spice_rows x spice_cols cells, instead of the analytic
  /// cell model. Each distinct clamp is characterised once per call — its
  /// write transient and read characterisation as two parallel tasks under
  /// `threads` — and nothing is kept across calls; the per-candidate
  /// estimates stay analytic. Deterministic, and bit-identical to
  /// ArrayModel::estimate_spice of each candidate.
  bool spice_calibrate = false;
  std::size_t spice_rows = 16;
  std::size_t spice_cols = 16;
  /// sweep::Runner thread policy: 0 = shared global pool, 1 = serial,
  /// N = a shared pool of N threads. Results are bit-identical for every
  /// setting.
  std::size_t threads = 0;
};

/// One evaluated candidate.
struct Candidate {
  ArrayOrg org;          ///< per-mat organisation
  std::size_t mats = 1;  ///< mats the word access is interleaved across
  MemoryEstimate estimate; ///< full word access: all mats + H-tree routing
  double objective = 0.0;
};

/// The ParamSpace explore() evaluates: a zipped ("mats", "rows") axis pair
/// listing every feasible power-of-two organisation of `capacity_bits`
/// with the given I/O width — rows 64..8192, cols = capacity/(mats*rows),
/// aspect ratios between 1:8 and 8:1, cols within [word_bits/mats, 16384].
/// Throws std::invalid_argument on zero capacity or word width.
[[nodiscard]] sweep::ParamSpace organisation_space(
    std::size_t capacity_bits, std::size_t word_bits,
    const std::vector<std::size_t>& mats = {1});

/// Evaluates organisation_space() through sweep::Runner, filters by the
/// constraints and returns candidates sorted by the goal (best first,
/// ties broken by (mats, rows) so the order is stable).
[[nodiscard]] std::vector<Candidate> explore(
    const core::Pdk& pdk, std::size_t capacity_bits, std::size_t word_bits,
    Goal goal, const ExploreOptions& options = {});

/// Convenience: best organisation or nullopt when nothing satisfies the
/// constraints.
[[nodiscard]] std::optional<Candidate> optimize(
    const core::Pdk& pdk, std::size_t capacity_bits, std::size_t word_bits,
    Goal goal, const ExploreOptions& options = {});

/// The exploration as a servable experiment ("nvsim.explore") for the job
/// server: one row per organisation with columns mats, rows, cols,
/// read_latency, write_latency, read_energy, write_energy, leakage, area,
/// read_edp. Points carry ("mats", "rows") as in organisation_space();
/// optional integer axes "capacity_bits" and "word_bits" override the
/// defaults (1 Mib, 512) per point, so a client can sweep capacities too.
/// Analytic estimates at Pdk::mss45(); deterministic (the RNG is unused).
[[nodiscard]] sweep::RowExperiment servable_explore();

} // namespace mss::nvsim
