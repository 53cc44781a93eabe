#include "nvsim/array_model.hpp"

#include "cells/characterization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mss::nvsim {

namespace {
/// 1T-1MTJ cell footprint (the access transistor must carry the write
/// current, hence the generous footprint; NVSim's default STT-RAM cell is
/// in the same range).
constexpr double kCellWidthF = 6.0;  ///< along the wordline
constexpr double kCellHeightF = 7.0; ///< along the bitline
/// Drain junction capacitance contributed by each cell to its bitline.
constexpr double kCellDrainCapF = 0.04e-15;
/// Gate load each cell presents to the wordline (access gate).
constexpr double kCellGateCapF = 0.05e-15;
/// Sense-amp input + latch capacitance.
constexpr double kSenseAmpCap = 4e-15;
/// Periphery area overhead on top of decoder/driver/SA estimates.
constexpr double kPeripheryOverhead = 0.30;
/// Distributed-RC Elmore coefficient.
constexpr double kElmore = 0.38;
} // namespace

/// Sense swing required beyond the amplifier offset; shared contract with
/// mss::vaet::VaetOptions::v_resolve.
const double kSenseResolveV = 0.022;

ArrayModel::ArrayModel(core::Pdk pdk, ArrayOrg org)
    : ArrayModel(pdk, org, pdk.extract_cell()) {}

ArrayModel::ArrayModel(core::Pdk pdk, ArrayOrg org, core::CellParams cell)
    : pdk_(std::move(pdk)), org_(org), cell_(cell) {
  if (org_.rows == 0 || org_.cols == 0 || org_.word_bits == 0 ||
      org_.word_bits > org_.cols) {
    throw std::invalid_argument("ArrayModel: bad organisation");
  }
  derive_geometry();
}

void ArrayModel::derive_geometry() {
  const double f = pdk_.cmos.feature_m;
  geom_.cell_w = kCellWidthF * f;
  geom_.cell_h = kCellHeightF * f;
  geom_.wl_len = geom_.cell_w * double(org_.cols);
  geom_.bl_len = geom_.cell_h * double(org_.rows);
  geom_.r_wordline = pdk_.cmos.wire_r_per_m * geom_.wl_len;
  geom_.c_wordline = pdk_.cmos.wire_c_per_m * geom_.wl_len +
                     kCellGateCapF * double(org_.cols);
  geom_.r_bitline = pdk_.cmos.wire_r_per_m * geom_.bl_len;
  geom_.c_bitline = pdk_.cmos.wire_c_per_m * geom_.bl_len +
                    kCellDrainCapF * double(org_.rows);
}

double ArrayModel::decoder_delay() const {
  // FO4-scaled chain: predecode + final decode, ~0.9 FO4 per address bit
  // plus two buffer stages.
  const double bits = std::log2(double(org_.rows));
  return (0.9 * bits + 2.0) * pdk_.cmos.fo4_delay;
}

double ArrayModel::wordline_delay() const {
  // Driver (2 FO4) + distributed wordline RC.
  return 2.0 * pdk_.cmos.fo4_delay +
         kElmore * geom_.r_wordline * geom_.c_wordline;
}

double ArrayModel::sense_margin() const {
  // Swing the nominal design develops: the resolve margin plus a 2-sigma
  // offset allowance. (The variation-aware analysis in mss::vaet replaces
  // the allowance with per-bit sampled offsets, which is what pushes the
  // Table-1 mu above this nominal.)
  return kSenseResolveV + 2.0 * pdk_.cmos.sense_offset_sigma;
}

double ArrayModel::bitline_develop_time(double delta_i,
                                        double margin_v) const {
  if (delta_i <= 0.0) {
    throw std::invalid_argument("bitline_develop_time: non-positive margin current");
  }
  // Mid-point reference scheme: effective develop current is delta_i / 2.
  return geom_.c_bitline * margin_v / (0.5 * delta_i);
}

double ArrayModel::read_periphery_latency() const {
  return decoder_delay() + wordline_delay() + 4.0 * pdk_.cmos.fo4_delay;
}

double ArrayModel::write_periphery_latency() const {
  return decoder_delay() + wordline_delay() + 2.0 * pdk_.cmos.fo4_delay;
}

MemoryEstimate ArrayModel::estimate() const {
  const double delta_i = cell_.i_read_p - cell_.i_read_ap;
  return estimate_with(cell_.t_switch, cell_.i_write, delta_i,
                       sense_margin());
}

MemoryEstimate ArrayModel::estimate_with(double t_mtj_switch, double i_write,
                                         double delta_i_sense,
                                         double sense_margin_v) const {
  const double vdd = pdk_.cmos.vdd;
  const double f = pdk_.cmos.feature_m;
  const auto word = double(org_.word_bits);

  MemoryEstimate est;
  est.t_decoder = decoder_delay();
  est.t_wordline = wordline_delay();
  est.t_senseamp = 4.0 * pdk_.cmos.fo4_delay;
  est.t_driver = 2.0 * pdk_.cmos.fo4_delay;
  est.t_bitline = bitline_develop_time(delta_i_sense, sense_margin_v);
  est.t_mtj_switch = t_mtj_switch;

  est.read_latency =
      est.t_decoder + est.t_wordline + est.t_bitline + est.t_senseamp;
  est.write_latency =
      est.t_decoder + est.t_wordline + est.t_driver + est.t_mtj_switch;

  // --- energies ---
  // Decoder: gates along the decode path; scaled with address width.
  est.e_decoder = 20.0 * (4.0 * f * pdk_.cmos.c_gate_per_m) * vdd * vdd *
                  std::log2(double(org_.rows));
  // One wordline swings rail to rail.
  est.e_wordline = geom_.c_wordline * vdd * vdd;
  // Read: selected bitlines are biased to v_read and restored.
  est.e_bitline_read = word * geom_.c_bitline * cell_.v_read * vdd;
  est.e_senseamp = word * kSenseAmpCap * vdd * vdd;
  est.read_energy =
      est.e_decoder + est.e_wordline + est.e_bitline_read + est.e_senseamp;

  // Write: selected bitlines swing full rail; each written bit draws the
  // write current from the supply for the whole pulse.
  est.e_bitline_write = word * geom_.c_bitline * vdd * vdd;
  est.e_mtj_write = word * i_write * vdd * t_mtj_switch;
  est.write_energy =
      est.e_decoder + est.e_wordline + est.e_bitline_write + est.e_mtj_write;

  // --- leakage: periphery only (MTJ cells have no supply path) ---
  // Row periphery: decoder + wordline drivers; column periphery: SA +
  // write drivers on word_bits columns.
  const double w_row = double(org_.rows) * 8.0 * f + 64.0 * f * std::log2(double(org_.rows));
  const double w_col = word * 40.0 * f;
  est.leakage_power = (w_row + w_col) * pdk_.cmos.ioff_per_m * vdd;

  // --- area ---
  const double cell_area =
      double(org_.rows) * double(org_.cols) * geom_.cell_w * geom_.cell_h;
  const double decoder_area = double(org_.rows) * (20.0 * f) * (kCellHeightF * f);
  const double col_area = double(org_.cols) * (kCellWidthF * f) * (60.0 * f);
  est.area = cell_area + (decoder_area + col_area) * (1.0 + kPeripheryOverhead);
  return est;
}

MemoryEstimate ArrayModel::estimate_with(const SpiceCalibration& cal) const {
  return estimate_with(cal.t_switch, cal.i_write, cal.delta_i, sense_margin());
}

std::pair<std::size_t, std::size_t> ArrayModel::spice_clamp(
    std::size_t max_rows, std::size_t max_cols) const {
  return {std::min(org_.rows, max_rows), std::min(org_.cols, max_cols)};
}

namespace {
cells::ArrayNetlistOptions spice_netlist_options(
    std::pair<std::size_t, std::size_t> clamp) {
  cells::ArrayNetlistOptions o;
  o.rows = clamp.first;
  o.cols = clamp.second;
  o.target_row = o.rows - 1; // far end of the bitline: worst-case RC
  o.cell_width_f = kCellWidthF;
  o.cell_height_f = kCellHeightF;
  o.c_cell_drain = kCellDrainCapF;
  o.c_cell_gate = kCellGateCapF;
  return o;
}
} // namespace

SpiceCalibration ArrayModel::calibrate_spice(std::size_t max_rows,
                                             std::size_t max_cols) const {
  SpiceCalibration cal;
  calibrate_spice_write(cal, max_rows, max_cols);
  calibrate_spice_read(cal, max_rows, max_cols);
  return cal;
}

void ArrayModel::calibrate_spice_write(SpiceCalibration& cal,
                                       std::size_t max_rows,
                                       std::size_t max_cols) const {
  // Worse (P -> AP) direction write; generous pulse so the flip is
  // observed rather than assumed.
  const double pulse = std::max(3.0 * cell_.t_switch, 2e-9);
  const auto wr = cells::characterize_array_write(
      pdk_, spice_netlist_options(spice_clamp(max_rows, max_cols)),
      core::WriteDirection::ToAntiparallel, pulse);
  cal.t_switch = wr.switched ? wr.t_switch : cell_.t_switch;
  // Only trust the extracted current when the flip happened: on a failed
  // write i_settled degenerates to post-pulse leakage, not a write current.
  cal.i_write = wr.switched && wr.i_settled > 0.0 ? wr.i_settled
                                                  : cell_.i_write;
}

void ArrayModel::calibrate_spice_read(SpiceCalibration& cal,
                                      std::size_t max_rows,
                                      std::size_t max_cols) const {
  const auto rd = cells::characterize_array_read(
      pdk_, spice_netlist_options(spice_clamp(max_rows, max_cols)), 2e-9);
  cal.delta_i = rd.delta_i > 0.0 ? rd.delta_i
                                 : (cell_.i_read_p - cell_.i_read_ap);
}

} // namespace mss::nvsim
