// Tests of the NVSim-style array estimator and organisation optimizer.
#include "nvsim/array_model.hpp"
#include "nvsim/optimizer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mn = mss::nvsim;

namespace {
mn::ArrayModel model_1mb() {
  mn::ArrayOrg org;
  org.rows = 1024;
  org.cols = 1024;
  org.word_bits = 256;
  return mn::ArrayModel(mss::core::Pdk::mss45(), org);
}
} // namespace

TEST(ArrayModel, EstimateComponentsArePositiveAndSumUp) {
  const auto est = model_1mb().estimate();
  EXPECT_GT(est.t_decoder, 0.0);
  EXPECT_GT(est.t_wordline, 0.0);
  EXPECT_GT(est.t_bitline, 0.0);
  EXPECT_GT(est.t_senseamp, 0.0);
  EXPECT_GT(est.t_mtj_switch, 0.0);
  EXPECT_NEAR(est.read_latency,
              est.t_decoder + est.t_wordline + est.t_bitline + est.t_senseamp,
              1e-15);
  EXPECT_NEAR(est.write_latency,
              est.t_decoder + est.t_wordline + est.t_driver + est.t_mtj_switch,
              1e-15);
  EXPECT_NEAR(est.read_energy,
              est.e_decoder + est.e_wordline + est.e_bitline_read +
                  est.e_senseamp,
              1e-18);
  EXPECT_GT(est.leakage_power, 0.0);
  EXPECT_GT(est.area, 0.0);
}

TEST(ArrayModel, WriteDominatedByMtjAndSlowerThanRead) {
  const auto est = model_1mb().estimate();
  EXPECT_GT(est.write_latency, est.read_latency);
  EXPECT_GT(est.write_energy, est.read_energy);
  EXPECT_GT(est.t_mtj_switch, est.t_decoder);
}

TEST(ArrayModel, TallerArrayHasSlowerBitlines) {
  mn::ArrayOrg short_org{512, 1024, 256};
  mn::ArrayOrg tall_org{4096, 1024, 256};
  const auto pdk = mss::core::Pdk::mss45();
  const auto e_short = mn::ArrayModel(pdk, short_org).estimate();
  const auto e_tall = mn::ArrayModel(pdk, tall_org).estimate();
  EXPECT_GT(e_tall.t_bitline, e_short.t_bitline);
}

TEST(ArrayModel, WiderWordCostsMoreEnergy) {
  mn::ArrayOrg narrow{1024, 1024, 128};
  mn::ArrayOrg wide{1024, 1024, 512};
  const auto pdk = mss::core::Pdk::mss45();
  const auto e_n = mn::ArrayModel(pdk, narrow).estimate();
  const auto e_w = mn::ArrayModel(pdk, wide).estimate();
  EXPECT_GT(e_w.write_energy, e_n.write_energy);
  EXPECT_GT(e_w.read_energy, e_n.read_energy);
}

TEST(ArrayModel, SixtyFiveNmHasHigherEnergy) {
  // The paper's Table 1: the smaller node reduces read and write energy.
  mn::ArrayOrg org{1024, 1024, 256};
  const auto e45 = mn::ArrayModel(mss::core::Pdk::mss45(), org).estimate();
  const auto e65 = mn::ArrayModel(mss::core::Pdk::mss65(), org).estimate();
  EXPECT_LT(e45.write_energy, e65.write_energy);
  EXPECT_LT(e45.read_energy, e65.read_energy);
}

TEST(ArrayModel, RejectsBadOrganisation) {
  const auto pdk = mss::core::Pdk::mss45();
  EXPECT_THROW(mn::ArrayModel(pdk, mn::ArrayOrg{0, 1024, 64}),
               std::invalid_argument);
  EXPECT_THROW(mn::ArrayModel(pdk, mn::ArrayOrg{1024, 64, 256}),
               std::invalid_argument); // word wider than cols
}

TEST(ArrayModel, ColMuxDerived) {
  mn::ArrayOrg org{1024, 1024, 256};
  EXPECT_EQ(org.col_mux(), 4u);
}

TEST(Optimizer, ReturnsSortedFeasibleCandidates) {
  const auto pdk = mss::core::Pdk::mss45();
  const auto cands =
      mn::explore(pdk, 1u << 20, 256, mn::Goal::ReadLatency);
  ASSERT_GT(cands.size(), 1u);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i - 1].objective, cands[i].objective);
  }
  for (const auto& c : cands) {
    EXPECT_EQ(c.org.rows * c.org.cols, 1u << 20);
  }
}

TEST(Optimizer, ConstraintsFilter) {
  const auto pdk = mss::core::Pdk::mss45();
  mn::ExploreOptions tight;
  tight.constraints.max_read_latency = 1e-12; // impossible
  EXPECT_FALSE(mn::optimize(pdk, 1u << 20, 256, mn::Goal::ReadLatency, tight)
                   .has_value());

  mn::ExploreOptions loose;
  loose.constraints.max_read_latency = 1e-6;
  const auto best =
      mn::optimize(pdk, 1u << 20, 256, mn::Goal::ReadLatency, loose);
  ASSERT_TRUE(best.has_value());
  EXPECT_LT(best->estimate.read_latency, 1e-6);
}

// The redesigned explore (mats = {1}, analytic) must reproduce the seed
// serial nested loop exactly — same organisations, same objectives, same
// order.
TEST(Optimizer, ParallelExploreMatchesSerialReference) {
  const auto pdk = mss::core::Pdk::mss45();
  constexpr std::size_t kCap = 1u << 20;
  constexpr std::size_t kWord = 256;

  // The old serial path, replicated verbatim.
  struct Ref {
    mn::ArrayOrg org;
    mn::MemoryEstimate estimate;
    double objective;
  };
  std::vector<Ref> reference;
  for (std::size_t rows = 64; rows <= 8192; rows *= 2) {
    if (kCap % rows != 0) continue;
    const std::size_t cols = kCap / rows;
    if (cols < kWord || cols > 16384) continue;
    const double aspect = double(rows) / double(cols);
    if (aspect > 8.0 || aspect < 1.0 / 8.0) continue;
    Ref r;
    r.org = mn::ArrayOrg{rows, cols, kWord};
    r.estimate = mn::ArrayModel(pdk, r.org).estimate();
    r.objective = r.estimate.read_latency;
    reference.push_back(r);
  }
  std::sort(reference.begin(), reference.end(),
            [](const Ref& a, const Ref& b) { return a.objective < b.objective; });

  mn::ExploreOptions opt;
  opt.threads = 8;
  const auto cands = mn::explore(pdk, kCap, kWord, mn::Goal::ReadLatency, opt);
  ASSERT_EQ(cands.size(), reference.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    EXPECT_EQ(cands[i].mats, 1u);
    EXPECT_EQ(cands[i].org.rows, reference[i].org.rows);
    EXPECT_EQ(cands[i].org.cols, reference[i].org.cols);
    EXPECT_EQ(cands[i].objective, reference[i].objective); // bit-identical
    EXPECT_EQ(cands[i].estimate.read_latency,
              reference[i].estimate.read_latency);
    EXPECT_EQ(cands[i].estimate.write_energy,
              reference[i].estimate.write_energy);
  }
}

TEST(Optimizer, ExploreBitIdenticalForAnyThreadCount) {
  const auto pdk = mss::core::Pdk::mss45();
  mn::ExploreOptions serial;
  serial.mats = {1, 2, 4, 8};
  serial.threads = 1;
  auto parallel = serial;
  parallel.threads = 8;
  const auto a = mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadEdp, serial);
  const auto b = mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadEdp, parallel);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 4u); // mat splitting enlarges the space
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mats, b[i].mats);
    EXPECT_EQ(a[i].org.rows, b[i].org.rows);
    EXPECT_EQ(a[i].objective, b[i].objective);
    EXPECT_EQ(a[i].estimate.area, b[i].estimate.area);
  }
}

TEST(Optimizer, MatSplittingKeepsInvariants) {
  const auto pdk = mss::core::Pdk::mss45();
  mn::ExploreOptions opt;
  opt.mats = {1, 2, 4};
  const auto cands = mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadLatency, opt);
  bool saw_split = false;
  for (const auto& c : cands) {
    EXPECT_EQ(c.mats * c.org.rows * c.org.cols, 1u << 20);
    EXPECT_EQ(c.mats * c.org.word_bits, 512u);
    EXPECT_GT(c.estimate.read_latency, 0.0);
    if (c.mats > 1) saw_split = true;
  }
  EXPECT_TRUE(saw_split);
  // The organisation space is the zipped (mats, rows) pair explore ran.
  const auto space = mn::organisation_space(1u << 20, 512, opt.mats);
  EXPECT_EQ(space.size(), cands.size()); // no constraints -> all feasible
}

TEST(Optimizer, DifferentGoalsPickDifferentShapes) {
  const auto pdk = mss::core::Pdk::mss45();
  const auto lat = mn::optimize(pdk, 1u << 22, 512, mn::Goal::ReadLatency);
  const auto area = mn::optimize(pdk, 1u << 22, 512, mn::Goal::Area);
  ASSERT_TRUE(lat.has_value());
  ASSERT_TRUE(area.has_value());
  EXPECT_LE(lat->estimate.read_latency, area->estimate.read_latency);
  EXPECT_LE(area->estimate.area, lat->estimate.area);
}

TEST(Optimizer, RejectsZeroCapacity) {
  const auto pdk = mss::core::Pdk::mss45();
  EXPECT_THROW((void)mn::explore(pdk, 0, 64, mn::Goal::Area),
               std::invalid_argument);
}

namespace {
void expect_same_estimate(const mn::MemoryEstimate& a,
                          const mn::MemoryEstimate& b) {
  EXPECT_EQ(a.read_latency, b.read_latency);
  EXPECT_EQ(a.write_latency, b.write_latency);
  EXPECT_EQ(a.read_energy, b.read_energy);
  EXPECT_EQ(a.write_energy, b.write_energy);
  EXPECT_EQ(a.leakage_power, b.leakage_power);
  EXPECT_EQ(a.area, b.area);
  EXPECT_EQ(a.t_decoder, b.t_decoder);
  EXPECT_EQ(a.t_wordline, b.t_wordline);
  EXPECT_EQ(a.t_bitline, b.t_bitline);
  EXPECT_EQ(a.t_senseamp, b.t_senseamp);
  EXPECT_EQ(a.t_driver, b.t_driver);
  EXPECT_EQ(a.t_mtj_switch, b.t_mtj_switch);
  EXPECT_EQ(a.e_decoder, b.e_decoder);
  EXPECT_EQ(a.e_wordline, b.e_wordline);
  EXPECT_EQ(a.e_bitline_read, b.e_bitline_read);
  EXPECT_EQ(a.e_senseamp, b.e_senseamp);
  EXPECT_EQ(a.e_bitline_write, b.e_bitline_write);
  EXPECT_EQ(a.e_mtj_write, b.e_mtj_write);
}

mn::ExploreOptions spice_options(std::size_t rows, std::size_t cols,
                                 std::size_t threads) {
  mn::ExploreOptions opt;
  opt.spice_calibrate = true;
  opt.spice_rows = rows;
  opt.spice_cols = cols;
  opt.threads = threads;
  return opt;
}
} // namespace

// SPICE-calibrated explore characterises each distinct clamp once per
// call, before the Runner; every candidate must still equal its own
// single-organisation estimate_spice bit for bit.
TEST(Optimizer, SpiceExploreMatchesPerCandidateEstimateSpice) {
  const auto pdk = mss::core::Pdk::mss45();
  const auto opt = spice_options(8, 8, 3);
  const auto cands =
      mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadLatency, opt);
  ASSERT_GT(cands.size(), 1u);
  for (const auto& c : cands) {
    SCOPED_TRACE(c.org.rows);
    expect_same_estimate(c.estimate, mn::ArrayModel(pdk, c.org).estimate_spice(
                                         opt.spice_rows, opt.spice_cols));
  }
}

TEST(Optimizer, SpiceExploreBitIdenticalForAnyThreadCount) {
  const auto pdk = mss::core::Pdk::mss45();
  auto opt = spice_options(8, 8, 1);
  opt.mats = {1, 2, 4};
  const auto ref = mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadEdp, opt);
  ASSERT_GT(ref.size(), 4u);
  for (const std::size_t threads : {3u, 0u}) {
    SCOPED_TRACE(threads);
    opt.threads = threads;
    const auto got = mn::explore(pdk, 1u << 20, 512, mn::Goal::ReadEdp, opt);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].mats, ref[i].mats);
      EXPECT_EQ(got[i].org.rows, ref[i].org.rows);
      EXPECT_EQ(got[i].objective, ref[i].objective);
      expect_same_estimate(got[i].estimate, ref[i].estimate);
    }
  }
}

// 8 Kib with an 8-bit word: organisations 64x128, 128x64 and 256x32. A
// 4x48 clamp maps them to (4, 48), (4, 48) and (4, 32) — two distinct
// calibrations, one of them shared.
TEST(Optimizer, SpiceExploreWithSeveralClampsMatchesPerCandidate) {
  const auto pdk = mss::core::Pdk::mss45();
  for (const std::size_t threads : {1u, 3u, 0u}) {
    SCOPED_TRACE(threads);
    const auto opt = spice_options(4, 48, threads);
    const auto cands =
        mn::explore(pdk, 1u << 13, 8, mn::Goal::WriteLatency, opt);
    ASSERT_EQ(cands.size(), 3u);
    std::vector<std::pair<std::size_t, std::size_t>> clamps;
    for (const auto& c : cands) {
      SCOPED_TRACE(c.org.rows);
      const mn::ArrayModel model(pdk, c.org);
      const auto clamp = model.spice_clamp(opt.spice_rows, opt.spice_cols);
      if (std::find(clamps.begin(), clamps.end(), clamp) == clamps.end()) {
        clamps.push_back(clamp);
      }
      expect_same_estimate(
          c.estimate, model.estimate_spice(opt.spice_rows, opt.spice_cols));
    }
    EXPECT_EQ(clamps.size(), 2u);
  }
}
