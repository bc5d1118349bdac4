// Wavelet substrate tests: perfect reconstruction, orthogonality, features.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "mpros/common/rng.hpp"
#include "mpros/common/units.hpp"
#include "mpros/wavelet/dwt.hpp"
#include "mpros/wavelet/features.hpp"

namespace mpros::wavelet {
namespace {

class DwtFamilyTest : public ::testing::TestWithParam<Family> {};

TEST_P(DwtFamilyTest, FilterIsOrthonormal) {
  const std::span<const double> h = scaling_coefficients(GetParam());
  double sum_sq = 0.0, sum = 0.0;
  for (double v : h) {
    sum_sq += v * v;
    sum += v;
  }
  EXPECT_NEAR(sum_sq, 1.0, 1e-12);
  EXPECT_NEAR(sum, std::numbers::sqrt2, 1e-10);
}

TEST_P(DwtFamilyTest, SingleStepRoundTrip) {
  Rng rng(11);
  std::vector<double> x(128);
  for (double& v : x) v = rng.uniform(-1, 1);
  const DwtLevel level = dwt_step(x, GetParam());
  const std::vector<double> back =
      idwt_step(level.approx, level.detail, GetParam());
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-10);
  }
}

TEST_P(DwtFamilyTest, MultiLevelPerfectReconstruction) {
  Rng rng(12);
  std::vector<double> x(256);
  for (double& v : x) v = rng.uniform(-1, 1);
  const Decomposition d = decompose(x, GetParam(), 5);
  EXPECT_EQ(d.levels(), 5u);
  const std::vector<double> back = reconstruct(d);
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i], x[i], 1e-9);
  }
}

TEST_P(DwtFamilyTest, EnergyPreserved) {
  Rng rng(13);
  std::vector<double> x(512);
  for (double& v : x) v = rng.uniform(-1, 1);
  const Decomposition d = decompose(x, GetParam(), 4);

  double ex = 0.0;
  for (double v : x) ex += v * v;
  double ed = 0.0;
  for (const auto& detail : d.details) {
    for (double v : detail) ed += v * v;
  }
  for (double v : d.approx) ed += v * v;
  EXPECT_NEAR(ex, ed, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, DwtFamilyTest,
                         ::testing::Values(Family::Haar, Family::Db2,
                                           Family::Db4),
                         [](const auto& inst) {
                           return to_string(inst.param);
                         });

// decompose() runs its interior taps without the periodic index; dwt_step
// keeps the modulo on every tap and is the reference. Odd level counts on
// short signals drive the pyramid below the filter length, where every tap
// of an output wraps.
TEST(WaveletTest, DecomposeBitIdenticalToDwtStep) {
  Rng rng(8);
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {4096, 7}, {8192, 5}, {96, 5}, {32, 5}, {1024, 1}, {24, 3}};
  Decomposition d;
  for (const Family f : {Family::Haar, Family::Db2, Family::Db4}) {
    for (const auto& [size, levels] : shapes) {
      std::vector<double> x(size);
      for (double& v : x) v = rng.uniform(-1, 1);
      decompose(x, f, levels, d);
      ASSERT_EQ(d.levels(), levels);

      std::vector<double> approx = x;
      for (std::size_t level = 0; level < levels; ++level) {
        DwtLevel step = dwt_step(approx, f);
        EXPECT_TRUE(same_bits(d.details[level], step.detail))
            << to_string(f) << " n=" << size << " level " << level;
        approx = std::move(step.approx);
      }
      EXPECT_TRUE(same_bits(d.approx, approx))
          << to_string(f) << " n=" << size << " levels " << levels;
    }
  }
}

TEST(DwtTest, HaarAveragesAndDifferences) {
  const std::vector<double> x = {1.0, 3.0, 5.0, 7.0};
  const DwtLevel level = dwt_step(x, Family::Haar);
  // Haar approx = (a+b)/sqrt(2).
  EXPECT_NEAR(level.approx[0], 4.0 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(level.approx[1], 12.0 / std::numbers::sqrt2, 1e-12);
  EXPECT_NEAR(level.detail[0], -2.0 / std::numbers::sqrt2, 1e-12);
}

TEST(DwtTest, MaxLevels) {
  EXPECT_EQ(max_levels(256), 8u);
  EXPECT_EQ(max_levels(96), 5u);  // 96 = 2^5 * 3
  EXPECT_EQ(max_levels(7), 0u);
}

TEST(WaveletFeatureTest, EnergyMapSumsToOne) {
  Rng rng(14);
  std::vector<double> x(256);
  for (double& v : x) v = rng.uniform(-1, 1);
  const Decomposition d = decompose(x, Family::Db4, 4);
  const std::vector<double> map = energy_map(d);
  ASSERT_EQ(map.size(), 5u);
  double sum = 0.0;
  for (double p : map) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(WaveletFeatureTest, LowFrequencyConcentratesInApprox) {
  std::vector<double> x(512);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(kTwoPi * 2.0 * static_cast<double>(i) / 512.0);
  }
  const Decomposition d = decompose(x, Family::Db4, 5);
  const std::vector<double> map = energy_map(d);
  EXPECT_GT(map.back(), 0.8);  // approximation holds most energy
}

TEST(WaveletFeatureTest, TransientConcentratesInFineScales) {
  std::vector<double> x(512, 0.0);
  x[200] = 1.0;  // single impulse
  const Decomposition d = decompose(x, Family::Db4, 5);
  const std::vector<double> map = energy_map(d);
  // Finest two detail scales carry the bulk of an impulse.
  EXPECT_GT(map[0] + map[1], 0.6);
}

TEST(WaveletFeatureTest, EntropyOrdersByConcentration) {
  // Impulse (spread across scales) vs pure low tone (concentrated).
  std::vector<double> impulse(256, 0.0);
  impulse[100] = 1.0;
  std::vector<double> tone(256);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] = std::sin(kTwoPi * 2.0 * static_cast<double>(i) / 256.0);
  }
  const double h_impulse =
      energy_entropy(decompose(impulse, Family::Db4, 5));
  const double h_tone = energy_entropy(decompose(tone, Family::Db4, 5));
  EXPECT_GT(h_impulse, h_tone);
}

TEST(WaveletFeatureTest, FeatureVectorShape) {
  std::vector<double> x(256, 0.5);
  const std::vector<double> f = wavelet_feature_vector(x, Family::Haar, 4);
  EXPECT_EQ(f.size(), 4u + 1u + 1u);  // details + approx + entropy
}

TEST(WaveletFeatureTest, PeakMapTracksImpulseStrength) {
  std::vector<double> weak(256, 0.0), strong(256, 0.0);
  weak[64] = 0.1;
  strong[64] = 2.0;
  const auto pw = peak_map(decompose(weak, Family::Db2, 3));
  const auto ps = peak_map(decompose(strong, Family::Db2, 3));
  for (std::size_t i = 0; i < pw.size(); ++i) EXPECT_GT(ps[i], pw[i]);
}

}  // namespace
}  // namespace mpros::wavelet
