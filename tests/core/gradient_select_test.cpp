#include "core/gradient_select.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>

#include "common/rng.h"

namespace dlion::core {
namespace {

std::vector<float> random_grad(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> g(n);
  for (auto& v : g) v = static_cast<float>(rng.normal());
  return g;
}

/// k-th largest magnitude of `g` (1 <= k <= size): the effective threshold
/// of a top-k selection.
float kth_magnitude(const std::vector<float>& g, std::size_t k) {
  std::vector<float> mags(g.size());
  for (std::size_t i = 0; i < g.size(); ++i) mags[i] = std::fabs(g[i]);
  std::sort(mags.begin(), mags.end(), std::greater<>());
  return mags[k - 1];
}

float max_magnitude(const std::vector<float>& g) {
  return kth_magnitude(g, 1);
}

TEST(MaxN, N100IsDense) {
  const auto g = random_grad(50, 1);
  const comm::VariableGrad v = select_max_n(g, 0, 100.0);
  EXPECT_TRUE(v.is_dense());
  EXPECT_EQ(v.values.size(), 50u);
}

TEST(MaxN, ThresholdSemantics) {
  // max|g| = 10. N = 20 keeps |g| >= 0.8 * 10 = 8.
  std::vector<float> g = {10.0f, -9.0f, 8.0f, 7.9f, -0.5f};
  const comm::VariableGrad v = select_max_n(g, 0, 20.0);
  EXPECT_EQ(v.indices, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(MaxN, SelectionGrowsWithN) {
  const auto g = random_grad(1000, 2);
  std::size_t prev = 0;
  for (double n : {1.0, 10.0, 25.0, 50.0, 75.0, 100.0}) {
    const std::size_t count = count_max_n(g, n);
    EXPECT_GE(count, prev) << "N = " << n;
    prev = count;
  }
  EXPECT_EQ(prev, 1000u);
}

TEST(MaxN, CountMatchesSelect) {
  const auto g = random_grad(500, 3);
  for (double n : {5.0, 50.0, 95.0}) {
    EXPECT_EQ(count_max_n(g, n), select_max_n(g, 0, n).values.size());
  }
}

TEST(MaxN, SelectedValuesMatchSource) {
  const auto g = random_grad(100, 4);
  const comm::VariableGrad v = select_max_n(g, 7, 30.0);
  EXPECT_EQ(v.var_index, 7u);
  EXPECT_EQ(v.dense_size, 100u);
  for (std::size_t e = 0; e < v.indices.size(); ++e) {
    EXPECT_FLOAT_EQ(v.values[e], g[v.indices[e]]);
  }
}

TEST(MaxN, InvalidNThrows) {
  const auto g = random_grad(10, 5);
  EXPECT_THROW(select_max_n(g, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(select_max_n(g, 0, 101.0), std::invalid_argument);
  EXPECT_THROW(select_max_n(g, 0, -5.0), std::invalid_argument);
}

TEST(MaxN, ThresholdFormula) {
  EXPECT_DOUBLE_EQ(max_n_threshold(100.0, 4.0f), 0.0);
  EXPECT_DOUBLE_EQ(max_n_threshold(25.0, 4.0f), 3.0);
}

TEST(TopK, SelectsLargestMagnitudes) {
  std::vector<float> g = {1.0f, -5.0f, 3.0f, -2.0f, 4.0f};
  const comm::VariableGrad v = select_top_k(g, 0, 2);
  EXPECT_EQ(v.indices, (std::vector<std::uint32_t>{1, 4}));
  EXPECT_FLOAT_EQ(v.values[0], -5.0f);
  EXPECT_FLOAT_EQ(v.values[1], 4.0f);
}

TEST(TopK, KZeroIsEmpty) {
  const auto g = random_grad(10, 6);
  const comm::VariableGrad v = select_top_k(g, 0, 0);
  EXPECT_TRUE(v.indices.empty());
  EXPECT_TRUE(v.values.empty());
  EXPECT_EQ(v.dense_size, 10u);
}

TEST(TopK, KAboveSizeIsDense) {
  const auto g = random_grad(10, 6);
  const comm::VariableGrad v = select_top_k(g, 0, 100);
  EXPECT_TRUE(v.is_dense());
}

TEST(TopK, IndicesSortedAscending) {
  const auto g = random_grad(200, 7);
  const comm::VariableGrad v = select_top_k(g, 0, 50);
  for (std::size_t e = 1; e < v.indices.size(); ++e) {
    EXPECT_LT(v.indices[e - 1], v.indices[e]);
  }
}

TEST(TopK, NestedSelectionsAreSupersets) {
  const auto g = random_grad(300, 8);
  const comm::VariableGrad small = select_top_k(g, 0, 20);
  const comm::VariableGrad big = select_top_k(g, 0, 80);
  const std::set<std::uint32_t> big_set(big.indices.begin(),
                                        big.indices.end());
  for (std::uint32_t i : small.indices) {
    EXPECT_TRUE(big_set.count(i)) << "index " << i;
  }
}

TEST(TopK, AgreesWithMaxNAtEquivalentThreshold) {
  // Selecting top-k and selecting Max N at the equivalent N should pick the
  // same entry count (modulo magnitude ties, absent in random floats).
  const auto g = random_grad(400, 9);
  const std::size_t k = 37;
  const double n =
      equivalent_n_from_threshold(max_magnitude(g), kth_magnitude(g, k));
  EXPECT_EQ(count_max_n(g, n), k);
}

TEST(EquivalentN, Extremes) {
  // A threshold at the maximum keeps only the maximum (N = 0); a zero
  // threshold keeps everything (N = 100).
  const auto g = random_grad(100, 10);
  const float mx = max_magnitude(g);
  EXPECT_DOUBLE_EQ(equivalent_n_from_threshold(mx, mx), 0.0);
  EXPECT_DOUBLE_EQ(equivalent_n_from_threshold(mx, 0.0f), 100.0);
}

TEST(EquivalentN, MonotoneInK) {
  const auto g = random_grad(100, 11);
  const float mx = max_magnitude(g);
  double prev = -1;
  for (std::size_t k : {1u, 10u, 40u, 90u}) {
    const double n = equivalent_n_from_threshold(mx, kth_magnitude(g, k));
    EXPECT_GE(n, prev);
    prev = n;
  }
}

class MaxNSweep : public ::testing::TestWithParam<double> {};

TEST_P(MaxNSweep, SelectionRespectsThresholdInvariant) {
  const double n = GetParam();
  const auto g = random_grad(500, 12);
  const comm::VariableGrad v = select_max_n(g, 0, n);
  const float mx = *std::max_element(
      g.begin(), g.end(), [](float a, float b) {
        return std::fabs(a) < std::fabs(b);
      });
  const double thr = max_n_threshold(n, std::fabs(mx));
  // Every selected entry is above threshold; every skipped entry below.
  std::set<std::uint32_t> selected(v.indices.begin(), v.indices.end());
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (selected.count(static_cast<std::uint32_t>(i))) {
      EXPECT_GE(std::fabs(g[i]), thr);
    } else if (!v.is_dense()) {
      EXPECT_LT(std::fabs(g[i]), thr);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MaxNSweep,
                         ::testing::Values(0.85, 5.0, 10.0, 25.0, 50.0, 99.0));

}  // namespace
}  // namespace dlion::core
