// Tests for the fused selection paths: the single-pass select_max_n must
// match the obvious two-pass semantics exactly, the magnitude buckets must
// agree with the rescanning max|g| and Max N count, and select_top_k must
// match a full-sort oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/gradient_select.h"
#include "tensor/ops.h"

namespace dlion::core {
namespace {

std::vector<float> random_grad(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> g(n);
  for (auto& x : g) x = static_cast<float>(rng.normal(0.0, 0.5));
  return g;
}

/// Obviously-correct two-pass Max N used as the oracle for the fused pass.
comm::VariableGrad two_pass_max_n(std::span<const float> grad, double n) {
  comm::VariableGrad v;
  v.var_index = 0;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  const float mx = tensor::max_abs(grad);
  const double thr = max_n_threshold(n, mx);
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (std::fabs(grad[i]) >= thr) {
      indices.push_back(static_cast<std::uint32_t>(i));
      values.push_back(grad[i]);
    }
  }
  v.indices = indices;
  v.values = values;
  return v;
}

TEST(SelectMaxNFused, MatchesTwoPassOracle) {
  for (std::size_t size : {1u, 7u, 100u, 5000u}) {
    for (double n : {0.5, 1.0, 10.0, 50.0, 99.0}) {
      const auto grad = random_grad(size, size * 31 + 1);
      const auto fused = select_max_n(grad, 0, n);
      const auto oracle = two_pass_max_n(grad, n);
      ASSERT_EQ(oracle.indices, fused.indices) << "size=" << size
                                               << " n=" << n;
      ASSERT_EQ(oracle.values, fused.values) << "size=" << size << " n=" << n;
    }
  }
}

TEST(SelectMaxNFused, AscendingMagnitudesStressCompaction) {
  // Worst case for the running-max candidate buffer: every element raises
  // the max, so every element is a candidate when visited and almost all
  // are pruned by the end.
  std::vector<float> grad(4096);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad[i] = static_cast<float>(i) * (i % 2 == 0 ? 1.0f : -1.0f);
  }
  const auto fused = select_max_n(grad, 0, 1.0);
  const auto oracle = two_pass_max_n(grad, 1.0);
  ASSERT_EQ(oracle.indices, fused.indices);
  ASSERT_EQ(oracle.values, fused.values);
}

TEST(SelectMaxNFused, AllZerosSelectsEverything) {
  std::vector<float> grad(17, 0.0f);
  const auto v = select_max_n(grad, 3, 1.0);
  EXPECT_EQ(17u, v.indices.size());
  EXPECT_EQ(3u, v.var_index);
}

/// Gradients with the values a magnitude ranking must handle: exact ties,
/// +-0, denormals, infinities and NaN.
std::vector<float> special_grad() {
  std::vector<float> g = random_grad(300, 41);
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (i % 3 == 0) g[i] = std::round(g[i] * 4.0f) * 0.25f;  // ties, +-0
  }
  g[5] = -0.0f;
  g[7] = std::numeric_limits<float>::denorm_min();
  g[11] = -std::numeric_limits<float>::denorm_min() * 3.0f;
  g[13] = std::numeric_limits<float>::min();
  return g;
}

TEST(Magnitudes, FusedPassMatchesMaxAbs) {
  std::vector<float> with_inf = special_grad();
  with_inf[17] = -std::numeric_limits<float>::infinity();
  std::vector<float> with_nan = special_grad();
  with_nan[19] = std::numeric_limits<float>::quiet_NaN();
  for (const auto& grad : {random_grad(1234, 9), special_grad(), with_inf,
                           with_nan, std::vector<float>(9, -0.0f),
                           std::vector<float>{}}) {
    MagnitudeBuckets buckets;
    buckets.build(grad);
    EXPECT_EQ(tensor::max_abs(grad), buckets.max_abs());
    EXPECT_EQ(grad.size(), buckets.size());
  }
}

TEST(CountMaxNMags, MatchesCountMaxN) {
  std::vector<float> quarters(400);  // many entries sit on a threshold
  common::Rng rng(3);
  for (auto& x : quarters) {
    x = static_cast<float>(std::round(rng.normal() * 2.0)) * 0.25f;
  }
  std::vector<float> with_inf = special_grad();
  with_inf[17] = std::numeric_limits<float>::infinity();
  std::vector<float> with_nan = special_grad();
  with_nan[19] = -std::numeric_limits<float>::quiet_NaN();
  // Floats next to each Max N threshold (max|g| = 1): a threshold that
  // rounds down to a float must not count that float.
  constexpr double kNs[] = {0.5, 5.0, 25.0, 30.0, 50.0, 70.0, 75.0, 100.0};
  std::vector<float> edges = {1.0f};
  for (const double n : kNs) {
    const auto t = static_cast<float>(max_n_threshold(n, 1.0f));
    edges.push_back(t);
    edges.push_back(-std::nextafter(t, 0.0f));
    edges.push_back(std::nextafter(t, 2.0f));
  }
  MagnitudeBuckets buckets;  // reused: each build starts afresh
  for (const auto& grad : {random_grad(2000, 17), quarters, edges,
                           special_grad(), with_inf, with_nan,
                           std::vector<float>(5, 0.0f)}) {
    buckets.build(grad);
    for (const double n : kNs) {
      EXPECT_EQ(count_max_n(grad, n), buckets.max_n_count(n)) << n;
    }
  }
}

TEST(SelectTopK, MatchesFullSortOracle) {
  // Oracle: rank every index by (|g| descending, index ascending) with a
  // full sort, keep the first k, return them in index order.
  const auto grad = random_grad(500, 23);
  std::vector<std::uint32_t> ranked(grad.size());
  std::iota(ranked.begin(), ranked.end(), 0u);
  std::sort(ranked.begin(), ranked.end(), [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(grad[a]), fb = std::fabs(grad[b]);
    return fa != fb ? fa > fb : a < b;
  });
  for (std::size_t k : {1u, 10u, 250u, 499u}) {
    std::vector<std::uint32_t> want(ranked.begin(), ranked.begin() + k);
    std::sort(want.begin(), want.end());
    std::vector<float> want_vals;
    for (std::uint32_t i : want) want_vals.push_back(grad[i]);
    const auto got = select_top_k(grad, 1, k);
    ASSERT_EQ(want, got.indices) << k;
    ASSERT_EQ(want_vals, got.values) << k;
  }
}

TEST(SelectTopK, DenseAndEmptyEdges) {
  const auto grad = random_grad(8, 29);
  const auto dense = select_top_k(grad, 2, 8);
  EXPECT_TRUE(dense.indices.empty());  // dense representation
  EXPECT_EQ(8u, dense.values.size());
  const auto none = select_top_k(grad, 2, 0);
  EXPECT_TRUE(none.indices.empty());
  EXPECT_TRUE(none.values.empty());
}

}  // namespace
}  // namespace dlion::core
