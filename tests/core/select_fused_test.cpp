// Tests for the fused selection paths: the single-pass select_max_n must
// match the obvious two-pass semantics exactly, the magnitude-sharing
// helpers must agree with their rescanning counterparts, and select_top_k
// must match a full-sort oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

TEST(Magnitudes, FusedPassMatchesMaxAbs) {
  const auto grad = random_grad(1234, 9);
  std::vector<float> mags;
  const float mx = magnitudes(grad, mags);
  EXPECT_EQ(tensor::max_abs(grad), mx);
  ASSERT_EQ(grad.size(), mags.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    ASSERT_EQ(std::fabs(grad[i]), mags[i]);
  }
}

TEST(CountMaxNMags, MatchesCountMaxN) {
  const auto grad = random_grad(2000, 17);
  std::vector<float> mags;
  const float mx = magnitudes(grad, mags);
  for (double n : {0.5, 5.0, 50.0, 100.0}) {
    EXPECT_EQ(count_max_n(grad, n), count_max_n_mags(mags, mx, n)) << n;
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
