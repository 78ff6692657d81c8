// Conformance and determinism suite for the cache-blocked packed GEMM.
//
// The packed kernel is validated against the naive oracle
// (tensor::reference_gemm, oracle/gemm_ref.h) across all four transpose
// variants, odd shapes that exercise every edge-tile path of the blocking
// (m/n/k of 1, 3, tile +/- 1, and above the MC/KC/NC blocking), the
// training workloads' own layer shapes, and alpha/beta edge cases.
// The determinism tests assert the contract documented in ops.h: results
// are bit-identical with the thread-pool fan-out on or off, and across
// thread-pool sizes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gemm_ref.h"
#include "tensor/gemm_kernel.h"
#include "tensor/ops.h"

namespace dlion::tensor {
namespace {

std::vector<float> random_vec(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

/// Tolerance scaled to the dot-product length: the packed kernel and the
/// reference accumulate in different orders, so they agree to float
/// rounding, not bitwise.
double tol_for(std::size_t k) { return 1e-5 * static_cast<double>(k + 16); }

void expect_conformance(bool ta, bool tb, std::size_t m, std::size_t n,
                        std::size_t k, float alpha, float beta,
                        std::uint64_t seed) {
  common::Rng rng(seed);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  const auto c0 = random_vec(m * n, rng);

  std::vector<float> c_packed = c0, c_ref = c0;
  gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c_packed.data());
  reference_gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta,
                 c_ref.data());
  const double tol = tol_for(k) * (std::abs(alpha) + std::abs(beta) + 1.0);
  for (std::size_t i = 0; i < c_packed.size(); ++i) {
    ASSERT_NEAR(c_packed[i], c_ref[i], tol)
        << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
        << " k=" << k << " alpha=" << alpha << " beta=" << beta << " i=" << i;
  }
}

class GemmConformance
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmConformance, OddShapesMatchReference) {
  const auto [ta, tb] = GetParam();
  // 1 and 3: degenerate panels. 5/7/9/15/17: around the 4x8 / 6x16 register
  // tiles. 121/127: above the MC=120 row blocking. 257: above KC=NC=256, so
  // the k- and n-loops take more than one block.
  const std::size_t dims[] = {1, 3, 5, 7, 9, 15, 17, 121};
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : dims) {
        expect_conformance(ta, tb, m, n, k, 1.0f, 0.0f,
                           m * 10007 + n * 101 + k);
      }
    }
  }
}

TEST_P(GemmConformance, BlockingBoundariesMatchReference) {
  const auto [ta, tb] = GetParam();
  // Shapes straddling the MC/KC/NC cache blocking.
  expect_conformance(ta, tb, 119, 64, 257, 1.0f, 0.0f, 11);
  expect_conformance(ta, tb, 121, 257, 64, 1.0f, 1.0f, 12);
  expect_conformance(ta, tb, 127, 255, 129, 1.0f, 0.0f, 13);
}

TEST_P(GemmConformance, WorkloadShapesMatchReference) {
  const auto [ta, tb] = GetParam();
  // cipher-lite's output layer at batch rows 1, 14 and 27: n = 10 leaves a
  // partial NR strip under both micro-kernels.
  for (std::size_t m : {1, 14, 27}) {
    expect_conformance(ta, tb, m, 10, 48, 1.0f, 0.0f, 200 + m);
  }
  // The 64 -> 64 -> 48 layers: forward (batch x out x in), dW (in x out x
  // batch) and dx (batch x in x out), at a training and the eval batch.
  const std::size_t layers[][2] = {{64, 64}, {64, 48}, {48, 10}};
  for (std::size_t batch : {14, 219, 512}) {
    for (const auto& [in, out] : layers) {
      expect_conformance(ta, tb, batch, out, in, 1.0f, 0.0f, 300 + batch);
      expect_conformance(ta, tb, in, out, batch, 1.0f, 1.0f, 400 + batch);
      expect_conformance(ta, tb, batch, in, out, 1.0f, 0.0f, 500 + batch);
    }
  }
}

#if defined(__x86_64__)
TEST_P(GemmConformance, PortableKernelBitIdenticalToReference) {
  // With alpha = 1, beta = 0 and k <= KC = 256 the portable 4x8 kernel
  // forms each C element as ((0 + a0*b0) + a1*b1) + ..., the reference's
  // sum in the reference's order; baseline x86-64 has no FMA to contract
  // the products. That is why results pinned before tensor::gemm ran
  // small problems on the packed kernel still hold under
  // DLION_GEMM_KERNEL=portable. (The AVX2 kernel fuses each multiply-add,
  // so it agrees only to rounding.)
  const auto [ta, tb] = GetParam();
  const std::size_t dims[] = {1, 5, 10, 14, 17, 27, 48, 64, 121, 219};
  for (std::size_t m : dims) {
    for (std::size_t n : dims) {
      for (std::size_t k : {1, 3, 48, 64, 219, 256}) {
        common::Rng rng(m * 7919 + n * 31 + k);
        const auto a = random_vec(m * k, rng);
        const auto b = random_vec(k * n, rng);
        std::vector<float> c_packed(m * n, 0.0f), c_ref(m * n);
        detail::gemm_packed(detail::portable_micro_kernel(), ta, tb, m, n, k,
                            1.0f, a.data(), b.data(), c_packed.data());
        reference_gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
                       c_ref.data());
        ASSERT_EQ(0, std::memcmp(c_packed.data(), c_ref.data(),
                                 c_ref.size() * sizeof(float)))
            << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
            << " k=" << k;
      }
    }
  }
}
#endif

TEST_P(GemmConformance, AlphaBetaEdges) {
  const auto [ta, tb] = GetParam();
  const std::size_t m = 33, n = 65, k = 97;
  for (float alpha : {0.0f, 1.0f, 0.5f, -2.0f}) {
    for (float beta : {0.0f, 1.0f, 0.5f, -1.0f}) {
      expect_conformance(ta, tb, m, n, k, alpha, beta, 100 + ta * 2 + tb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmConformance,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GemmConformance, KZeroScalesByBeta) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

// --- Determinism -----------------------------------------------------------

std::vector<float> run_gemm_once(std::size_t m, std::size_t n, std::size_t k,
                                 bool ta, bool tb) {
  common::Rng rng(99);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(m * n, 0.25f);
  gemm(ta, tb, m, n, k, 1.0f, a.data(), b.data(), 1.0f, c.data());
  return c;
}

TEST(GemmDeterminism, SerialAndPooledBitIdentical) {
  // Large enough to clear the parallel cutoff.
  const std::size_t m = 320, n = 192, k = 288;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const bool prev = set_gemm_parallel(false);
      const auto serial = run_gemm_once(m, n, k, ta, tb);
      set_gemm_parallel(true);
      const auto pooled = run_gemm_once(m, n, k, ta, tb);
      set_gemm_parallel(prev);
      ASSERT_EQ(0, std::memcmp(serial.data(), pooled.data(),
                               serial.size() * sizeof(float)))
          << "ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossThreadCounts) {
  const std::size_t m = 320, n = 192, k = 288;
  std::vector<float> baseline;
  for (std::size_t total_threads : {1u, 2u, 4u}) {
    common::ThreadPool::reset_global_for_testing(total_threads);
    const auto c = run_gemm_once(m, n, k, false, false);
    if (baseline.empty()) {
      baseline = c;
    } else {
      ASSERT_EQ(0, std::memcmp(baseline.data(), c.data(),
                               c.size() * sizeof(float)))
          << "threads=" << total_threads;
    }
  }
  common::ThreadPool::reset_global_for_testing(0);  // restore default
}

TEST(GemmDeterminism, RepeatRunsIdentical) {
  const auto c1 = run_gemm_once(130, 257, 70, false, false);
  const auto c2 = run_gemm_once(130, 257, 70, false, false);
  ASSERT_EQ(0,
            std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

TEST(GemmKernel, NameIsReported) {
  const char* name = gemm_kernel_name();
  ASSERT_NE(name, nullptr);
  EXPECT_GT(std::strlen(name), 0u);
}

}  // namespace
}  // namespace dlion::tensor
