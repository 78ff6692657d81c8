#include "gemm_ref.h"

#include <cstring>

namespace dlion::tensor {

namespace {
// The pre-blocking kernels, preserved as-is (minus the thread-pool fan-out)
// from the original tensor/ops.cpp.

void ref_nn(std::size_t m, std::size_t n, std::size_t k, float alpha,
            const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * a[i * k + p];
      if (av == 0.0f) continue;
      const float* brow = b + p * n;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_nt(std::size_t m, std::size_t n, std::size_t k, float alpha,
            const float* a, const float* b, float* c) {
  // B is (n x k): C[i][j] += alpha * dot(A.row(i), B.row(j))
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += alpha * acc;
    }
  }
}

void ref_tn(std::size_t m, std::size_t n, std::size_t k, float alpha,
            const float* a, const float* b, float* c) {
  // A is (k x m): C[i][j] += alpha * sum_p A[p][i] * B[p][j]
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ref_tt(std::size_t m, std::size_t n, std::size_t k, float alpha,
            const float* a, const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[p * m + i] * b[j * k + p];
      c[i * n + j] += alpha * acc;
    }
  }
}
}  // namespace

void reference_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                    std::size_t k, float alpha, const float* a, const float* b,
                    float beta, float* c) {
  if (beta == 0.0f) {
    std::memset(c, 0, m * n * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (!trans_a && !trans_b) {
    ref_nn(m, n, k, alpha, a, b, c);
  } else if (!trans_a && trans_b) {
    ref_nt(m, n, k, alpha, a, b, c);
  } else if (trans_a && !trans_b) {
    ref_tn(m, n, k, alpha, a, b, c);
  } else {
    ref_tt(m, n, k, alpha, a, b, c);
  }
}

}  // namespace dlion::tensor
