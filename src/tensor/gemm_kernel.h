// Register-tiled GEMM micro-kernels behind a tiny dispatch table.
//
// The blocked GEMM driver (tensor/ops.cpp) packs A into (kc x MR) strips and
// B into (kc x NR) strips, then calls MicroKernel::tile for every MR x NR
// tile of C. The tile function accumulates
//
//     acc[i][j] = sum_{p=0}^{kc-1} a_strip[p*MR + i] * b_strip[p*NR + j]
//
// entirely in registers (fixed p-ascending order - this is what makes the
// whole GEMM bit-deterministic at any thread count) and then performs the
// epilogue  C[i][j] += alpha * acc[i][j]  for the valid mr_eff x nr_eff
// corner of the tile.
//
// Two implementations are compiled from the same template body
// (gemm_microkernel.inl):
//   * portable (4x8):  baseline ISA, always available.
//   * avx2 (6x16):     built only when the toolchain accepts -mavx2 -mfma
//                      (CMake defines DLION_HAVE_AVX2_KERNEL), selected at
//                      runtime only when the CPU reports AVX2+FMA.
// The active kernel is fixed for the lifetime of the process, so results
// are deterministic per host; DLION_GEMM_KERNEL=portable|avx2 overrides the
// choice (e.g. for cross-kernel comparisons or bit-reproduction across
// machines with different ISAs).
#pragma once

#include <cstddef>

namespace dlion::tensor::detail {

using MicroTileFn = void (*)(std::size_t kc, const float* a_strip,
                             const float* b_strip, float alpha, float* c,
                             std::size_t ldc, std::size_t mr_eff,
                             std::size_t nr_eff);

struct MicroKernel {
  std::size_t mr = 0;  ///< A-strip register rows
  std::size_t nr = 0;  ///< B-strip register columns
  MicroTileFn tile = nullptr;
  const char* name = "";
};

/// Baseline-ISA kernel; always linked.
const MicroKernel& portable_micro_kernel();

#if defined(DLION_HAVE_AVX2_KERNEL)
/// AVX2+FMA kernel; only safe to call when the CPU supports AVX2 and FMA.
const MicroKernel& avx2_micro_kernel();
#endif

/// The kernel the process uses, chosen once: the widest kernel the CPU
/// supports, unless overridden via DLION_GEMM_KERNEL.
const MicroKernel& active_micro_kernel();

/// The blocked, packed GEMM of tensor::gemm (tensor/ops.cpp) run on a
/// given micro-kernel: C += alpha * op(A) * op(B), beta already applied.
/// tensor::gemm passes active_micro_kernel(); tests pass a specific kernel.
void gemm_packed(const MicroKernel& mk, bool trans_a, bool trans_b,
                 std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, const float* b, float* c);

}  // namespace dlion::tensor::detail
