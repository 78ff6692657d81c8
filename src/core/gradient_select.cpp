#include "core/gradient_select.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "tensor/ops.h"

namespace dlion::core {

namespace {
void check_n(double n) {
  if (!(n > 0.0) || n > 100.0) {
    throw std::invalid_argument("Max N: N must be in (0, 100]");
  }
}

/// Thread-local (indices, values) staging vectors shared by all selectors.
/// Selection runs here, then the result is packed into payload storage in
/// one production write - steady-state selection touches the heap only
/// until the workspace capacity has warmed up.
struct SelectWorkspace {
  std::vector<std::uint32_t> idx;
  std::vector<float> vals;
  std::vector<float> mags;

  static SelectWorkspace& tls() {
    thread_local SelectWorkspace ws;
    return ws;
  }
};

/// Pack the staged selection into `v`: through the caller's writer (arena
/// block) when one is given, into a standalone exact-size block otherwise.
void emit_selection(comm::VariableGrad& v,
                    std::span<const std::uint32_t> idx,
                    std::span<const float> vals, comm::PayloadWriter* writer) {
  if (writer != nullptr) {
    v.indices = writer->copy(idx);
    v.values = writer->copy(vals);
  } else {
    v.indices = comm::make_payload(idx);
    v.values = comm::make_payload(vals);
  }
}

comm::VariableGrad dense_grad_impl(std::span<const float> grad,
                                   std::uint32_t var_index,
                                   comm::PayloadWriter* writer) {
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  v.values = writer != nullptr ? writer->copy(grad) : comm::make_payload(grad);
  return v;
}

/// Drop candidate (index, value) pairs whose magnitude fell below `thr`
/// after the running max rose. Order-preserving in-place filter.
void compact_candidates(std::vector<std::uint32_t>& idx,
                        std::vector<float>& vals, double thr) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < vals.size(); ++j) {
    if (static_cast<double>(std::fabs(vals[j])) >= thr) {
      idx[kept] = idx[j];
      vals[kept] = vals[j];
      ++kept;
    }
  }
  idx.resize(kept);
  vals.resize(kept);
}
}  // namespace

double max_n_threshold(double n, float max_abs) {
  check_n(n);
  return (1.0 - n / 100.0) * static_cast<double>(max_abs);
}

namespace {
comm::VariableGrad select_max_n_impl(std::span<const float> grad,
                                     std::uint32_t var_index, double n,
                                     comm::PayloadWriter* writer) {
  check_n(n);
  if (n == 100.0) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (grad.empty()) return v;

  // Single fused pass: track the running max-abs and collect candidates
  // against the threshold it implies so far. The threshold only grows as
  // the max grows, so the candidate set is always a superset of the final
  // selection; stale candidates are pruned lazily (when the buffer doubles
  // past its last compaction) and once more at the end against the final
  // threshold. This selects exactly the entries the two-pass version did -
  // same threshold arithmetic, same index order - in one traversal.
  const double keep = 1.0 - n / 100.0;
  float running_max = 0.0f;
  double thr = 0.0;
  SelectWorkspace& ws = SelectWorkspace::tls();
  auto& idx = ws.idx;
  auto& vals = ws.vals;
  idx.clear();
  vals.clear();
  std::size_t compact_limit = 256;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float g = grad[i];
    const float mag = std::fabs(g);
    if (mag > running_max) {
      running_max = mag;
      thr = keep * static_cast<double>(running_max);
    }
    if (static_cast<double>(mag) >= thr) {
      idx.push_back(static_cast<std::uint32_t>(i));
      vals.push_back(g);
      if (idx.size() >= compact_limit) {
        compact_candidates(idx, vals, thr);
        compact_limit = std::max<std::size_t>(256, idx.size() * 2);
      }
    }
  }
  compact_candidates(idx, vals, thr);
  emit_selection(v, idx, vals, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n) {
  return select_max_n_impl(grad, var_index, n, nullptr);
}

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n,
                                comm::PayloadWriter& writer) {
  return select_max_n_impl(grad, var_index, n, &writer);
}

comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index,
                              comm::PayloadWriter& writer) {
  return dense_grad_impl(grad, var_index, &writer);
}

std::size_t count_max_n(std::span<const float> grad, double n) {
  check_n(n);
  if (n == 100.0) return grad.size();
  const float mx = tensor::max_abs(grad);
  const double thr = max_n_threshold(n, mx);
  // Branchless comparison loop: vectorizes cleanly (compare + widen + add).
  std::size_t count = 0;
  const float* __restrict p = grad.data();
  const std::size_t size = grad.size();
  for (std::size_t i = 0; i < size; ++i) {
    count += static_cast<double>(std::fabs(p[i])) >= thr ? 1u : 0u;
  }
  return count;
}

float magnitudes(std::span<const float> grad, std::vector<float>& mags) {
  mags.resize(grad.size());
  const float* __restrict src = grad.data();
  float* __restrict dst = mags.data();
  float mx = 0.0f;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float m = std::fabs(src[i]);
    dst[i] = m;
    mx = m > mx ? m : mx;
  }
  return mx;
}

std::size_t count_max_n_mags(std::span<const float> mags, float max_abs,
                             double n) {
  check_n(n);
  if (n == 100.0) return mags.size();
  const double thr = max_n_threshold(n, max_abs);
  std::size_t count = 0;
  const float* __restrict p = mags.data();
  const std::size_t size = mags.size();
  for (std::size_t i = 0; i < size; ++i) {
    count += static_cast<double>(p[i]) >= thr ? 1u : 0u;
  }
  return count;
}

namespace {
comm::VariableGrad select_top_k_impl(std::span<const float> grad,
                                     std::uint32_t var_index, std::size_t k,
                                     comm::PayloadWriter* writer) {
  if (k >= grad.size()) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (k == 0) return v;
  // Partial sort of indices by |g| descending, index ascending on ties.
  // The comparator reads the precomputed magnitudes: nth_element invokes it
  // O(n log n) times in the worst case, so hoisting fabs out of it matters.
  SelectWorkspace& ws = SelectWorkspace::tls();
  magnitudes(grad, ws.mags);
  auto& idx = ws.idx;
  idx.resize(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  const float* m = ws.mags.data();
  auto cmp = [m](std::uint32_t a, std::uint32_t b) {
    const float fa = m[a], fb = m[b];
    if (fa != fb) return fa > fb;
    return a < b;
  };
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), cmp);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  auto& vals = ws.vals;
  vals.resize(k);
  for (std::size_t i = 0; i < k; ++i) vals[i] = grad[idx[i]];
  emit_selection(v, idx, vals, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k) {
  return select_top_k_impl(grad, var_index, k, nullptr);
}

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k,
                                comm::PayloadWriter& writer) {
  return select_top_k_impl(grad, var_index, k, &writer);
}

double equivalent_n_from_threshold(float max_abs, float kth_mag) {
  return (1.0 - static_cast<double>(kth_mag) / static_cast<double>(max_abs)) *
         100.0;
}

}  // namespace dlion::core
