#include "core/link_prioritizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/check.h"
#include "core/gradient_select.h"
#include "tensor/ops.h"

namespace dlion::core {

namespace {

/// Index of the k-th ranked entry (1 <= k < size) of a permutation
/// partially ordered as described at LinkPrioritizer::VarOrder. Unless an
/// earlier link already placed it, partitions the segment between its
/// neighbouring pivots to put it in place.
std::uint32_t kth_index(std::span<const float> mags,
                        std::vector<std::uint32_t>& order,
                        std::vector<std::size_t>& pivots, std::size_t k) {
  DLION_DCHECK(k >= 1 && k < order.size());
  const std::size_t pos = k - 1;
  const auto next = std::lower_bound(pivots.begin(), pivots.end(), pos);
  if (next == pivots.end() || *next != pos) {
    // The segment between the neighbouring pivots holds exactly the ranks
    // in between, so partitioning it alone places rank `pos`. The rank
    // order is strict and total: the ranking, and with it every link's
    // top-k set, is unique.
    const float* m = mags.data();
    auto ranks_before = [m](std::uint32_t a, std::uint32_t b) {
      return m[a] != m[b] ? m[a] > m[b] : a < b;
    };
    const std::size_t lo = next == pivots.begin() ? 0 : *(next - 1) + 1;
    const std::size_t hi = next == pivots.end() ? order.size() : *next;
    const auto at = [&order](std::size_t p) {
      return order.begin() + static_cast<std::ptrdiff_t>(p);
    };
    std::nth_element(at(lo), at(pos), at(hi), ranks_before);
    pivots.insert(next, pos);
  }
  return order[pos];
}

/// The top-k entries of `grad` in index order, written to `writer`; `t` is
/// the index of the k-th ranked entry.
comm::VariableGrad emit_top_k(std::span<const float> grad,
                              std::span<const float> mags, std::uint32_t t,
                              std::uint32_t var_index, std::size_t k,
                              comm::PayloadWriter& writer) {
  comm::VariableGrad vg;
  vg.var_index = var_index;
  vg.dense_size = static_cast<std::uint32_t>(grad.size());
  // Entry i ranks at or above t iff m[i] > m[t], or m[i] == m[t] and
  // i <= t: one filter pass in index order, which stops at the k-th hit.
  // The `n < k` bound keeps every write inside the staged region even if
  // the ordering were inconsistent (NaN gradients).
  const float* m = mags.data();
  const float mt = m[t];
  const auto size = static_cast<std::uint32_t>(grad.size());
  std::uint32_t* idx = writer.stage<std::uint32_t>(k);
  std::size_t n = 0;
  for (std::uint32_t i = 0; i <= t && n < k; ++i) {
    idx[n] = i;
    n += m[i] >= mt ? 1u : 0u;
  }
  for (std::uint32_t i = t + 1; i < size && n < k; ++i) {
    idx[n] = i;
    n += m[i] > mt ? 1u : 0u;
  }
  DLION_DCHECK(n == k, "top-k filter selected a different count");
  vg.indices = writer.commit(idx, n);
  float* vals = writer.stage<float>(n);
  for (std::size_t j = 0; j < n; ++j) vals[j] = grad[idx[j]];
  vg.values = writer.commit(vals, n);
  return vg;
}

}  // namespace

LinkPrioritizer::LinkPrioritizer(LinkPrioritizerConfig config)
    : config_(config) {}

void LinkPrioritizer::begin_iteration(const nn::Model& model,
                                      std::uint64_t iteration) {
  (void)model;
  (void)iteration;
  stale_ = true;
}

void LinkPrioritizer::rebuild(const nn::Model& model, const LinkContext& ctx) {
  const auto& vars = model.variables();
  vars_.resize(vars.size());
  if (!config_.adaptive) {
    // Data quality assurance only: one Max N selection per iteration, shared
    // by every link as views over a single production write.
    comm::PayloadWriter writer(payload_arena(ctx));
    staged_.clear();
    last_entries_ = 0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const auto grad = vars[v]->grad().span();
      staged_.push_back(select_max_n(grad, static_cast<std::uint32_t>(v),
                                     config_.fixed_n, writer));
      last_entries_ += staged_.back().num_entries();
      if constexpr (common::kDchecksEnabled) {
        vars_[v].max_abs = tensor::max_abs(grad);
      }
    }
    return;
  }
  for (std::size_t v = 0; v < vars.size(); ++v) {
    VarOrder& var = vars_[v];
    var.max_abs = magnitudes(vars[v]->grad().span(), var.mags);
    var.k_floor = count_max_n_mags(var.mags, var.max_abs, config_.min_n);
    var.order.resize(var.mags.size());
    std::iota(var.order.begin(), var.order.end(), 0u);
    var.pivots.clear();
  }
}

std::vector<comm::VariableGrad> LinkPrioritizer::generate(
    const nn::Model& model, const LinkContext& ctx) {
  const auto& vars = model.variables();
  if (stale_) {
    rebuild(model, ctx);
    stale_ = false;
  }
  if constexpr (common::kDchecksEnabled) {
    // A caller that changes the gradients must call begin_iteration().
    DLION_DCHECK(vars_.size() == vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      DLION_DCHECK(tensor::max_abs(vars[v]->grad().span()) == vars_[v].max_abs,
                   "gradient changed without begin_iteration()");
    }
  }

  if (!config_.adaptive) {
    last_n_ = config_.fixed_n;
    return staged_;
  }

  // Transmission speed assurance: per-iteration byte budget of this link is
  // BW_net_j / Iter_com_i (§3.3).
  const double budget_bytes = config_.budget_fraction *
                              (ctx.available_mbps * 1e6 / 8.0) /
                              std::max(ctx.iterations_per_sec, 1e-9);
  // A sparse entry costs (index + value) = 8 bytes, scaled to nominal size.
  const double entry_bytes = 8.0 * std::max(ctx.byte_scale, 1e-12);
  const double entries_budget = std::max(0.0, budget_bytes / entry_bytes);

  comm::PayloadWriter writer(payload_arena(ctx));
  std::vector<comm::VariableGrad> out;
  out.reserve(vars.size());
  const std::size_t total_params = model.num_params();
  double weighted_n = 0.0;
  std::size_t total_entries = 0;
  for (std::size_t v = 0; v < vars.size(); ++v) {
    const auto grad = vars[v]->grad().span();
    VarOrder& var = vars_[v];
    // The budget is split across weight variables proportionally to size;
    // Max N is applied per variable (§3.3).
    const double share = total_params == 0
                             ? 0.0
                             : entries_budget * static_cast<double>(grad.size()) /
                                   static_cast<double>(total_params);
    const auto k_budget = static_cast<std::size_t>(std::floor(share));
    // Quality floor: never select less than Max N at min_n would.
    const std::size_t k = std::max<std::size_t>(
        std::max(k_budget, var.k_floor), grad.empty() ? 0 : 1);
    const auto var_index = static_cast<std::uint32_t>(v);
    double eq_n = 100.0;
    if (k >= grad.size()) {
      out.push_back(dense_grad(grad, var_index, writer));
    } else {
      // The equivalent N of a top-k selection is the Max N whose threshold
      // is its k-th largest magnitude. k < size implies max|g| > 0: with
      // max|g| == 0 the floor alone selects every entry.
      const std::uint32_t t = kth_index(var.mags, var.order, var.pivots, k);
      out.push_back(emit_top_k(grad, var.mags, t, var_index, k, writer));
      eq_n = equivalent_n_from_threshold(var.max_abs, var.mags[t]);
    }
    weighted_n += eq_n * static_cast<double>(grad.size());
    total_entries += out.back().num_entries();
  }
  last_n_ = total_params == 0 ? 100.0
                              : weighted_n / static_cast<double>(total_params);
  last_entries_ = total_entries;
  return out;
}

}  // namespace dlion::core
