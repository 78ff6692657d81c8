#include "core/link_prioritizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/gradient_select.h"
#include "tensor/ops.h"

namespace dlion::core {

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
    VarState& var = vars_[v];
    var.buckets.build(vars[v]->grad().span());
    var.max_abs = var.buckets.max_abs();
    var.k_floor = var.buckets.max_n_count(config_.min_n);
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
    VarState& var = vars_[v];
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
      comm::VariableGrad vg;
      vg.var_index = var_index;
      vg.dense_size = static_cast<std::uint32_t>(grad.size());
      std::uint32_t* idx = writer.stage<std::uint32_t>(k);
      const float kth_mag = var.buckets.top_k(k, idx);
      vg.indices = writer.commit(idx, k);
      float* vals = writer.stage<float>(k);
      for (std::size_t j = 0; j < k; ++j) vals[j] = grad[idx[j]];
      vg.values = writer.commit(vals, k);
      out.push_back(std::move(vg));
      eq_n = equivalent_n_from_threshold(var.max_abs, kth_mag);
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
