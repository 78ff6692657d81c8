#include "systems/baseline.h"

#include "core/gradient_select.h"

namespace dlion::systems {

void BaselineStrategy::begin_iteration(const nn::Model& model,
                                       std::uint64_t iteration) {
  (void)model;
  (void)iteration;
  staged_.clear();
}

std::vector<comm::VariableGrad> BaselineStrategy::generate(
    const nn::Model& model, const core::LinkContext& ctx) {
  // generate_partial_gradients == whole gradients (Table 1: 1 line). The
  // dense gradient is staged into payload blocks once per iteration (lazily,
  // on the first peer); every other peer's update shares views over that
  // single production write - copying a VariableGrad only increfs blocks.
  if (staged_.empty()) {
    comm::PayloadWriter writer(payload_arena(ctx));
    const auto& vars = model.variables();
    staged_.reserve(vars.size());
    for (std::size_t v = 0; v < vars.size(); ++v) {
      staged_.push_back(core::dense_grad(vars[v]->grad().span(),
                                         static_cast<std::uint32_t>(v),
                                         writer));
    }
  }
  return staged_;
}

}  // namespace dlion::systems
