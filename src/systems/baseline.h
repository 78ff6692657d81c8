// Baseline system (§5.1.4): exchange whole gradients with all workers every
// iteration, synchronous training. The "generate_partial_gradients" plugin
// is one line of algorithm: everything, dense.
#pragma once

#include "core/strategy.h"

namespace dlion::systems {

class BaselineStrategy : public core::PartialGradientStrategy {
 public:
  /// Drops the staged gradient; the next generate() stages the fresh one.
  void begin_iteration(const nn::Model& model,
                       std::uint64_t iteration) override;
  std::vector<comm::VariableGrad> generate(
      const nn::Model& model, const core::LinkContext& ctx) override;
  const char* name() const override { return "baseline"; }

 private:
  /// Per-iteration staged gradient, shared by every peer's update.
  std::vector<comm::VariableGrad> staged_;
};

}  // namespace dlion::systems
