// Ako (Watcharapichat et al., SoCC '16) emulated in the DLion framework
// (§5.1.4): partition the gradient space into p blocks sized from the
// available network capacity and computation speed, and send one block per
// iteration in round-robin order. Unsent blocks accumulate locally
// ("accumulated gradient history"), so every entry is eventually shipped.
// Ako trains asynchronously.
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dlion::systems {

class AkoStrategy : public core::PartialGradientStrategy {
 public:
  /// `partitions` = 0 derives p per link from the first LinkContext:
  /// p ~= full nominal gradient bytes / per-iteration link byte budget.
  explicit AkoStrategy(std::size_t partitions = 0);

  /// Starts an iteration: each peer's accumulator takes the fresh gradient
  /// once, on its next generate().
  void begin_iteration(const nn::Model& model,
                       std::uint64_t iteration) override;
  std::vector<comm::VariableGrad> generate(
      const nn::Model& model, const core::LinkContext& ctx) override;
  const char* name() const override { return "ako"; }

  /// Partition count currently used for `peer` (0 if not yet derived).
  std::size_t partitions_for(std::size_t peer) const;

 private:
  struct PeerState {
    std::size_t p = 0;
    /// iterations_begun_ when the accumulator last took the gradient.
    std::uint64_t accumulated_at = static_cast<std::uint64_t>(-1);
    std::vector<std::vector<float>> acc;  // per variable accumulated grads
  };
  PeerState& peer_state(const nn::Model& model, const core::LinkContext& ctx);

  std::size_t configured_p_;
  std::vector<PeerState> peers_;
  /// Bumped by begin_iteration; keys the once-per-iteration accumulation,
  /// which must not compare iteration numbers (a recovering worker repeats
  /// them with fresh gradients).
  std::uint64_t iterations_begun_ = 0;
};

}  // namespace dlion::systems
