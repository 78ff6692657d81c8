// Deep-Gradient-Compression-style strategy (extension).
//
// The paper's related work notes that gradient compression algorithms
// "can be placed in the data quality assurance module in DLion" - this
// plugin demonstrates exactly that: top-k selection by magnitude over an
// error-feedback residual (unsent gradient mass accumulates locally and is
// re-considered every iteration), the core of DGC (Lin et al., ICLR '18)
// and sparsified-SGD methods the paper cites as complementary [3, 43].
#pragma once

#include <vector>

#include "core/strategy.h"

namespace dlion::systems {

class DgcStrategy : public core::PartialGradientStrategy {
 public:
  /// `density`: fraction of each variable's entries shipped per iteration.
  explicit DgcStrategy(double density = 0.01);

  /// Starts an iteration: each peer's accumulator takes the fresh gradient
  /// once, on its next generate().
  void begin_iteration(const nn::Model& model,
                       std::uint64_t iteration) override;
  std::vector<comm::VariableGrad> generate(
      const nn::Model& model, const core::LinkContext& ctx) override;
  const char* name() const override { return "dgc"; }

 private:
  struct PeerState {
    /// iterations_begun_ when the accumulator last took the gradient.
    std::uint64_t accumulated_at = static_cast<std::uint64_t>(-1);
    std::vector<std::vector<float>> residual;  // error-feedback accumulator
  };
  PeerState& peer_state(const nn::Model& model, std::size_t peer);

  double density_;
  std::vector<PeerState> peers_;
  /// Bumped by begin_iteration; keys the once-per-iteration accumulation,
  /// which must not compare iteration numbers (a recovering worker repeats
  /// them with fresh gradients).
  std::uint64_t iterations_begun_ = 0;
};

}  // namespace dlion::systems
