// Per-link prioritized gradient exchange (§3.3): DLion's own
// PartialGradientStrategy combining the data quality assurance module
// (Max N selection) with the transmission speed assurance module (per-link
// automatic choice of the largest N that fits the link).
//
// The per-iteration byte budget of link i->j is BW_net_j / Iter_com_i: the
// bytes the link can absorb during one of the sender's iterations. The
// strategy picks the largest N whose Max N selection fits that budget,
// implemented as a top-k selection with k derived from the budget (these
// coincide: the k-th largest magnitude is exactly the Max N threshold). A
// configurable floor `min_n` (paper: 0.85) guarantees a minimum data
// quality even on starved links.
//
// Every link of an iteration ranks the same gradient, so everything that
// does not depend on the link is computed once per iteration: per variable
// max|g|, the min_n floor count and the magnitudes grouped into value
// buckets (MagnitudeBuckets, gradient_select.h). A link then picks its k,
// partitions only the one bucket that holds rank k to find the k-th largest
// magnitude, and emits in index order every entry above it plus, when
// entries tie at that magnitude, the lowest-indexed of the tied ones: the
// (|g| descending, index ascending) rank rule of a plain top-k. In fixed-N
// mode the whole Max N selection is staged once per iteration and every
// link shares its views.
#pragma once

#include <cstdint>
#include <vector>

#include "core/gradient_select.h"
#include "core/strategy.h"

namespace dlion::core {

struct LinkPrioritizerConfig {
  /// Lower bound on N (paper evaluation: 0.85).
  double min_n = 0.85;
  /// If false, transmission speed assurance is disabled and `fixed_n` is
  /// used on every link (used for the Max N-only experiments, Fig. 16).
  bool adaptive = true;
  double fixed_n = 10.0;
  /// Fraction of the link budget usable for gradient payload (headroom for
  /// headers/control traffic).
  double budget_fraction = 0.9;
};

class LinkPrioritizer : public PartialGradientStrategy {
 public:
  explicit LinkPrioritizer(LinkPrioritizerConfig config);

  /// Marks the per-iteration selection state stale; the first generate()
  /// after it rebuilds that state from the model's fresh gradients.
  void begin_iteration(const nn::Model& model,
                       std::uint64_t iteration) override;
  std::vector<comm::VariableGrad> generate(const nn::Model& model,
                                           const LinkContext& ctx) override;
  const char* name() const override { return "dlion-perlink"; }

  /// Equivalent N chosen for the most recent generate() call (for traces).
  double last_n() const { return last_n_; }
  /// Entries selected in the most recent generate() call.
  std::size_t last_entries() const { return last_entries_; }

 private:
  /// Link-independent selection state of one weight variable.
  struct VarState {
    MagnitudeBuckets buckets;
    float max_abs = 0.0f;
    /// Entries Max N selects at min_n: the quality floor of every link.
    std::size_t k_floor = 0;
  };

  void rebuild(const nn::Model& model, const LinkContext& ctx);

  LinkPrioritizerConfig config_;
  double last_n_ = 100.0;
  std::size_t last_entries_ = 0;
  /// Set by begin_iteration(); the next generate() rebuilds the state below.
  bool stale_ = true;
  /// Per variable; fixed-N mode fills only max_abs, for the DCHECK.
  std::vector<VarState> vars_;
  std::vector<comm::VariableGrad> staged_;  ///< fixed-N mode
};

}  // namespace dlion::core
