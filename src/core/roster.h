// A worker's membership view and bootstrap planning for elastic membership
// (DESIGN.md, "Elastic membership").
//
// A Membership is the one answer to "who is in" for a worker: the roster
// (a monotone epoch plus a member bit per fabric slot) and, on top of it,
// the fault-tolerance suspicion of members that went silent. Roster changes
// propagate via RosterUpdate broadcasts and are adopted iff strictly newer,
// so every worker converges on the controller's roster regardless of
// message interleaving - and because adoption depends only on the epoch
// comparison, the converged state is deterministic under replay. A run
// without elastic membership is the all-member roster at epoch 0; a serving
// slot is a slot that is never a member.
//
// plan_bootstrap splits a joiner's weight download into contiguous,
// disjoint variable ranges across >= 2 live donors (multi-peer bootstrap
// weight transfer): no single peer pays the whole model's egress, and the
// reassembled snapshot is bit-identical to any single donor's weights
// under BSP-consistent rosters (under ASP the chunks may straddle donor
// iterations; the joiner then catches up via the checkpoint path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dlion::core {

/// A worker's view of the cluster: roster epoch, member bits, suspicion.
///
/// A slot is *excluded* - left out of synchronization wait-sets, update
/// averaging, gradient sends and weight pulls - when it is not a member or
/// is suspected crashed. The owning worker's own slot is never excluded,
/// so the live count (non-excluded slots) always includes it.
class Membership {
 public:
  /// All-member roster at epoch 0 over `capacity` slots, owned by `self`.
  explicit Membership(std::size_t capacity, std::size_t self = 0)
      : Membership(std::vector<bool>(capacity, true), self) {}
  /// Roster `members` at epoch 0, owned by slot `self`.
  Membership(std::vector<bool> members, std::size_t self);

  std::uint64_t epoch() const { return epoch_; }
  std::size_t capacity() const { return members_.size(); }
  std::size_t member_count() const { return member_count_; }
  bool is_member(std::size_t slot) const { return members_.at(slot); }
  /// Member bits: the broadcast targets.
  const std::vector<bool>& members() const { return members_; }
  /// Member slot ids in ascending order.
  std::vector<std::size_t> member_ids() const;

  /// Adopt `members` at `epoch` iff strictly newer than the current view.
  /// Returns whether the view changed. Equal epochs are ignored (the first
  /// copy won; duplicates carry identical content by construction). Newly
  /// added members start unsuspected with a last-heard stamp of `now`.
  bool adopt(std::uint64_t epoch, const std::vector<bool>& members,
             common::SimTime now = 0.0);

  bool suspected(std::size_t slot) const { return suspected_.at(slot); }
  common::SimTime last_heard(std::size_t slot) const {
    return last_heard_.at(slot);
  }
  /// Exclusion mask: !member || suspected, never the owner's own slot.
  const std::vector<bool>& excluded() const { return excluded_; }
  /// Non-excluded slots, the owner included (cached, O(1)).
  std::size_t live_count() const { return live_count_; }

  /// Any message from `slot` is proof of life: stamp it and clear its
  /// suspicion. It is re-included only if it is a member.
  void heard(std::size_t slot, common::SimTime now);
  /// Suspect every member (other than the owner) unheard-from for longer
  /// than `timeout`, and clear members heard since. Non-members are never
  /// swept. Returns whether any suspicion changed.
  bool sweep(common::SimTime now, double timeout);
  /// Grace period: every slot heard-from at `now`, nobody suspected.
  void reset_liveness(common::SimTime now);

 private:
  /// Recompute slot `j`'s exclusion bit, keeping the live count in step.
  void refresh(std::size_t j);

  std::vector<bool> members_;
  std::vector<bool> suspected_;
  std::vector<common::SimTime> last_heard_;
  std::vector<bool> excluded_;
  std::size_t self_ = 0;
  std::size_t member_count_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t epoch_ = 0;
};

/// One contiguous slice of the model a bootstrap donor serves.
struct BootstrapRange {
  std::size_t donor = 0;      ///< worker slot serving this range
  std::uint32_t first_var = 0;
  std::uint32_t var_count = 0;
};

/// Split `num_vars` model variables into contiguous disjoint ranges over
/// `donors` (ascending slot ids, deterministic order). Uses up to `fanout`
/// donors — at least 2 whenever 2+ are available and there are 2+
/// variables to split; a single-variable model or single-donor roster
/// degenerates to one range. Ranges cover [0, num_vars) exactly.
std::vector<BootstrapRange> plan_bootstrap(std::size_t num_vars,
                                           const std::vector<std::size_t>& donors,
                                           std::size_t fanout);

}  // namespace dlion::core
