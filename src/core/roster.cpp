#include "core/roster.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace dlion::core {

Membership::Membership(std::vector<bool> members, std::size_t self)
    : members_(std::move(members)),
      suspected_(members_.size(), false),
      last_heard_(members_.size(), 0.0),
      excluded_(members_.size(), false),
      self_(self) {
  if (self_ >= members_.size()) {
    throw std::invalid_argument("Membership: owner slot out of range");
  }
  member_count_ = static_cast<std::size_t>(
      std::count(members_.begin(), members_.end(), true));
  live_count_ = members_.size();
  for (std::size_t j = 0; j < members_.size(); ++j) refresh(j);
}

void Membership::refresh(std::size_t j) {
  const bool out = j != self_ && (!members_[j] || suspected_[j]);
  if (out == excluded_[j]) return;
  excluded_[j] = out;
  if (out) {
    --live_count_;
  } else {
    ++live_count_;
  }
}

bool Membership::adopt(std::uint64_t epoch, const std::vector<bool>& members,
                       common::SimTime now) {
  if (epoch <= epoch_) return false;
  DLION_ASSERT(members.size() == members_.size(),
               "Membership::adopt: capacity mismatch");
  for (std::size_t j = 0; j < members.size(); ++j) {
    if (members[j] && !members_[j] && j != self_) {
      last_heard_[j] = now;
      suspected_[j] = false;
    }
    members_[j] = members[j];
    refresh(j);
  }
  member_count_ = static_cast<std::size_t>(
      std::count(members_.begin(), members_.end(), true));
  epoch_ = epoch;
  return true;
}

std::vector<std::size_t> Membership::member_ids() const {
  std::vector<std::size_t> ids;
  ids.reserve(member_count_);
  for (std::size_t w = 0; w < members_.size(); ++w) {
    if (members_[w]) ids.push_back(w);
  }
  return ids;
}

void Membership::heard(std::size_t slot, common::SimTime now) {
  last_heard_.at(slot) = now;
  suspected_[slot] = false;
  refresh(slot);
}

bool Membership::sweep(common::SimTime now, double timeout) {
  bool changed = false;
  for (std::size_t j = 0; j < members_.size(); ++j) {
    if (j == self_ || !members_[j]) continue;
    const bool sus = (now - last_heard_[j]) > timeout;
    if (sus == suspected_[j]) continue;
    suspected_[j] = sus;
    refresh(j);
    changed = true;
  }
  return changed;
}

void Membership::reset_liveness(common::SimTime now) {
  std::fill(last_heard_.begin(), last_heard_.end(), now);
  std::fill(suspected_.begin(), suspected_.end(), false);
  for (std::size_t j = 0; j < members_.size(); ++j) refresh(j);
}

std::vector<BootstrapRange> plan_bootstrap(
    std::size_t num_vars, const std::vector<std::size_t>& donors,
    std::size_t fanout) {
  if (donors.empty()) {
    throw std::invalid_argument("plan_bootstrap: no donors");
  }
  if (num_vars == 0) return {};
  // Never more donors than variables (a range must be non-empty), never
  // more than requested or available.
  const std::size_t k =
      std::min({fanout == 0 ? std::size_t{1} : fanout, donors.size(),
                num_vars});
  std::vector<BootstrapRange> ranges;
  ranges.reserve(k);
  // Contiguous split with the remainder spread over the first ranges:
  // sizes differ by at most one, assignment is donor-order deterministic.
  const std::size_t base = num_vars / k;
  const std::size_t extra = num_vars % k;
  std::uint32_t first = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t count = base + (i < extra ? 1 : 0);
    ranges.push_back(BootstrapRange{donors[i], first,
                                    static_cast<std::uint32_t>(count)});
    first += static_cast<std::uint32_t>(count);
  }
  DLION_ASSERT(first == num_vars, "plan_bootstrap: ranges must cover model");
  return ranges;
}

}  // namespace dlion::core
