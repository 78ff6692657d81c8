#include "core/membership.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"

namespace dlion::core {

MembershipController::MembershipController(
    sim::Engine& engine, comm::Fabric& fabric, std::vector<Worker*> workers,
    MembershipConfig config, std::vector<bool> initial,
    common::SimTime duration, std::uint64_t seed)
    : engine_(&engine),
      fabric_(&fabric),
      workers_(std::move(workers)),
      config_(std::move(config)),
      members_(std::move(initial)),
      duration_(duration),
      seed_(seed),
      autoscaler_(config_.autoscaler) {
  if (members_.size() != fabric_->size()) {
    throw std::invalid_argument(
        "MembershipController: roster size != fabric size");
  }
  if (member_count() == 0) {
    throw std::invalid_argument("MembershipController: empty initial roster");
  }
  fabric_->network().set_active_workers(member_count());
}

std::size_t MembershipController::member_count() const {
  return static_cast<std::size_t>(
      std::count(members_.begin(), members_.end(), true));
}

void MembershipController::start() {
  for (const sim::MembershipEvent& ev : config_.schedule.sorted_events()) {
    if (ev.join) {
      engine_->at(ev.time, [this, ev] { activate(ev.worker, ev.machine); });
    } else {
      engine_->at(ev.time, [this, ev] { deactivate(ev.worker); });
    }
  }
  if (config_.autoscaler.enabled) {
    engine_->after(config_.autoscaler_period_s, [this] { autoscaler_tick(); });
  }
}

void MembershipController::activate(std::size_t w, std::size_t machine) {
  if (w >= workers_.size() || members_[w]) return;
  Worker* worker = workers_[w];
  if (!worker->dormant()) return;  // slot busy (should not happen)
  ++epoch_;
  members_[w] = true;
  // VirtualFlow-style indirection: rebind the logical worker onto the
  // requested machine's compute resource before it starts training.
  if (machine != sim::MembershipEvent::kSameMachine &&
      machine < config_.machines.size()) {
    worker->rebind_compute(sim::ComputeResource(
        config_.machines[machine], worker->profile(),
        seed_ ^ (0x9e3779b97f4a7c15ULL + w * 1315423911ULL + machine)));
  }
  ++stats_.joins;
  // Re-join of a slot that was a member before: freeze the previous
  // tenure's record now, before Worker::join resets the bootstrap state
  // it is filled from.
  for (auto it = stats_.join_log.rbegin(); it != stats_.join_log.rend();
       ++it) {
    if (it->worker != w) continue;
    it->completed = worker->bootstrap_complete_time();
    it->donors = worker->bootstrap_donor_count();
    it->bootstrap_bytes = worker->bootstrap_bytes();
    break;
  }
  JoinRecord rec;
  rec.worker = w;
  rec.requested = engine_->now();
  stats_.join_log.push_back(rec);
  worker->join(epoch_, members_, duration_);
  // The egress fair-share divisor tracks the live roster: n-1 peers of the
  // *current* membership, not of the slot capacity.
  fabric_->network().set_active_workers(member_count());
}

void MembershipController::deactivate(std::size_t w) {
  if (w >= workers_.size() || !members_[w]) return;
  if (member_count() <= 1) return;  // never drop the last member
  ++epoch_;
  members_[w] = false;
  ++stats_.leaves;
  workers_[w]->leave(epoch_, members_);
  fabric_->network().set_active_workers(member_count());
}

void MembershipController::autoscaler_tick() {
  if (engine_->now() >= duration_) return;
  AutoscalerSignals sig;
  sig.members = member_count();
  sig.capacity = workers_.size();
  double sum_interval = 0.0;
  std::size_t with_interval = 0;
  common::SimTime latest_finish = -1.0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!members_[w]) continue;
    const Worker& wk = *workers_[w];
    const double iv = wk.iteration_interval();
    if (iv > 0.0) {
      sum_interval += iv;
      ++with_interval;
      sig.max_interval_s = std::max(sig.max_interval_s, iv);
    }
    latest_finish = std::max(latest_finish, wk.last_finish_time());
    sig.max_backlog_bytes = std::max(
        sig.max_backlog_bytes,
        static_cast<double>(fabric_->network().backlog_bytes(w)));
  }
  if (with_interval > 0) {
    sig.mean_interval_s = sum_interval / static_cast<double>(with_interval);
  }
  sig.seconds_since_progress =
      latest_finish < 0.0 ? engine_->now() : engine_->now() - latest_finish;
  const std::uint64_t dl = fabric_->dead_letters();
  sig.dead_letter_delta = dl - last_dead_letters_;
  last_dead_letters_ = dl;

  const ScaleDecision d = autoscaler_.decide(sig);
  if (d == ScaleDecision::kScaleOut) {
    ++stats_.scale_out_decisions;
    // Lowest-id dormant slot joins (deterministic choice).
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (!members_[w] && workers_[w]->dormant()) {
        activate(w);
        break;
      }
    }
  } else if (d == ScaleDecision::kScaleIn) {
    ++stats_.scale_in_decisions;
    // Highest-id member leaves (deterministic choice).
    for (std::size_t w = workers_.size(); w-- > 0;) {
      if (members_[w]) {
        deactivate(w);
        break;
      }
    }
  }
  engine_->after(config_.autoscaler_period_s, [this] { autoscaler_tick(); });
}

ElasticStats MembershipController::stats() const {
  ElasticStats s = stats_;
  s.epoch = epoch_;
  s.final_members = member_count();
  // Only each slot's *latest* join reads the worker's live bootstrap
  // state; earlier tenures were frozen by the re-activation that replaced
  // them (the worker keeps only its current tenure's counters).
  std::vector<bool> latest_seen(workers_.size(), false);
  for (auto it = s.join_log.rbegin(); it != s.join_log.rend(); ++it) {
    if (latest_seen[it->worker]) continue;
    latest_seen[it->worker] = true;
    const Worker& wk = *workers_[it->worker];
    it->completed = wk.bootstrap_complete_time();
    it->donors = wk.bootstrap_donor_count();
    it->bootstrap_bytes = wk.bootstrap_bytes();
  }
  return s;
}

}  // namespace dlion::core
