// Membership controller: drives deterministic join/leave over a cluster of
// worker slots (DESIGN.md, "Elastic membership").
//
// The controller owns the authoritative roster epoch. Every membership
// change — scripted (MembershipSchedule) or autoscaler-driven — bumps the
// epoch exactly once, flips one slot's member bit, and hands the new
// (epoch, bitmap) to the affected worker, which announces it to the
// cluster. Because changes are simulation events with fixed times and the
// epoch is a plain counter, the entire churn history replays bit-
// identically at any thread count.
//
// VirtualFlow-style indirection: each slot is a *logical* worker; a join
// event may carry a machine index into the controller's machine pool, in
// which case the logical worker is rebound onto that machine's compute
// resource before it starts training.
#pragma once

#include <cstdint>
#include <vector>

#include "core/autoscaler.h"
#include "core/worker.h"
#include "sim/fault_injector.h"

namespace dlion::core {

/// One completed (or in-flight) join, for BENCH_elastic.json.
struct JoinRecord {
  std::size_t worker = 0;
  common::SimTime requested = 0.0;
  common::SimTime completed = -1.0;  ///< bootstrap done; -1 = still pending
  std::size_t donors = 0;            ///< distinct bootstrap donors (>= 2 goal)
  std::uint64_t bootstrap_bytes = 0;
};

struct ElasticStats {
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t epoch = 0;
  std::size_t final_members = 0;
  std::uint64_t scale_out_decisions = 0;
  std::uint64_t scale_in_decisions = 0;
  std::vector<JoinRecord> join_log;
};

struct MembershipConfig {
  /// Scripted membership changes (merged with autoscaler decisions).
  sim::MembershipSchedule schedule;
  /// Signal-driven scaling policy (disabled by default).
  AutoscalerConfig autoscaler;
  double autoscaler_period_s = 10.0;
  /// Machine pool for VirtualFlow-style logical->machine rebinding.
  std::vector<sim::ComputeSpec> machines;
};

class MembershipController {
 public:
  /// `workers` are non-owning; the cluster keeps them alive. `initial`
  /// has one bit per fabric slot and must match the workers' construction-
  /// time roster; slots past the workers (serving replicas) are never
  /// members.
  MembershipController(sim::Engine& engine, comm::Fabric& fabric,
                       std::vector<Worker*> workers, MembershipConfig config,
                       std::vector<bool> initial, common::SimTime duration,
                       std::uint64_t seed);

  /// Schedule the scripted events and the autoscaler tick. Call once,
  /// before the engine runs.
  void start();

  std::uint64_t epoch() const { return epoch_; }
  const std::vector<bool>& members() const { return members_; }
  std::size_t member_count() const;

  /// Activate slot `w` now (join). No-op when already a member. `machine`
  /// indexes the machine pool; kSameMachine keeps the slot's compute.
  void activate(std::size_t w,
                std::size_t machine = sim::MembershipEvent::kSameMachine);
  /// Deactivate slot `w` now (leave). Refuses to drop the last member.
  void deactivate(std::size_t w);

  /// Stats snapshot (join completion data pulled from the workers).
  ElasticStats stats() const;

 private:
  void autoscaler_tick();

  sim::Engine* engine_;
  comm::Fabric* fabric_;
  std::vector<Worker*> workers_;
  MembershipConfig config_;
  std::vector<bool> members_;
  std::uint64_t epoch_ = 0;
  common::SimTime duration_;
  std::uint64_t seed_;
  Autoscaler autoscaler_;
  std::uint64_t last_dead_letters_ = 0;
  ElasticStats stats_;
};

}  // namespace dlion::core
