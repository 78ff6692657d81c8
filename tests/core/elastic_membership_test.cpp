// Elastic-membership integration tests: scripted joins and leaves over a
// training cluster, exercising roster-epoch propagation, multi-peer
// bootstrap weight transfer, GBS/LBS renormalization over the live set,
// and the determinism contract (same seed + churn schedule => byte-
// identical telemetry and final weights at any thread count, with or
// without an observer attached). Unit tests for the pure pieces -
// plan_bootstrap, allocate_lbs_live, Membership, Autoscaler::decide - pin
// the protocol-level invariants the integration runs rely on.
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/autoscaler.h"
#include "core/cluster.h"
#include "core/lbs_controller.h"
#include "core/roster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "obs/obs.h"
#include "systems/registry.h"

namespace dlion::core {
namespace {

data::TrainTest blobs_data() { return data::make_blobs(31, 16, 4, 2048, 512); }

ClusterSpec spec_for(std::size_t capacity, double duration) {
  const systems::SystemSpec system = systems::make_system("dlion");
  ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 13;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < capacity; ++i) {
    spec.compute.push_back(exp::cpu_cores(4));
  }
  spec.strategy_factory = system.strategy_factory;
  WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * capacity;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

/// A churn schedule shared by the determinism tests: 6 slots, 4 live at
/// t=0, two staggered joins, one leave.
ClusterSpec churn_spec(double duration) {
  ClusterSpec spec = spec_for(6, duration);
  ElasticSpec elastic;
  elastic.initial_workers = 4;
  elastic.membership.schedule.join(4, 20.0).join(5, 30.0).leave(2, 50.0);
  spec.elastic = std::move(elastic);
  return spec;
}

/// Everything a churn run produces that the determinism contract covers:
/// per-worker progress, the exact final weights, the accuracy curve,
/// fabric tallies, membership stats, and the metrics-registry export.
struct ChurnOut {
  std::vector<std::uint64_t> iterations;
  std::vector<std::vector<float>> weights;  // per worker, flattened
  std::vector<sim::TracePoint> curve;
  std::uint64_t total_iterations = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t stale_rejected = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t epoch = 0;
  std::size_t final_members = 0;
  std::string metrics_json;
};

ChurnOut run_churn(obs::Observability* o) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = churn_spec(90.0);
  spec.obs = o;
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  ChurnOut out;
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    out.iterations.push_back(cluster.worker(w).iterations());
    const nn::Snapshot snap = cluster.worker(w).model().weights();
    std::vector<float> flat;
    for (const tensor::Tensor& t : snap.values) {
      flat.insert(flat.end(), t.data(), t.data() + t.size());
    }
    out.weights.push_back(std::move(flat));
  }
  out.curve = cluster.mean_accuracy_trace().points();
  out.total_iterations = cluster.total_iterations();
  out.dead_letters = cluster.fabric().dead_letters();
  out.stale_rejected = cluster.fabric().stale_epoch_rejected();
  const ElasticStats stats = cluster.membership()->stats();
  out.joins = stats.joins;
  out.leaves = stats.leaves;
  out.epoch = stats.epoch;
  out.final_members = stats.final_members;
  if (o != nullptr) out.metrics_json = o->metrics().to_json();
  return out;
}

void expect_identical(const ChurnOut& a, const ChurnOut& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t w = 0; w < a.weights.size(); ++w) {
    // Exact float equality: the contract is bit-identical, not close.
    EXPECT_EQ(a.weights[w], b.weights[w]) << "worker " << w;
  }
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].time, b.curve[i].time);
    EXPECT_DOUBLE_EQ(a.curve[i].value, b.curve[i].value);
  }
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.dead_letters, b.dead_letters);
  EXPECT_EQ(a.stale_rejected, b.stale_rejected);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.leaves, b.leaves);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.final_members, b.final_members);
}

TEST(ElasticMembership, ChurnIsDeterministicAcrossThreadCounts) {
  // Same seed + same churn schedule => byte-identical telemetry and final
  // weights whether the thread pool runs 1 or 4 workers.
  common::ThreadPool::reset_global_for_testing(1);
  obs::Observability obs1;
  const ChurnOut single = run_churn(&obs1);

  common::ThreadPool::reset_global_for_testing(4);
  obs::Observability obs4;
  const ChurnOut pooled = run_churn(&obs4);

  common::ThreadPool::reset_global_for_testing(0);  // restore default

  expect_identical(single, pooled);
  EXPECT_EQ(single.metrics_json, pooled.metrics_json);
  EXPECT_EQ(single.joins, 2u);
  EXPECT_EQ(single.leaves, 1u);
}

TEST(ElasticMembership, ObserverDoesNotPerturbChurnRuns) {
  obs::Observability o;
  const ChurnOut on = run_churn(&o);
  const ChurnOut off = run_churn(nullptr);
  expect_identical(on, off);
}

TEST(ElasticMembership, ChurnReplaysBitIdentically) {
  const ChurnOut a = run_churn(nullptr);
  const ChurnOut b = run_churn(nullptr);
  expect_identical(a, b);
}

TEST(ElasticMembership, JoinerBootstrapsFromMultiplePeers) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(5, 90.0);
  ElasticSpec elastic;
  elastic.initial_workers = 3;
  elastic.membership.schedule.join(3, 20.0).join(4, 35.0);
  spec.elastic = std::move(elastic);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  for (std::size_t joiner : {3u, 4u}) {
    const Worker& w = cluster.worker(joiner);
    EXPECT_FALSE(w.dormant()) << "worker " << joiner;
    EXPECT_FALSE(w.bootstrapping()) << "worker " << joiner;
    EXPECT_GE(w.bootstrap_donor_count(), 2u) << "worker " << joiner;
    EXPECT_GT(w.bootstrap_bytes(), 0u) << "worker " << joiner;
    EXPECT_GE(w.bootstrap_complete_time(), 20.0) << "worker " << joiner;
    EXPECT_GT(w.iterations(), 0u) << "worker " << joiner;
  }

  const ElasticStats stats = cluster.membership()->stats();
  EXPECT_EQ(stats.joins, 2u);
  EXPECT_EQ(stats.final_members, 5u);
  ASSERT_EQ(stats.join_log.size(), 2u);
  for (const JoinRecord& rec : stats.join_log) {
    EXPECT_GE(rec.donors, 2u) << "worker " << rec.worker;
    EXPECT_GT(rec.bootstrap_bytes, 0u) << "worker " << rec.worker;
    EXPECT_GE(rec.completed, rec.requested) << "worker " << rec.worker;
  }

  // Every live worker converged on the controller's roster.
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    EXPECT_EQ(cluster.worker(w).membership().epoch(),
              cluster.membership()->epoch())
        << "worker " << w;
    EXPECT_EQ(cluster.worker(w).membership().member_count(), 5u)
        << "worker " << w;
  }
}

TEST(ElasticMembership, ScaleInWithoutAccuracyCliff) {
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(8, 120.0);
  ElasticSpec elastic;
  elastic.initial_workers = 8;
  elastic.membership.schedule.scale_in(4, 4, 50.0, 2.0);
  spec.elastic = std::move(elastic);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  const ElasticStats stats = cluster.membership()->stats();
  EXPECT_EQ(stats.leaves, 4u);
  EXPECT_EQ(stats.final_members, 4u);
  for (std::size_t w : {4u, 5u, 6u, 7u}) {
    EXPECT_TRUE(cluster.worker(w).dormant()) << "worker " << w;
  }
  // Survivors keep a consistent, renormalized roster...
  for (std::size_t w : {0u, 1u, 2u, 3u}) {
    EXPECT_FALSE(cluster.worker(w).dormant()) << "worker " << w;
    EXPECT_EQ(cluster.worker(w).membership().member_count(), 4u)
        << "worker " << w;
    EXPECT_GT(cluster.worker(w).iterations(), 50u) << "worker " << w;
  }
  // ...and the halved cluster still learns the task (no accuracy cliff).
  EXPECT_GT(cluster.mean_accuracy(), 0.8);
}

TEST(ElasticMembership, DisabledElasticMatchesLegacyRunExactly) {
  // elastic = nullopt and elastic with every slot live from t=0 and no
  // schedule must produce bit-identical runs: the epoch stamps are
  // transport-level and the roster never changes.
  const data::TrainTest data = blobs_data();
  ClusterSpec legacy = spec_for(4, 60.0);
  ClusterSpec noop = legacy;
  noop.elastic = ElasticSpec{};  // all slots live, empty schedule

  Cluster a(legacy, data.train, data.test);
  Cluster b(noop, data.train, data.test);
  a.run();
  b.run();

  EXPECT_EQ(a.membership(), nullptr);
  ASSERT_NE(b.membership(), nullptr);
  EXPECT_EQ(b.membership()->stats().epoch, 0u);
  EXPECT_EQ(a.total_iterations(), b.total_iterations());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a.worker(w).iterations(), b.worker(w).iterations());
    const nn::Snapshot sa = a.worker(w).model().weights();
    const nn::Snapshot sb = b.worker(w).model().weights();
    ASSERT_EQ(sa.values.size(), sb.values.size());
    for (std::size_t t = 0; t < sa.values.size(); ++t) {
      ASSERT_EQ(sa.values[t].size(), sb.values[t].size());
      for (std::size_t i = 0; i < sa.values[t].size(); ++i) {
        EXPECT_EQ(sa.values[t].data()[i], sb.values[t].data()[i]);
      }
    }
  }
}

TEST(ElasticMembership, RecoveringWorkerAdoptsCurrentRoster) {
  // Worker 0 is crashed over [20, 40] while slot 4 joins at t=30: the
  // joiner's RosterUpdate to worker 0 dead-letters. On recovery worker 0
  // must adopt the controller's roster instead of keeping the one it had
  // when it crashed (and then rejecting the joiner's traffic).
  const data::TrainTest data = blobs_data();
  ClusterSpec spec = spec_for(5, 120.0);
  ElasticSpec elastic;
  elastic.initial_workers = 4;
  elastic.membership.schedule.join(4, 30.0);
  spec.elastic = std::move(elastic);
  spec.faults.crash(0, 20.0, 40.0);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();

  const MembershipController& controller = *cluster.membership();
  ASSERT_EQ(controller.epoch(), 1u);
  const Worker& recovered = cluster.worker(0);
  EXPECT_EQ(recovered.recover_count(), 1u);
  EXPECT_EQ(recovered.membership().epoch(), controller.epoch());
  EXPECT_EQ(recovered.membership().member_count(), controller.member_count());
  EXPECT_EQ(recovered.nonmember_rejected(), 0u);
}

// --- Unit tests for the pure protocol pieces. ----------------------------

TEST(PlanBootstrap, SplitsVariablesDisjointlyAcrossDonors) {
  const std::vector<std::size_t> donors = {0, 2, 5};
  const auto ranges = plan_bootstrap(7, donors, 2);
  ASSERT_EQ(ranges.size(), 2u);  // fanout caps the donor count
  EXPECT_EQ(ranges[0].donor, 0u);
  EXPECT_EQ(ranges[1].donor, 2u);
  // Contiguous, disjoint, covering [0, 7), remainder on the first range.
  EXPECT_EQ(ranges[0].first_var, 0u);
  EXPECT_EQ(ranges[0].var_count, 4u);
  EXPECT_EQ(ranges[1].first_var, 4u);
  EXPECT_EQ(ranges[1].var_count, 3u);
}

TEST(PlanBootstrap, UsesAtLeastTwoDonorsWheneverPossible) {
  for (std::size_t num_vars = 2; num_vars <= 9; ++num_vars) {
    const auto ranges = plan_bootstrap(num_vars, {1, 3, 4}, 3);
    EXPECT_GE(ranges.size(), 2u) << num_vars << " vars";
    std::uint32_t next = 0;
    std::size_t total = 0;
    for (const BootstrapRange& r : ranges) {
      EXPECT_EQ(r.first_var, next);
      EXPECT_GT(r.var_count, 0u);
      next += r.var_count;
      total += r.var_count;
    }
    EXPECT_EQ(total, num_vars);
  }
}

TEST(PlanBootstrap, DegeneratesGracefully) {
  // One variable: a single range even with many donors.
  EXPECT_EQ(plan_bootstrap(1, {0, 1, 2}, 3).size(), 1u);
  // One donor: the whole model from that donor.
  const auto solo = plan_bootstrap(5, {7}, 2);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(solo[0].donor, 7u);
  EXPECT_EQ(solo[0].var_count, 5u);
  // Zero variables: nothing to transfer.
  EXPECT_TRUE(plan_bootstrap(0, {0, 1}, 2).empty());
  // No donors: a protocol error.
  EXPECT_THROW(plan_bootstrap(5, {}, 2), std::invalid_argument);
}

TEST(AllocateLbsLive, RenormalizesGbsOverLiveSetExactly) {
  const std::vector<double> rcps = {1.0, 2.0, 3.0, 4.0};
  const std::vector<bool> live = {true, false, true, true};
  const auto lbs = allocate_lbs_live(64, rcps, live);
  ASSERT_EQ(lbs.size(), 4u);
  EXPECT_EQ(lbs[1], 0u);  // dormant slot holds zero batch
  EXPECT_EQ(std::accumulate(lbs.begin(), lbs.end(), std::size_t{0}), 64u);
  // Live shares follow the RCP ratios over the live set only.
  EXPECT_GT(lbs[3], lbs[2]);
  EXPECT_GT(lbs[2], lbs[0]);
}

TEST(AllocateLbsLive, AllLiveMatchesPlainAllocation) {
  const std::vector<double> rcps = {3.0, 1.0, 2.0};
  const std::vector<bool> live(3, true);
  EXPECT_EQ(allocate_lbs_live(48, rcps, live), allocate_lbs(48, rcps));
}

TEST(AllocateLbsLive, RejectsEmptyLiveSetAndSizeMismatch) {
  const std::vector<double> rcps = {1.0, 1.0};
  EXPECT_THROW(allocate_lbs_live(16, rcps, {false, false}),
               std::invalid_argument);
  EXPECT_THROW(allocate_lbs_live(16, rcps, {true}), std::invalid_argument);
}

TEST(MembershipTest, AdoptsOnlyStrictlyNewerEpochs) {
  Membership view(4);  // legacy all-member roster at epoch 0
  EXPECT_EQ(view.member_count(), 4u);

  // Stale and duplicate epochs are ignored deterministically.
  EXPECT_FALSE(view.adopt(0, {true, false, true, false}));
  EXPECT_EQ(view.member_count(), 4u);

  EXPECT_TRUE(view.adopt(3, {true, false, true, false}));
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(view.member_count(), 2u);
  EXPECT_EQ(view.member_ids(), (std::vector<std::size_t>{0, 2}));

  // An older update arriving late (reordered broadcast) must not win.
  EXPECT_FALSE(view.adopt(2, {true, true, true, true}));
  EXPECT_EQ(view.epoch(), 3u);
  EXPECT_EQ(view.member_count(), 2u);
}

/// The live count recomputed from scratch: non-excluded slots.
std::size_t recount_live(const Membership& m) {
  std::size_t live = 0;
  for (std::size_t j = 0; j < m.capacity(); ++j) {
    if (!m.excluded()[j]) ++live;
  }
  return live;
}

TEST(MembershipTest, SweepSuspectsOnlySilentMembers) {
  Membership m({true, true, false, true}, /*self=*/0);
  m.reset_liveness(0.0);
  m.heard(3, 8.0);
  EXPECT_TRUE(m.sweep(10.0, 6.0));
  EXPECT_FALSE(m.suspected(0));  // the owner never suspects itself
  EXPECT_TRUE(m.suspected(1));   // silent member
  EXPECT_FALSE(m.suspected(2));  // silent non-member: never swept
  EXPECT_FALSE(m.suspected(3));  // member heard within the timeout
  EXPECT_FALSE(m.sweep(10.0, 6.0));  // nothing changed since
}

TEST(MembershipTest, HearingClearsSuspicionButReincludesOnlyMembers) {
  Membership m(4, /*self=*/0);
  m.reset_liveness(0.0);
  ASSERT_TRUE(m.sweep(10.0, 6.0));
  // Slot 3 leaves while suspected: it stays suspected and excluded.
  ASSERT_TRUE(m.adopt(1, {true, true, true, false}, 10.0));
  EXPECT_TRUE(m.suspected(3));
  m.heard(3, 12.0);
  EXPECT_FALSE(m.suspected(3));
  EXPECT_EQ(m.last_heard(3), 12.0);
  EXPECT_TRUE(m.excluded()[3]);  // not a member: still out
  m.heard(1, 12.0);
  EXPECT_FALSE(m.suspected(1));
  EXPECT_FALSE(m.excluded()[1]);  // a member: back in
  EXPECT_TRUE(m.excluded()[2]);   // still suspected
}

TEST(MembershipTest, NewMemberGetsFreshLastHeardStamp) {
  Membership m({true, true, false}, /*self=*/0);
  m.reset_liveness(0.0);
  ASSERT_TRUE(m.adopt(1, {true, true, true}, 30.0));
  EXPECT_EQ(m.last_heard(2), 30.0);
  EXPECT_EQ(m.last_heard(1), 0.0);  // existing members keep their stamps
  EXPECT_TRUE(m.sweep(33.0, 6.0));
  EXPECT_TRUE(m.suspected(1));
  EXPECT_FALSE(m.suspected(2));  // joined 3 s ago: not yet overdue
}

TEST(MembershipTest, CachedLiveCountEqualsRecount) {
  // The owner is not a member (dormant) yet still counts as live.
  Membership m({false, true, true, false, true}, /*self=*/0);
  EXPECT_FALSE(m.excluded()[0]);
  EXPECT_EQ(m.live_count(), recount_live(m));
  EXPECT_EQ(m.live_count(), 4u);
  m.reset_liveness(0.0);
  EXPECT_EQ(m.live_count(), recount_live(m));
  m.heard(2, 5.0);
  EXPECT_EQ(m.live_count(), recount_live(m));
  m.sweep(8.0, 6.0);  // slot 1 and 4 suspected, slot 2 fresh
  EXPECT_EQ(m.live_count(), recount_live(m));
  EXPECT_EQ(m.live_count(), 2u);
  m.adopt(1, {true, true, true, true, false}, 8.0);
  EXPECT_EQ(m.live_count(), recount_live(m));
  EXPECT_EQ(m.live_count(), 3u);  // 0, 2 and the fresh joiner 3
  m.heard(4, 9.0);  // a non-member: suspicion clears, stays excluded
  EXPECT_EQ(m.live_count(), recount_live(m));
  m.heard(1, 9.0);
  EXPECT_EQ(m.live_count(), recount_live(m));
  EXPECT_EQ(m.live_count(), 4u);
  m.adopt(0, {true, true, true, true, true}, 9.0);  // stale: ignored
  EXPECT_EQ(m.live_count(), recount_live(m));
  m.reset_liveness(20.0);
  EXPECT_EQ(m.live_count(), recount_live(m));
  EXPECT_EQ(m.live_count(), 4u);
}

TEST(AutoscalerPolicy, DecisionsFollowBottleneckAttribution) {
  AutoscalerConfig config;
  config.enabled = true;
  config.min_members = 2;
  const Autoscaler scaler(config);

  AutoscalerSignals healthy;
  healthy.members = 4;
  healthy.capacity = 8;
  healthy.mean_interval_s = 1.0;
  healthy.max_interval_s = 1.2;
  EXPECT_EQ(scaler.decide(healthy), ScaleDecision::kHold);

  // Straggler-dominated: add compute.
  AutoscalerSignals straggling = healthy;
  straggling.max_interval_s = 2.0;
  EXPECT_EQ(scaler.decide(straggling), ScaleDecision::kScaleOut);

  // Stalled: add compute.
  AutoscalerSignals stalled = healthy;
  stalled.seconds_since_progress = 60.0;
  EXPECT_EQ(scaler.decide(stalled), ScaleDecision::kScaleOut);

  // Network-bound: shed senders, and it dominates a simultaneous straggler.
  AutoscalerSignals saturated = straggling;
  saturated.max_backlog_bytes = 64.0 * 1024 * 1024;
  EXPECT_EQ(scaler.decide(saturated), ScaleDecision::kScaleIn);
  AutoscalerSignals dead_letters = healthy;
  dead_letters.dead_letter_delta = 100;
  EXPECT_EQ(scaler.decide(dead_letters), ScaleDecision::kScaleIn);

  // Bounds: never below min_members, never above capacity.
  AutoscalerSignals at_floor = dead_letters;
  at_floor.members = 2;
  EXPECT_EQ(scaler.decide(at_floor), ScaleDecision::kHold);
  AutoscalerSignals at_capacity = straggling;
  at_capacity.members = 8;
  EXPECT_EQ(scaler.decide(at_capacity), ScaleDecision::kHold);

  // Disabled policy always holds.
  EXPECT_EQ(Autoscaler(AutoscalerConfig{}).decide(straggling),
            ScaleDecision::kHold);
}

}  // namespace
}  // namespace dlion::core
