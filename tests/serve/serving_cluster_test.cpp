// Serving tier wired into the training cluster: the co-simulation
// contract. With publishing off, serving must not perturb training at all
// (bit-identical weights, curve, traffic); with publishing on, replicas
// track the freshest worker. Also covers the exp::RunSpec plumbing, the
// obs on/off identity, thread-count invariance, and serving composed with
// elastic churn.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "exp/experiment.h"
#include "obs/obs.h"
#include "systems/registry.h"

namespace dlion {
namespace {

data::TrainTest blobs_data() { return data::make_blobs(11, 16, 4, 1024, 256); }

core::ClusterSpec base_spec(std::size_t n_workers, double duration) {
  const systems::SystemSpec system = systems::make_system("dlion");
  core::ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 7;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < n_workers; ++i) {
    spec.compute.push_back(exp::cpu_cores(4));
  }
  spec.strategy_factory = system.strategy_factory;
  core::WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * n_workers;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

serve::ServingSpec quiet_serving() {
  serve::ServingSpec s;
  s.replicas = 2;
  s.arrival.rate_rps = 100.0;
  s.publish_period_s = 0.0;  // refresh off: training must be untouched
  return s;
}

/// FNV-1a over every worker's weight bytes: the strongest "training was
/// not perturbed" witness.
std::uint64_t weights_checksum(core::Cluster& cluster, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t w = 0; w < n; ++w) {
    const nn::Snapshot snap = cluster.worker(w).model().weights();
    for (const auto& t : snap.values) {
      for (const float v : t.span()) {
        std::uint32_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
          h ^= (bits >> (8 * b)) & 0xff;
          h *= 1099511628211ull;
        }
      }
    }
  }
  return h;
}

struct TrainOut {
  std::uint64_t weights_hash = 0;
  std::uint64_t iterations = 0;
  common::Bytes bytes = 0;
  std::vector<sim::TracePoint> curve;
};

TrainOut run_training(const core::ClusterSpec& spec) {
  const data::TrainTest data = blobs_data();
  core::Cluster cluster(spec, data.train, data.test);
  cluster.run();
  TrainOut out;
  out.weights_hash = weights_checksum(cluster, spec.compute.size());
  out.iterations = cluster.total_iterations();
  out.bytes = cluster.total_bytes_sent();
  out.curve = cluster.mean_accuracy_trace().points();
  return out;
}

TEST(ServingCluster, QuietServingLeavesTrainingBitIdentical) {
  core::ClusterSpec plain = base_spec(2, 60.0);
  core::ClusterSpec serving = base_spec(2, 60.0);
  serving.serving = quiet_serving();

  const TrainOut a = run_training(plain);
  const TrainOut b = run_training(serving);
  EXPECT_EQ(a.weights_hash, b.weights_hash);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].time, b.curve[i].time) << "point " << i;
    EXPECT_EQ(a.curve[i].value, b.curve[i].value) << "point " << i;
  }
}

/// Four worker slots, three live at t=0; slot 3 joins and slot 1 leaves.
core::ClusterSpec churn_spec() {
  core::ClusterSpec spec = base_spec(4, 60.0);
  core::ElasticSpec elastic;
  elastic.initial_workers = 3;
  elastic.membership.schedule.join(3, 15.0).leave(1, 35.0);
  spec.elastic = std::move(elastic);
  return spec;
}

TEST(ServingCluster, ServingComposesWithElasticChurn) {
  // Serving slots are never roster members, at any point of the run.
  core::ClusterSpec spec = churn_spec();
  spec.serving = quiet_serving();
  spec.serving->publish_period_s = 15.0;
  const data::TrainTest data = blobs_data();
  core::Cluster cluster(spec, data.train, data.test);
  const std::size_t workers = spec.compute.size();
  const std::size_t slots = workers + spec.serving->replicas;
  for (double t = 1.0; t <= spec.duration_s; t += 1.0) {
    cluster.run_until(t);
    ASSERT_EQ(cluster.membership()->members().size(), slots);
    for (std::size_t w = 0; w < workers; ++w) {
      const core::Membership& m = cluster.worker(w).membership();
      ASSERT_EQ(m.capacity(), slots);
      for (std::size_t r = workers; r < slots; ++r) {
        ASSERT_FALSE(m.is_member(r)) << "worker " << w << " slot " << r
                                     << " at t=" << t;
        ASSERT_FALSE(cluster.membership()->members()[r]);
      }
    }
  }
  cluster.run();
  const core::ElasticStats elastic = cluster.membership()->stats();
  EXPECT_EQ(elastic.joins, 1u);
  EXPECT_EQ(elastic.leaves, 1u);
  // With publishing on, replicas adopt every refresh (t = 15, 30, 45).
  const serve::ServingStats& s = cluster.serving()->stats();
  EXPECT_EQ(s.refreshes_published, 3u);
  EXPECT_EQ(s.refreshes_adopted, 3u * spec.serving->replicas);

  // With publishing off, training is bit-identical to the same churn run
  // without serving.
  core::ClusterSpec quiet = churn_spec();
  quiet.serving = quiet_serving();
  const TrainOut a = run_training(churn_spec());
  const TrainOut b = run_training(quiet);
  EXPECT_EQ(a.weights_hash, b.weights_hash);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (std::size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_EQ(a.curve[i].time, b.curve[i].time) << "point " << i;
    EXPECT_EQ(a.curve[i].value, b.curve[i].value) << "point " << i;
  }
}

TEST(ServingCluster, PublishingTracksTheFreshestWorker) {
  core::ClusterSpec spec = base_spec(2, 60.0);
  spec.serving = quiet_serving();
  spec.serving->publish_period_s = 15.0;
  const data::TrainTest data = blobs_data();
  core::Cluster cluster(spec, data.train, data.test);
  cluster.run();
  ASSERT_NE(cluster.serving(), nullptr);
  const serve::ServingStats& s = cluster.serving()->stats();
  // Publishes at t = 15, 30, 45; every replica adopts every version.
  EXPECT_EQ(s.refreshes_published, 3u);
  EXPECT_EQ(s.refreshes_adopted, 3u * 2u);
  for (std::size_t r = 0; r < cluster.serving()->num_replicas(); ++r) {
    EXPECT_EQ(cluster.serving()->replica(r).weight_version(), 3u);
    EXPECT_GT(cluster.serving()->replica(r).version_iteration(), 0u);
  }
  // Refreshed weights come from a converging logreg: serving accuracy on
  // separable blobs must clearly beat the 1-in-4 random baseline.
  EXPECT_GT(s.served_accuracy, 0.5);
}

// --- exp::RunSpec plumbing ---

exp::Workload blobs_workload() {
  exp::Workload w;
  w.data = blobs_data();
  w.model = "logreg";
  w.learning_rate = 0.4;
  return w;
}

TEST(ServingExperiment, RunSpecCarriesServingStats) {
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.environment = "Hetero SYS A";
  spec.duration_s = 40.0;
  spec.serving = quiet_serving();
  const exp::RunResult res = exp::run_experiment(spec, blobs_workload());
  ASSERT_TRUE(res.serving.has_value());
  const serve::ServingStats& s = *res.serving;
  EXPECT_GT(s.requests_arrived, 0u);
  EXPECT_EQ(s.requests_arrived, s.requests_admitted + s.requests_rejected);
  EXPECT_EQ(s.requests_served, s.requests_admitted - s.deadline_drops);
  EXPECT_LE(s.latency_p50_s, s.latency_p99_s);
  EXPECT_EQ(s.per_replica_served.size(), 2u);
}

TEST(ServingExperiment, ServingOffLeavesResultDisengaged) {
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.environment = "Homo A";
  spec.duration_s = 20.0;
  const exp::RunResult res = exp::run_experiment(spec, blobs_workload());
  EXPECT_FALSE(res.serving.has_value());
}

TEST(ServingExperiment, StatsIdenticalWithAndWithoutObserver) {
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.environment = "Homo A";
  spec.duration_s = 30.0;
  spec.serving = quiet_serving();
  spec.serving->publish_period_s = 10.0;

  const exp::RunResult off = exp::run_experiment(spec, blobs_workload());
  obs::Observability o;
  spec.obs = &o;
  const exp::RunResult on = exp::run_experiment(spec, blobs_workload());

  ASSERT_TRUE(off.serving.has_value());
  ASSERT_TRUE(on.serving.has_value());
  EXPECT_EQ(off.serving->requests_served, on.serving->requests_served);
  EXPECT_EQ(off.serving->deadline_drops, on.serving->deadline_drops);
  EXPECT_EQ(off.serving->batches, on.serving->batches);
  EXPECT_EQ(off.serving->batch_size_counts, on.serving->batch_size_counts);
  EXPECT_EQ(off.serving->refreshes_adopted, on.serving->refreshes_adopted);
  EXPECT_EQ(off.serving->latency_p50_s, on.serving->latency_p50_s);
  EXPECT_EQ(off.serving->latency_p99_s, on.serving->latency_p99_s);
  EXPECT_EQ(off.serving->served_accuracy, on.serving->served_accuracy);
}

TEST(ServingExperiment, StatsInvariantToThreadPoolSize) {
  exp::RunSpec spec;
  spec.system = "dlion";
  spec.environment = "Homo A";
  spec.duration_s = 30.0;
  spec.serving = quiet_serving();
  spec.serving->publish_period_s = 10.0;

  common::ThreadPool::reset_global_for_testing(1);
  const exp::RunResult serial = exp::run_experiment(spec, blobs_workload());
  common::ThreadPool::reset_global_for_testing(4);
  const exp::RunResult pooled = exp::run_experiment(spec, blobs_workload());
  common::ThreadPool::reset_global_for_testing(0);

  ASSERT_TRUE(serial.serving.has_value());
  ASSERT_TRUE(pooled.serving.has_value());
  EXPECT_EQ(serial.serving->requests_served, pooled.serving->requests_served);
  EXPECT_EQ(serial.serving->batches, pooled.serving->batches);
  EXPECT_EQ(serial.serving->latency_p50_s, pooled.serving->latency_p50_s);
  EXPECT_EQ(serial.serving->latency_p99_s, pooled.serving->latency_p99_s);
  EXPECT_EQ(serial.serving->served_accuracy, pooled.serving->served_accuracy);
  EXPECT_EQ(serial.final_accuracy, pooled.final_accuracy);
}

}  // namespace
}  // namespace dlion::serve
