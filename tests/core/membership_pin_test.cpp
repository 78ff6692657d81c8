// Pinned digests of small cluster runs across every membership shape the
// worker supports: a plain run, a fault-tolerant run whose crash window
// drives suspicion, the no-op elastic roster, scripted join/leave churn
// (DLion and Hop), and serving with online refresh. Each run is digested
// with FNV-1a over its total iterations, total network bytes, every
// worker's final weights and the cluster-mean accuracy curve, and the
// digest must equal the committed constant for the active GEMM
// micro-kernel at thread-pool sizes 1 and 4. The constants are the
// behaviour of the membership code before it was consolidated; any
// refactor of "who is in" must leave them untouched.
#include <cstdint>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/cluster.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "systems/registry.h"
#include "tensor/ops.h"

namespace dlion::core {
namespace {

// Mirrors bench::fnv1a (bench/bench_util.h).
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_value(const T& v, std::uint64_t h) {
  return fnv1a(&v, sizeof(v), h);
}

ClusterSpec pin_spec(const std::string& system_name, std::size_t slots,
                     double duration) {
  const systems::SystemSpec system = systems::make_system(system_name);
  ClusterSpec spec;
  spec.model = "logreg";
  spec.seed = 17;
  spec.duration_s = duration;
  for (std::size_t i = 0; i < slots; ++i) {
    spec.compute.push_back(exp::cpu_cores(i % 2 == 0 ? 4 : 2));
  }
  spec.strategy_factory = system.strategy_factory;
  WorkerOptions options;
  options.learning_rate = 0.4;
  options.eval_period_iters = 10;
  options.gbs.initial_gbs = 16 * slots;
  options.fixed_lbs = 16;
  options.dkt.period_iters = 25;
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

ClusterSpec churn_spec(const std::string& system_name) {
  ClusterSpec spec = pin_spec(system_name, 6, 80.0);
  ElasticSpec elastic;
  elastic.initial_workers = 4;
  elastic.membership.schedule.join(4, 20.0).join(5, 30.0).leave(2, 50.0);
  spec.elastic = std::move(elastic);
  return spec;
}

std::uint64_t run_digest(const ClusterSpec& spec) {
  const data::TrainTest data = data::make_blobs(23, 16, 4, 1024, 256);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv1a_value(cluster.total_iterations(), h);
  h = fnv1a_value(static_cast<std::uint64_t>(cluster.total_bytes_sent()), h);
  for (std::size_t w = 0; w < cluster.size(); ++w) {
    for (auto* var : cluster.worker(w).model().variables()) {
      const auto s = var->value().span();
      h = fnv1a(s.data(), s.size() * sizeof(float), h);
    }
  }
  const sim::Trace curve = cluster.mean_accuracy_trace();
  for (const sim::TracePoint& p : curve.points()) {
    h = fnv1a_value(p.time, h);
    h = fnv1a_value(p.value, h);
  }
  if (const serve::ServingTier* tier = cluster.serving()) {
    h = fnv1a_value(tier->stats().refreshes_adopted, h);
    h = fnv1a_value(tier->stats().requests_served, h);
  }
  return h;
}

/// One digest per GEMM micro-kernel (tensor::gemm_kernel_name()). The AVX2
/// tile fuses each multiply-add, so its trained weights differ from the
/// portable tile's in the last bits. The portable digests date from when
/// small GEMMs ran the naive loops, which the portable tile reproduces bit
/// for bit on these shapes.
struct KernelDigests {
  std::uint64_t portable;
  std::uint64_t avx2;
};

/// The active kernel's digest must be the pinned constant at pool sizes 1
/// and 4.
void expect_pinned(const ClusterSpec& spec, KernelDigests digests) {
  const std::uint64_t pinned =
      std::strcmp(tensor::gemm_kernel_name(), "avx2-6x16") == 0
          ? digests.avx2
          : digests.portable;
  for (const std::size_t threads : {1u, 4u}) {
    common::ThreadPool::reset_global_for_testing(threads);
    const std::uint64_t got = run_digest(spec);
    EXPECT_EQ(got, pinned) << "pool size " << threads << ": digest 0x"
                           << std::hex << got;
  }
  common::ThreadPool::reset_global_for_testing(0);
}

TEST(MembershipPin, PlainDlion) {
  expect_pinned(pin_spec("dlion", 4, 60.0),
                {.portable = 0x52040c93884ec603ULL,
                 .avx2 = 0x64a9c3330b13555bULL});
}

TEST(MembershipPin, FaultTolerantCrashWindow) {
  ClusterSpec spec = pin_spec("dlion", 4, 80.0);
  spec.faults.crash(2, 20.0, 45.0);  // suspected from ~26 s to recovery
  expect_pinned(spec,
                {.portable = 0x3360c8fc367cd830ULL,
                 .avx2 = 0x464fa66f71a5957fULL});
}

TEST(MembershipPin, NoopElastic) {
  ClusterSpec spec = pin_spec("dlion", 4, 60.0);
  spec.elastic = ElasticSpec{};
  expect_pinned(spec,
                {.portable = 0x38ff4bc4969b6e73ULL,
                 .avx2 = 0x429fbb8db294df4bULL});
}

TEST(MembershipPin, ScriptedChurnDlion) {
  expect_pinned(churn_spec("dlion"),
                {.portable = 0x05229f5904fca6abULL,
                 .avx2 = 0xd19738ef5d5f6854ULL});
}

TEST(MembershipPin, ScriptedChurnHop) {
  expect_pinned(churn_spec("hop"),
                {.portable = 0xde64b71b48060f5eULL,
                 .avx2 = 0x40496cc10652c511ULL});
}

TEST(MembershipPin, ServingWithPublishing) {
  ClusterSpec spec = pin_spec("dlion", 3, 60.0);
  serve::ServingSpec serving;
  serving.replicas = 2;
  serving.arrival.rate_rps = 100.0;
  serving.publish_period_s = 15.0;
  spec.serving = serving;
  expect_pinned(spec,
                {.portable = 0xdf87a2a180b0d1caULL,
                 .avx2 = 0x72239d1d1812dbf0ULL});
}

}  // namespace
}  // namespace dlion::core
