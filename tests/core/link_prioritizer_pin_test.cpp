// Pinned behaviour of the DLion per-link prioritizer.
//
// A worker asks the prioritizer for one link's partial gradients at a time,
// many links per iteration, all over the same gradient. These tests fix
// what every such call returns, so the selection machinery behind
// generate() can be restructured without moving a single output bit:
//
//  - FNV-1a digests of generate() outputs (var_index, dense_size, indices,
//    value bits, last_n() bits and last_entries()) over several iterations
//    of 10 links each, in adaptive mode (paper floor and a high floor) and
//    fixed-N mode. Link budgets grow, shrink, repeat, starve below the
//    min_n floor and exceed the variable sizes. Gradients are tie-heavy:
//    quantized values, zeros, +-x pairs and one all-zero variable. The last
//    iteration reuses an earlier iteration number, as a recovering worker
//    does after rewinding to its checkpoint.
//  - Property tests against an independent top-k oracle, on those
//    gradients and on ones where most magnitudes tie: quantized levels,
//    runs of +-0, denormals and an infinity, with k inside runs of ties.
//  - Digests of small maxn cluster runs at thread-pool sizes 1 and 4.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cluster.h"
#include "core/gradient_select.h"
#include "core/link_prioritizer.h"
#include "data/synthetic.h"
#include "exp/environments.h"
#include "nn/model_zoo.h"
#include "systems/registry.h"
#include "tensor/ops.h"

namespace dlion::core {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

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

/// Iterations driven per digest: (iteration number, gradient seed). The
/// last entry rewinds to iteration 1 with a fresh gradient.
struct PinIteration {
  std::uint64_t iteration;
  std::uint64_t grad_seed;
};
constexpr PinIteration kIterations[] = {{0, 101}, {1, 202}, {2, 303}, {1, 404}};

/// Link bandwidths in Mbps, one link each. At 1 iteration/s and
/// byte_scale 1 the payload budget is ~14,062 entries per Mbps over a
/// 2,632-parameter model: budgets grow, shrink, repeat (0.04 twice),
/// starve to zero (1e-7, the min_n floor decides) and exceed every
/// variable (0.3, dense).
constexpr double kLinkMbps[] = {0.02, 0.08, 0.04, 0.04, 1e-7,
                                0.15, 0.3,  0.005, 0.06, 0.02};

nn::BuiltModel pin_model() {
  common::Rng rng(5);
  return nn::make_mlp(rng, 32, 64, 8);  // 2048 + 64 + 512 + 8 parameters
}

/// Tie-heavy gradients: multiples of 0.25 (many zeros and exact ties), a
/// +-x pair planted at every eighth index, and variable 1 all zero.
void fill_gradients(nn::Model& model, std::uint64_t seed) {
  common::Rng rng(seed);
  const auto& vars = model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    auto g = vars[v]->grad().span();
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = v == 1 ? 0.0f
                    : static_cast<float>(std::round(rng.normal() * 3.0)) *
                          0.25f;
    }
    for (std::size_t i = 8; v != 1 && i < g.size(); i += 8) g[i] = -g[i - 1];
  }
}

LinkContext link_ctx(std::size_t peer, std::uint64_t iteration, double mbps) {
  LinkContext ctx;
  ctx.self = 0;
  ctx.peer = peer;
  ctx.iteration = iteration;
  ctx.available_mbps = mbps;
  ctx.iterations_per_sec = 1.0;
  ctx.byte_scale = 1.0;
  ctx.learning_rate = 0.1;
  ctx.n_workers = 11;
  return ctx;
}

std::uint64_t digest_link(const std::vector<comm::VariableGrad>& out,
                          const LinkPrioritizer& lp, std::uint64_t h) {
  for (const comm::VariableGrad& vg : out) {
    h = fnv1a_value(vg.var_index, h);
    h = fnv1a_value(vg.dense_size, h);
    h = fnv1a_value(static_cast<std::uint64_t>(vg.indices.size()), h);
    h = fnv1a(vg.indices.data(), vg.indices.size() * sizeof(std::uint32_t),
              h);
    h = fnv1a_value(static_cast<std::uint64_t>(vg.values.size()), h);
    h = fnv1a(vg.values.data(), vg.values.size() * sizeof(float), h);
  }
  h = fnv1a_value(lp.last_n(), h);
  h = fnv1a_value(static_cast<std::uint64_t>(lp.last_entries()), h);
  return h;
}

/// Drive `config` through kIterations x kLinkMbps the way Worker does
/// (begin_iteration, then one generate per link) and digest every output.
std::uint64_t prioritizer_digest(const LinkPrioritizerConfig& config) {
  nn::BuiltModel bm = pin_model();
  LinkPrioritizer lp(config);
  std::uint64_t h = kFnvOffset;
  for (const PinIteration& it : kIterations) {
    fill_gradients(bm.model, it.grad_seed);
    lp.begin_iteration(bm.model, it.iteration);
    for (std::size_t l = 0; l < std::size(kLinkMbps); ++l) {
      const auto out =
          lp.generate(bm.model, link_ctx(l + 1, it.iteration, kLinkMbps[l]));
      h = digest_link(out, lp, h);
    }
  }
  return h;
}

void expect_digest(const LinkPrioritizerConfig& config, std::uint64_t pinned) {
  const std::uint64_t got = prioritizer_digest(config);
  EXPECT_EQ(got, pinned) << "digest 0x" << std::hex << got;
}

TEST(LinkPrioritizerPin, AdaptivePaperFloor) {
  LinkPrioritizerConfig cfg;
  cfg.min_n = 0.85;
  expect_digest(cfg, 0x3cdfff529be0c616ULL);
}

TEST(LinkPrioritizerPin, AdaptiveHighFloor) {
  LinkPrioritizerConfig cfg;
  cfg.min_n = 30.0;
  expect_digest(cfg, 0x7eedbc932f8785abULL);
}

TEST(LinkPrioritizerPin, FixedN) {
  LinkPrioritizerConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_n = 10.0;
  expect_digest(cfg, 0xa4e2d7fa7649a7bbULL);
}

/// Independent top-k oracle: nth_element over (|g| descending, index
/// ascending), then index order. Empty indices mean dense.
struct OracleSelection {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  float kth_mag = 0.0f;  ///< k-th largest magnitude (sparse case only)
};

OracleSelection oracle_top_k(std::span<const float> grad, std::size_t k) {
  OracleSelection sel;
  if (k >= grad.size()) {
    sel.values.assign(grad.begin(), grad.end());
    return sel;
  }
  std::vector<std::uint32_t> idx(grad.size());
  std::iota(idx.begin(), idx.end(), 0u);
  auto cmp = [&](std::uint32_t a, std::uint32_t b) {
    const float fa = std::fabs(grad[a]), fb = std::fabs(grad[b]);
    if (fa != fb) return fa > fb;
    return a < b;
  };
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                   idx.end(), cmp);
  idx.resize(k);
  sel.kth_mag = std::fabs(grad[idx[0]]);
  for (std::uint32_t i : idx) {
    sel.kth_mag = std::min(sel.kth_mag, std::fabs(grad[i]));
  }
  std::sort(idx.begin(), idx.end());
  for (std::uint32_t i : idx) sel.values.push_back(grad[i]);
  sel.indices = std::move(idx);
  return sel;
}

/// Links whose k-th magnitude is tied: `partial` counts those where some of
/// the tie misses the cut (the lower indices win), `whole` those that take
/// every tied entry.
struct TieCoverage {
  std::size_t partial = 0;
  std::size_t whole = 0;
};

/// One begin_iteration, then one generate() per link of `mbps`, each
/// compared bit for bit with the oracle, with last_entries() and last_n().
void expect_links_match_oracle(nn::Model& model, LinkPrioritizer& lp,
                               const LinkPrioritizerConfig& cfg,
                               std::uint64_t iteration,
                               std::span<const double> mbps,
                               TieCoverage& ties) {
  const auto& vars = model.variables();
  const double total = static_cast<double>(model.num_params());
  lp.begin_iteration(model, iteration);
  for (std::size_t l = 0; l < mbps.size(); ++l) {
    const LinkContext ctx = link_ctx(l + 1, iteration, mbps[l]);
    const auto out = lp.generate(model, ctx);
    ASSERT_EQ(out.size(), vars.size());
    // The link budget in entries, split across variables by size.
    const double entries = cfg.budget_fraction *
                           (ctx.available_mbps * 1e6 / 8.0) /
                           ctx.iterations_per_sec / (8.0 * ctx.byte_scale);
    double weighted_n = 0.0;
    std::size_t sent = 0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const auto grad = vars[v]->grad().span();
      const auto k_budget = static_cast<std::size_t>(
          std::floor(entries * static_cast<double>(grad.size()) / total));
      const std::size_t k = std::max<std::size_t>(
          {k_budget, count_max_n(grad, cfg.min_n), 1});
      const OracleSelection want = oracle_top_k(grad, k);
      EXPECT_EQ(out[v].var_index, v);
      EXPECT_EQ(out[v].dense_size, grad.size());
      ASSERT_EQ(std::vector<std::uint32_t>(out[v].indices.begin(),
                                           out[v].indices.end()),
                want.indices)
          << "link " << l << " var " << v << " k " << k;
      // Bit for bit: -0.0 must stay -0.0.
      ASSERT_EQ(out[v].values.size(), want.values.size());
      ASSERT_EQ(std::memcmp(out[v].values.data(), want.values.data(),
                            want.values.size() * sizeof(float)),
                0)
          << "link " << l << " var " << v << " k " << k;
      const float mx = *std::max_element(
          grad.begin(), grad.end(),
          [](float a, float b) { return std::fabs(a) < std::fabs(b); });
      const double eq_n =
          (k >= grad.size() || mx == 0.0f)
              ? 100.0
              : equivalent_n_from_threshold(std::fabs(mx), want.kth_mag);
      weighted_n += eq_n * static_cast<double>(grad.size());
      sent += want.values.size();
      if (k < grad.size()) {
        const auto above = static_cast<std::size_t>(
            std::count_if(grad.begin(), grad.end(), [&](float g) {
              return std::fabs(g) > want.kth_mag;
            }));
        const auto tied = static_cast<std::size_t>(
            std::count_if(grad.begin(), grad.end(), [&](float g) {
              return std::fabs(g) == want.kth_mag;
            }));
        if (tied > 1 && above + tied > k) ++ties.partial;
        if (tied > 1 && above + tied == k) ++ties.whole;
      }
    }
    EXPECT_EQ(lp.last_entries(), sent);
    const double want_n = weighted_n / total;
    if (std::isnan(want_n)) {  // an infinite k-th magnitude: inf / inf
      EXPECT_TRUE(std::isnan(lp.last_n()));
    } else {
      EXPECT_DOUBLE_EQ(lp.last_n(), want_n);
    }
  }
}

TEST(LinkPrioritizerPin, MatchesTopKOracle) {
  for (const double min_n : {0.85, 30.0}) {
    nn::BuiltModel bm = pin_model();
    LinkPrioritizerConfig cfg;
    cfg.min_n = min_n;
    LinkPrioritizer lp(cfg);
    TieCoverage ties;
    for (const PinIteration& it : kIterations) {
      fill_gradients(bm.model, it.grad_seed);
      expect_links_match_oracle(bm.model, lp, cfg, it.iteration, kLinkMbps,
                                ties);
    }
  }
}

/// Gradients where most magnitudes tie: a few quantized levels, runs of
/// +0 and -0 (ReLU-dead units), denormals, an infinity and an all-zero
/// variable (variable 1, signs mixed).
void fill_tie_gradients(nn::Model& model, std::uint64_t seed) {
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  constexpr float kFloatMin = std::numeric_limits<float>::min();
  constexpr float kLevels[] = {0.5f,    1.0f,           2.0f,
                               kDenorm, kDenorm * 3.0f, kFloatMin};
  common::Rng rng(seed);
  const auto& vars = model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    auto g = vars[v]->grad().span();
    for (std::size_t i = 0; i < g.size(); ++i) {
      const float sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0f : 1.0f;
      if (v == 1 || (i / 16) % 3 == 0) {
        g[i] = sign * 0.0f;  // a dead run
      } else {
        const auto level = rng.uniform_int(0, v == 2 ? 5 : 2);
        g[i] = sign * kLevels[static_cast<std::size_t>(level)];
      }
    }
  }
  vars[0]->grad().span()[100] = -std::numeric_limits<float>::infinity();
}

TEST(LinkPrioritizerPin, TieHeavyMatchesTopKOracle) {
  // Budgets from starved (the min_n floor decides) to dense, in steps of
  // about 1.5x, so k lands at many points inside runs of equal magnitudes.
  std::vector<double> mbps = {1e-7};
  for (double m = 5e-5; m < 0.4; m *= 1.5) mbps.push_back(m);
  TieCoverage ties;
  for (const double min_n : {0.85, 30.0, 60.0}) {
    nn::BuiltModel bm = pin_model();
    LinkPrioritizerConfig cfg;
    cfg.min_n = min_n;
    LinkPrioritizer lp(cfg);
    for (const PinIteration& it : kIterations) {
      fill_tie_gradients(bm.model, it.grad_seed);
      expect_links_match_oracle(bm.model, lp, cfg, it.iteration, mbps, ties);
    }
  }
  EXPECT_GT(ties.partial, 0u);
  EXPECT_GT(ties.whole, 0u);
}

// --- maxn cluster runs, in the MembershipPin style -------------------------

ClusterSpec maxn_spec(std::size_t slots, double duration) {
  const systems::SystemSpec system = systems::make_system("maxn");
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
  system.configure(options);
  spec.worker_options = options;
  return spec;
}

std::uint64_t run_digest(const ClusterSpec& spec) {
  const data::TrainTest data = data::make_blobs(23, 16, 4, 1024, 256);
  Cluster cluster(spec, data.train, data.test);
  cluster.run();
  std::uint64_t h = kFnvOffset;
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

TEST(LinkPrioritizerPin, MaxnCluster) {
  expect_pinned(maxn_spec(4, 60.0),
                {.portable = 0x28f5ed72458758c7ULL,
                 .avx2 = 0xf517c2974fed47e7ULL});
}

TEST(LinkPrioritizerPin, MaxnClusterCrashWindow) {
  // The crashed worker rewinds to its checkpoint and repeats iteration
  // numbers it already sent.
  ClusterSpec spec = maxn_spec(4, 80.0);
  spec.faults.crash(2, 20.0, 45.0);
  expect_pinned(spec,
                {.portable = 0xa5d727a4b21fb8feULL,
                 .avx2 = 0xbca7c74d9205c6d2ULL});
}

}  // namespace
}  // namespace dlion::core
