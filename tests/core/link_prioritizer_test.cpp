#include "core/link_prioritizer.h"

#include <gtest/gtest.h>

#include "core/gradient_select.h"

#include "common/check.h"
#include "common/rng.h"
#include "nn/model_zoo.h"

namespace dlion::core {
namespace {

nn::BuiltModel model_with_gradients(std::uint64_t seed) {
  common::Rng rng(seed);
  nn::BuiltModel bm = nn::make_mlp(rng, 16, 16, 4);
  common::Rng grad_rng(seed + 1);
  for (nn::Variable* v : bm.model.variables()) {
    for (auto& g : v->grad().span()) {
      g = static_cast<float>(grad_rng.normal());
    }
  }
  return bm;
}

LinkContext make_ctx(double mbps, double iters_per_sec,
                     double byte_scale = 1.0) {
  LinkContext ctx;
  ctx.self = 0;
  ctx.peer = 1;
  ctx.available_mbps = mbps;
  ctx.iterations_per_sec = iters_per_sec;
  ctx.byte_scale = byte_scale;
  ctx.learning_rate = 0.1;
  ctx.n_workers = 6;
  return ctx;
}

std::size_t total_entries(const std::vector<comm::VariableGrad>& vars) {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

TEST(LinkPrioritizer, WideLinkSendsEverything) {
  nn::BuiltModel bm = model_with_gradients(1);
  LinkPrioritizer lp({});
  const auto out = lp.generate(bm.model, make_ctx(10000.0, 1.0));
  EXPECT_EQ(total_entries(out), bm.model.num_params());
  EXPECT_DOUBLE_EQ(lp.last_n(), 100.0);
}

TEST(LinkPrioritizer, NarrowLinkSendsLess) {
  nn::BuiltModel bm = model_with_gradients(2);
  LinkPrioritizer lp({});
  const auto wide = lp.generate(bm.model, make_ctx(100.0, 1.0));
  const std::size_t wide_entries = total_entries(wide);
  const auto narrow = lp.generate(bm.model, make_ctx(0.01, 1.0));
  EXPECT_LT(total_entries(narrow), wide_entries);
  EXPECT_LT(lp.last_n(), 100.0);
}

TEST(LinkPrioritizer, SizeTracksBandwidthMonotonically) {
  nn::BuiltModel bm = model_with_gradients(3);
  LinkPrioritizer lp({});
  std::size_t prev = 0;
  for (double mbps : {0.005, 0.01, 0.05, 0.1, 1.0}) {
    const auto out = lp.generate(bm.model, make_ctx(mbps, 1.0));
    EXPECT_GE(total_entries(out), prev) << mbps << " Mbps";
    prev = total_entries(out);
  }
}

TEST(LinkPrioritizer, FasterIterationsShrinkBudget) {
  nn::BuiltModel bm = model_with_gradients(4);
  LinkPrioritizer lp({});
  const auto slow = lp.generate(bm.model, make_ctx(0.1, 1.0));
  const auto fast = lp.generate(bm.model, make_ctx(0.1, 10.0));
  EXPECT_LE(total_entries(fast), total_entries(slow));
}

TEST(LinkPrioritizer, ByteScaleShrinksEntryBudget) {
  nn::BuiltModel bm = model_with_gradients(5);
  LinkPrioritizer lp({});
  const auto raw = lp.generate(bm.model, make_ctx(0.1, 1.0, 1.0));
  const auto scaled = lp.generate(bm.model, make_ctx(0.1, 1.0, 100.0));
  EXPECT_LT(total_entries(scaled), total_entries(raw));
}

TEST(LinkPrioritizer, MinNFloorGuaranteesSelection) {
  nn::BuiltModel bm = model_with_gradients(6);
  LinkPrioritizerConfig cfg;
  cfg.min_n = 50.0;  // generous floor
  LinkPrioritizer lp(cfg);
  // Starved link: budget ~ 0, but the floor still selects Max 50 per var.
  const auto out = lp.generate(bm.model, make_ctx(1e-9, 100.0));
  std::size_t floor_total = 0;
  const auto& vars = bm.model.variables();
  for (std::size_t v = 0; v < vars.size(); ++v) {
    floor_total += count_max_n(vars[v]->grad().span(), 50.0);
  }
  EXPECT_GE(total_entries(out), floor_total);
}

TEST(LinkPrioritizer, EveryVariableRepresented) {
  nn::BuiltModel bm = model_with_gradients(7);
  LinkPrioritizer lp({});
  const auto out = lp.generate(bm.model, make_ctx(0.05, 1.0));
  ASSERT_EQ(out.size(), bm.model.num_variables());
  for (const auto& vg : out) {
    EXPECT_GE(vg.num_entries(), 1u);  // at least one entry per variable
  }
}

TEST(LinkPrioritizer, FixedModeIgnoresBandwidth) {
  LinkPrioritizerConfig cfg;
  cfg.adaptive = false;
  cfg.fixed_n = 10.0;
  nn::BuiltModel bm = model_with_gradients(8);
  LinkPrioritizer lp(cfg);
  const auto narrow = lp.generate(bm.model, make_ctx(0.001, 1.0));
  const auto wide = lp.generate(bm.model, make_ctx(1000.0, 1.0));
  EXPECT_EQ(total_entries(narrow), total_entries(wide));
  EXPECT_DOUBLE_EQ(lp.last_n(), 10.0);
}

TEST(LinkPrioritizer, ReportsLastEntries) {
  nn::BuiltModel bm = model_with_gradients(9);
  LinkPrioritizer lp({});
  const auto out = lp.generate(bm.model, make_ctx(0.1, 1.0));
  EXPECT_EQ(lp.last_entries(), total_entries(out));
}

TEST(LinkPrioritizer, GradientChangeWithoutBeginIterationIsCaught) {
  // The per-iteration selection state is rebuilt only after
  // begin_iteration(); DCHECK builds catch a caller that skips it.
  common::ScopedContractThrow guard;
  for (const bool adaptive : {true, false}) {
    nn::BuiltModel bm = model_with_gradients(10);
    LinkPrioritizerConfig cfg;
    cfg.adaptive = adaptive;
    LinkPrioritizer lp(cfg);
    lp.begin_iteration(bm.model, 0);
    (void)lp.generate(bm.model, make_ctx(0.1, 1.0));
    bm.model.variables()[0]->grad().span()[0] = 1e6f;
    if constexpr (common::kDchecksEnabled) {
      EXPECT_THROW(lp.generate(bm.model, make_ctx(0.1, 1.0)),
                   common::ContractViolation);
    }
    lp.begin_iteration(bm.model, 0);
    EXPECT_NO_THROW(lp.generate(bm.model, make_ctx(0.1, 1.0)));
  }
}

}  // namespace
}  // namespace dlion::core
