// Charged-byte table: the exact size every Message alternative is charged to
// the simulated network. Charged bytes feed every transfer time and every
// bytes total, so these constants pin run digests and bench outputs; they
// are hand-written sums of field widths and must never be regenerated.
//
// Data messages charge a fixed per-type header, 4 bytes per length prefix
// and their payload; control messages charge a flat 64 bytes.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/fabric.h"
#include "comm/message.h"
#include "common/check.h"
#include "common/rng.h"

namespace dlion::comm {
namespace {

struct Golden {
  std::string name;
  Message msg;
  common::Bytes bytes;
};

VariableGrad dense_var(std::uint32_t var_index, std::uint32_t n) {
  VariableGrad v;
  v.var_index = var_index;
  v.dense_size = n;
  v.values = std::vector<float>(n, 0.5f);
  return v;
}

VariableGrad sparse_var(std::uint32_t var_index, std::uint32_t dense_size,
                        std::vector<std::uint32_t> indices) {
  VariableGrad v;
  v.var_index = var_index;
  v.dense_size = dense_size;
  v.values = std::vector<float>(indices.size(), -1.0f);
  v.indices = indices;
  return v;
}

GradientUpdate gradient(std::vector<VariableGrad> vars) {
  GradientUpdate g;
  g.from = 3;
  g.iteration = 12345;
  g.lbs = 64;
  g.vars = std::move(vars);
  return g;
}

/// Weight parts of the given lengths.
WeightPayload weights(const std::vector<std::size_t>& lengths) {
  WeightPayload w;
  for (std::size_t n : lengths) {
    w.parts.emplace_back(std::vector<float>(n, 0.25f));
  }
  return w;
}

WeightSnapshot snapshot(const std::vector<std::size_t>& lengths) {
  return WeightSnapshot{2, 99, 0.125, weights(lengths)};
}

BootstrapChunk chunk(const std::vector<std::size_t>& lengths) {
  return BootstrapChunk{4, 2, 1, 500, 17, 0.75, weights(lengths)};
}

ModelPublish publish(const std::vector<std::size_t>& lengths) {
  return ModelPublish{1, 7, 4242, 0, 8, weights(lengths)};
}

// Field widths in bytes. Headers list every fixed field in order; each
// payload array is preceded by a 4-byte length prefix.
//   GradientUpdate:  from 4, iteration 8, lbs 4, var count 4
//   per variable:    var_index 4, dense_size 4, index count 4, value count 4
//   WeightSnapshot:  from 4, iteration 8, loss 8, part count 4
//   BootstrapChunk:  from 4, epoch 8, first_var 4, iteration 8,
//                    gbs_ticks 8, loss 8, part count 4
//   ModelPublish:    from 4, version 8, iteration 8, first_var 4,
//                    total_vars 4, part count 4
//   weight part:     length 4, then 4 per float
std::vector<Golden> golden_table() {
  return {
      // --- gradients ---
      {"gradient/empty", gradient({}), 4 + 8 + 4 + 4},
      {"gradient/dense x1", gradient({dense_var(0, 4)}),
       (4 + 8 + 4 + 4) + (4 + 4 + 4 + 4) + 4 * 4},
      {"gradient/sparse x1", gradient({sparse_var(0, 100, {1, 17, 99})}),
       (4 + 8 + 4 + 4) + (4 + 4 + 4 + 4) + 3 * 4 + 3 * 4},
      {"gradient/dense x3",
       gradient({dense_var(0, 4), dense_var(1, 1), dense_var(2, 6)}),
       (4 + 8 + 4 + 4) + 3 * (4 + 4 + 4 + 4) + (4 + 1 + 6) * 4},
      {"gradient/sparse x3",
       gradient({sparse_var(0, 100, {1, 17, 99}), sparse_var(1, 10, {9}),
                 sparse_var(2, 50, {0, 49})}),
       (4 + 8 + 4 + 4) + 3 * (4 + 4 + 4 + 4) + (3 + 1 + 2) * (4 + 4)},
      {"gradient/empty var", gradient({dense_var(0, 0)}),
       (4 + 8 + 4 + 4) + (4 + 4 + 4 + 4)},
      // --- weight snapshots ---
      {"snapshot/0 parts", snapshot({}), 4 + 8 + 8 + 4},
      {"snapshot/1 part", snapshot({5}), (4 + 8 + 8 + 4) + (4 + 5 * 4)},
      {"snapshot/3 parts", snapshot({5, 0, 2}),
       (4 + 8 + 8 + 4) + (4 + 5 * 4) + (4 + 0) + (4 + 2 * 4)},
      // --- bootstrap chunks ---
      {"chunk/0 parts", chunk({}), 4 + 8 + 4 + 8 + 8 + 8 + 4},
      {"chunk/1 part", chunk({5}),
       (4 + 8 + 4 + 8 + 8 + 8 + 4) + (4 + 5 * 4)},
      {"chunk/3 parts", chunk({5, 0, 2}),
       (4 + 8 + 4 + 8 + 8 + 8 + 4) + (4 + 5 * 4) + (4 + 0) + (4 + 2 * 4)},
      // --- model publishes ---
      {"publish/0 parts", publish({}), 4 + 8 + 8 + 4 + 4 + 4},
      {"publish/1 part", publish({5}),
       (4 + 8 + 8 + 4 + 4 + 4) + (4 + 5 * 4)},
      {"publish/3 parts", publish({5, 0, 2}),
       (4 + 8 + 8 + 4 + 4 + 4) + (4 + 5 * 4) + (4 + 0) + (4 + 2 * 4)},
      // --- control messages: flat size whatever they carry ---
      {"LossReport", LossReport{1, 2, 0.5}, 64},
      {"DktRequest", DktRequest{1, 2}, 64},
      {"RcpReport", RcpReport{1, 64.0}, 64},
      {"Heartbeat", Heartbeat{6, 7}, 64},
      {"Ack", Ack{8, 9}, 64},
      {"RosterUpdate",
       RosterUpdate{0, 3, 130, pack_members(std::vector<bool>(130, true))},
       64},
      {"BootstrapRequest", BootstrapRequest{5, 2, 0, 40}, 64},
  };
}

TEST(Message, WireBytesGoldenTable) {
  std::vector<bool> seen(std::variant_size_v<Message>, false);
  for (const Golden& g : golden_table()) {
    EXPECT_EQ(wire_bytes(g.msg), g.bytes) << g.name;
    if (const auto* u = std::get_if<GradientUpdate>(&g.msg)) {
      EXPECT_EQ(wire_bytes(*u), g.bytes) << g.name;
    }
    seen[g.msg.index()] = true;
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << message_type_name(i) << " has no golden row";
  }
}

TEST(Message, ChargedBytesScaleDataNotControl) {
  sim::Engine engine;
  sim::Network net(engine, 2);
  const Fabric exact(net, 1.0);
  const Fabric scaled(net, 2.5);
  // 0.125 lands the empty gradient (20 bytes) on 2.5: rounds half away
  // from zero.
  const Fabric tiny(net, 0.125);
  for (const Golden& g : golden_table()) {
    const bool control = is_control(g.msg);
    EXPECT_EQ(exact.charged_bytes(g.msg), g.bytes) << g.name;
    EXPECT_EQ(scaled.charged_bytes(g.msg),
              control ? g.bytes : g.bytes * 5 / 2)
        << g.name;
    if (const auto* u = std::get_if<GradientUpdate>(&g.msg)) {
      EXPECT_EQ(exact.charged_bytes(*u), g.bytes) << g.name;
      EXPECT_EQ(scaled.charged_bytes(*u), g.bytes * 5 / 2) << g.name;
    }
  }
  const Message empty = gradient({});
  EXPECT_EQ(tiny.charged_bytes(empty), 3u);
  EXPECT_EQ(tiny.charged_bytes(std::get<GradientUpdate>(empty)), 3u);
  EXPECT_EQ(tiny.charged_bytes(Message(LossReport{})), 64u);
}

/// Re-stage every payload of `msg` through `writer` (the hot-path
/// production route) so it becomes arena-backed views.
Message restage(const Message& msg, PayloadWriter& writer) {
  Message out = msg;
  std::visit(
      [&writer](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GradientUpdate>) {
          for (VariableGrad& v : m.vars) {
            v.indices = writer.copy(v.indices.span());
            v.values = writer.copy(v.values.span());
          }
        } else if constexpr (std::is_same_v<T, WeightSnapshot> ||
                             std::is_same_v<T, BootstrapChunk> ||
                             std::is_same_v<T, ModelPublish>) {
          for (Payload<float>& p : m.weights.parts) p = writer.copy(p.span());
        }
      },
      out);
  return out;
}

TEST(Message, WireBytesIgnorePayloadBacking) {
  // Owned vectors and arena-backed views of the same message are charged
  // the same bytes.
  PayloadArena arena;
  for (const Golden& g : golden_table()) {
    PayloadWriter writer(arena);
    const Message staged = restage(g.msg, writer);
    EXPECT_EQ(wire_bytes(staged), g.bytes) << g.name;
  }
}

VariableGrad raw_var(std::uint32_t dense_size,
                     std::vector<std::uint32_t> indices,
                     std::size_t num_values) {
  VariableGrad v;
  v.dense_size = dense_size;
  v.indices = indices;
  v.values = std::vector<float>(num_values, 1.0f);
  return v;
}

TEST(Message, GradientFormatCheckedWhereCharged) {
  common::ScopedContractThrow guard;
  const auto charge = [](const VariableGrad& v) {
    return wire_bytes(gradient({v}));
  };
  EXPECT_NO_THROW(charge(raw_var(8, {}, 0)));        // empty
  EXPECT_NO_THROW(charge(raw_var(8, {}, 8)));        // dense
  EXPECT_NO_THROW(charge(raw_var(8, {0, 3, 7}, 3)));  // sparse
  const VariableGrad malformed[] = {
      raw_var(8, {}, 3),         // dense with too few values
      raw_var(8, {1, 2}, 1),     // index and value counts differ
      raw_var(100, {17, 3}, 2),  // indices not increasing
      raw_var(100, {3, 3}, 2),   // repeated index
      raw_var(10, {9, 10}, 2),   // index past dense_size
  };
  for (const VariableGrad& v : malformed) {
    if constexpr (common::kDchecksEnabled) {
      EXPECT_THROW(charge(v), common::ContractViolation);
    } else {
      EXPECT_NO_THROW(charge(v));
    }
  }
}

GradientUpdate sample_update() {
  GradientUpdate u;
  u.from = 3;
  u.iteration = 12345;
  u.lbs = 64;
  VariableGrad sparse;
  sparse.var_index = 0;
  sparse.dense_size = 100;
  sparse.indices = {1, 17, 99};
  sparse.values = {0.5f, -2.0f, 3.25f};
  VariableGrad dense;
  dense.var_index = 1;
  dense.dense_size = 4;
  dense.values = {1, 2, 3, 4};
  u.vars = {sparse, dense};
  return u;
}

TEST(Message, DensityAndEntries) {
  const GradientUpdate u = sample_update();
  EXPECT_EQ(u.num_entries(), 7u);
  EXPECT_DOUBLE_EQ(u.density(104), 7.0 / 104.0);
}

TEST(Message, ControlClassification) {
  EXPECT_TRUE(is_control(Message(LossReport{})));
  EXPECT_TRUE(is_control(Message(DktRequest{})));
  EXPECT_TRUE(is_control(Message(RcpReport{})));
  EXPECT_FALSE(is_control(Message(GradientUpdate{})));
  EXPECT_FALSE(is_control(Message(WeightSnapshot{})));
}

TEST(Message, PackUnpackMembersRoundTrips) {
  common::Rng rng(0xC0DEC006);
  for (int i = 0; i < 200; ++i) {
    const std::size_t capacity = rng.uniform_index(200);
    std::vector<bool> members(capacity);
    for (std::size_t w = 0; w < capacity; ++w) {
      members[w] = rng.uniform() < 0.5;
    }
    ASSERT_EQ(unpack_members(pack_members(members), capacity), members)
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace dlion::comm
