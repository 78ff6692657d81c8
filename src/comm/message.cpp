#include "comm/message.h"

#include <string>

#include "common/check.h"

namespace dlion::comm {

namespace {

// Widths in bytes of each data message's fixed fields, element counts
// included, in field order. Every payload array adds a length prefix.
// from, iteration, lbs, var count
constexpr common::Bytes kGradientHeader = 4 + 8 + 4 + 4;
// var_index, dense_size; then an index count and a value count
constexpr common::Bytes kVarHeader = 4 + 4;
// from, iteration, loss, part count
constexpr common::Bytes kSnapshotHeader = 4 + 8 + 8 + 4;
// from, epoch, first_var, iteration, gbs_ticks, loss, part count
constexpr common::Bytes kChunkHeader = 4 + 8 + 4 + 8 + 8 + 8 + 4;
// from, version, iteration, first_var, total_vars, part count
constexpr common::Bytes kPublishHeader = 4 + 8 + 8 + 4 + 4 + 4;
constexpr common::Bytes kLengthPrefix = 4;
constexpr common::Bytes kControlBytes = 64;

std::size_t gradient_payload_bytes(const GradientUpdate& update) {
  std::size_t bytes = 0;
  for (const auto& v : update.vars) {
    bytes += v.indices.size() * sizeof(std::uint32_t) +
             v.values.size() * sizeof(float);
  }
  return bytes;
}

/// The gradient format (see wire_bytes in the header).
bool well_formed(const VariableGrad& v) {
  if (v.indices.empty()) {
    return v.values.empty() || v.values.size() == v.dense_size;
  }
  if (v.indices.size() != v.values.size()) return false;
  for (std::size_t e = 0; e < v.indices.size(); ++e) {
    if (v.indices[e] >= v.dense_size) return false;
    if (e > 0 && v.indices[e] <= v.indices[e - 1]) return false;
  }
  return true;
}

}  // namespace

std::size_t GradientUpdate::num_entries() const {
  std::size_t n = 0;
  for (const auto& v : vars) n += v.num_entries();
  return n;
}

double GradientUpdate::density(std::size_t model_params) const {
  if (model_params == 0) return 0.0;
  return static_cast<double>(num_entries()) /
         static_cast<double>(model_params);
}

std::vector<std::uint64_t> pack_members(const std::vector<bool>& members) {
  std::vector<std::uint64_t> words((members.size() + 63) / 64, 0);
  for (std::size_t w = 0; w < members.size(); ++w) {
    if (members[w]) words[w / 64] |= std::uint64_t{1} << (w % 64);
  }
  return words;
}

std::vector<bool> unpack_members(const std::vector<std::uint64_t>& words,
                                 std::size_t capacity) {
  std::vector<bool> members(capacity, false);
  for (std::size_t w = 0; w < capacity; ++w) {
    const std::size_t word = w / 64;
    if (word < words.size() &&
        ((words[word] >> (w % 64)) & std::uint64_t{1}) != 0) {
      members[w] = true;
    }
  }
  return members;
}

const char* message_type_name(std::size_t variant_index) {
  static constexpr const char* kNames[] = {
      "GradientUpdate", "WeightSnapshot", "LossReport",
      "DktRequest",     "RcpReport",      "Heartbeat",
      "Ack",            "RosterUpdate",   "BootstrapRequest",
      "BootstrapChunk", "ModelPublish"};
  static_assert(std::variant_size_v<Message> ==
                    sizeof(kNames) / sizeof(kNames[0]),
                "message_type_name: update kNames for new Message types");
  return variant_index < std::variant_size_v<Message> ? kNames[variant_index]
                                                      : "Unknown";
}

const char* message_type_name(const Message& msg) {
  return message_type_name(msg.index());
}

bool is_control(const Message& msg) {
  // BootstrapChunk and ModelPublish are deliberately absent: they carry
  // model weights and ride the data queue at their (byte-scaled) wire
  // size, exactly like a WeightSnapshot.
  return std::holds_alternative<LossReport>(msg) ||
         std::holds_alternative<DktRequest>(msg) ||
         std::holds_alternative<RcpReport>(msg) ||
         std::holds_alternative<Heartbeat>(msg) ||
         std::holds_alternative<Ack>(msg) ||
         std::holds_alternative<RosterUpdate>(msg) ||
         std::holds_alternative<BootstrapRequest>(msg);
}

std::size_t payload_bytes(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::size_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GradientUpdate>) {
          return gradient_payload_bytes(m);
        } else if constexpr (std::is_same_v<T, WeightSnapshot> ||
                             std::is_same_v<T, BootstrapChunk> ||
                             std::is_same_v<T, ModelPublish>) {
          return m.weights.num_values() * sizeof(float);
        } else {
          return 0;
        }
      },
      msg);
}

common::Bytes wire_bytes(const GradientUpdate& update) {
  common::Bytes bytes = kGradientHeader;
  for (const auto& v : update.vars) {
    DLION_DCHECK(well_formed(v),
                 "gradient var " + std::to_string(v.var_index) +
                     " is neither empty, dense nor sparse");
    bytes += kVarHeader + 2 * kLengthPrefix;  // index and value counts
  }
  return bytes + gradient_payload_bytes(update);
}

common::Bytes wire_bytes(const Message& msg) {
  if (is_control(msg)) return kControlBytes;
  return std::visit(
      [&msg](const auto& m) -> common::Bytes {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, GradientUpdate>) {
          return wire_bytes(m);
        } else if constexpr (std::is_same_v<T, WeightSnapshot>) {
          return kSnapshotHeader + m.weights.parts.size() * kLengthPrefix +
                 payload_bytes(msg);
        } else if constexpr (std::is_same_v<T, BootstrapChunk>) {
          return kChunkHeader + m.weights.parts.size() * kLengthPrefix +
                 payload_bytes(msg);
        } else if constexpr (std::is_same_v<T, ModelPublish>) {
          return kPublishHeader + m.weights.parts.size() * kLengthPrefix +
                 payload_bytes(msg);
        } else {
          return 0;  // control messages were charged flat above
        }
      },
      msg);
}

}  // namespace dlion::comm
