#include "core/gradient_select.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/check.h"
#include "tensor/ops.h"

namespace dlion::core {

namespace {
void check_n(double n) {
  if (!(n > 0.0) || n > 100.0) {
    throw std::invalid_argument("Max N: N must be in (0, 100]");
  }
}

/// Thread-local (indices, values) staging vectors shared by all selectors.
/// Selection runs here, then the result is packed into payload storage in
/// one production write - steady-state selection touches the heap only
/// until the workspace capacity has warmed up.
struct SelectWorkspace {
  std::vector<std::uint32_t> idx;
  std::vector<float> vals;
  MagnitudeBuckets buckets;

  static SelectWorkspace& tls() {
    thread_local SelectWorkspace ws;
    return ws;
  }
};

/// Pack the staged selection into `v`: through the caller's writer (arena
/// block) when one is given, into a standalone exact-size block otherwise.
void emit_selection(comm::VariableGrad& v,
                    std::span<const std::uint32_t> idx,
                    std::span<const float> vals, comm::PayloadWriter* writer) {
  if (writer != nullptr) {
    v.indices = writer->copy(idx);
    v.values = writer->copy(vals);
  } else {
    v.indices = comm::make_payload(idx);
    v.values = comm::make_payload(vals);
  }
}

comm::VariableGrad dense_grad_impl(std::span<const float> grad,
                                   std::uint32_t var_index,
                                   comm::PayloadWriter* writer) {
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  v.values = writer != nullptr ? writer->copy(grad) : comm::make_payload(grad);
  return v;
}

/// Drop candidate (index, value) pairs whose magnitude fell below `thr`
/// after the running max rose. Order-preserving in-place filter.
void compact_candidates(std::vector<std::uint32_t>& idx,
                        std::vector<float>& vals, double thr) {
  std::size_t kept = 0;
  for (std::size_t j = 0; j < vals.size(); ++j) {
    if (static_cast<double>(std::fabs(vals[j])) >= thr) {
      idx[kept] = idx[j];
      vals[kept] = vals[j];
      ++kept;
    }
  }
  idx.resize(kept);
  vals.resize(kept);
}
}  // namespace

double max_n_threshold(double n, float max_abs) {
  check_n(n);
  return (1.0 - n / 100.0) * static_cast<double>(max_abs);
}

namespace {
comm::VariableGrad select_max_n_impl(std::span<const float> grad,
                                     std::uint32_t var_index, double n,
                                     comm::PayloadWriter* writer) {
  check_n(n);
  if (n == 100.0) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (grad.empty()) return v;

  // Single fused pass: track the running max-abs and collect candidates
  // against the threshold it implies so far. The threshold only grows as
  // the max grows, so the candidate set is always a superset of the final
  // selection; stale candidates are pruned lazily (when the buffer doubles
  // past its last compaction) and once more at the end against the final
  // threshold. This selects exactly the entries the two-pass version did -
  // same threshold arithmetic, same index order - in one traversal.
  const double keep = 1.0 - n / 100.0;
  float running_max = 0.0f;
  double thr = 0.0;
  SelectWorkspace& ws = SelectWorkspace::tls();
  auto& idx = ws.idx;
  auto& vals = ws.vals;
  idx.clear();
  vals.clear();
  std::size_t compact_limit = 256;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const float g = grad[i];
    const float mag = std::fabs(g);
    if (mag > running_max) {
      running_max = mag;
      thr = keep * static_cast<double>(running_max);
    }
    if (static_cast<double>(mag) >= thr) {
      idx.push_back(static_cast<std::uint32_t>(i));
      vals.push_back(g);
      if (idx.size() >= compact_limit) {
        compact_candidates(idx, vals, thr);
        compact_limit = std::max<std::size_t>(256, idx.size() * 2);
      }
    }
  }
  compact_candidates(idx, vals, thr);
  emit_selection(v, idx, vals, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n) {
  return select_max_n_impl(grad, var_index, n, nullptr);
}

comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n,
                                comm::PayloadWriter& writer) {
  return select_max_n_impl(grad, var_index, n, &writer);
}

comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index,
                              comm::PayloadWriter& writer) {
  return dense_grad_impl(grad, var_index, &writer);
}

std::size_t count_max_n(std::span<const float> grad, double n) {
  check_n(n);
  if (n == 100.0) return grad.size();
  const float mx = tensor::max_abs(grad);
  const double thr = max_n_threshold(n, mx);
  // Branchless comparison loop: vectorizes cleanly (compare + widen + add).
  std::size_t count = 0;
  const float* __restrict p = grad.data();
  const std::size_t size = grad.size();
  for (std::size_t i = 0; i < size; ++i) {
    count += static_cast<double>(std::fabs(p[i])) >= thr ? 1u : 0u;
  }
  return count;
}

namespace {
constexpr unsigned kBucketShift = 20;
constexpr std::size_t kBuckets = std::size_t{1} << (31 - kBucketShift);
constexpr std::uint32_t kInfKey = 0x7f800000u;  ///< bits of +inf
constexpr std::uint32_t kMagnitudeBits = 0x7fffffffu;  ///< all but the sign
}  // namespace

void MagnitudeBuckets::build(std::span<const float> grad) {
  const std::size_t size = grad.size();
  keys_.resize(size);
  grouped_.resize(size);
  ids_.clear();
  ends_.clear();
  // Per-thread histogram, all zero between builds. A per-object one would
  // cost every variable of every worker 8 KiB; an array in static TLS would
  // grow every thread's TLS block, and measurably slowed runs that never
  // select. This one is allocated by the first build() on a thread.
  thread_local std::vector<std::uint32_t> histogram(kBuckets);
  std::uint32_t* __restrict hist = histogram.data();
  std::uint32_t* __restrict keys = keys_.data();
  std::uint32_t top = 0;
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint32_t key =
        std::bit_cast<std::uint32_t>(grad[i]) & kMagnitudeBits;
    keys[i] = key;
    ++hist[key >> kBucketShift];
    top = key > top ? key : top;
  }
  max_abs_ = std::bit_cast<float>(top);
  nan_count_ = 0;
  if (top > kInfKey) {
    // NaN entries rank first but count for neither max|g| nor Max N.
    std::uint32_t top_number = 0;
    for (std::size_t i = 0; i < size; ++i) {
      if (keys[i] > kInfKey) {
        ++nan_count_;
      } else {
        top_number = std::max(top_number, keys[i]);
      }
    }
    max_abs_ = std::bit_cast<float>(top_number);
  }
  // Prefix sum, highest bucket first: each count becomes its bucket's start.
  // It ends at the lowest occupied bucket.
  std::uint32_t pos = 0;
  for (std::size_t b = (top >> kBucketShift) + 1; b-- > 0 && pos < size;) {
    const std::uint32_t count = hist[b];
    if (count == 0) continue;
    hist[b] = pos;
    pos += count;
    ids_.push_back(static_cast<std::uint16_t>(b));
    ends_.push_back(pos);
  }
  std::uint32_t* __restrict grouped = grouped_.data();
  for (std::size_t i = 0; i < size; ++i) {
    grouped[hist[keys[i] >> kBucketShift]++] = keys[i];
  }
  for (const std::uint16_t b : ids_) hist[b] = 0;
}

std::size_t MagnitudeBuckets::max_n_count(double n) const {
  check_n(n);
  if (n == 100.0) return size();
  const double thr = max_n_threshold(n, max_abs_);
  // |g| >= thr iff |g| is at least the smallest float that reaches thr,
  // i.e. iff its key is at least that float's.
  float lo = static_cast<float>(thr);
  if (static_cast<double>(lo) < thr) {
    lo = std::nextafter(lo, std::numeric_limits<float>::infinity());
  }
  const auto lo_key = std::bit_cast<std::uint32_t>(lo);
  const std::uint32_t bucket = lo_key >> kBucketShift;
  // Every key in an occupied bucket above lo's counts; lo's own bucket, if
  // occupied, is scanned.
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), bucket,
                                   std::greater<>());
  const auto p = static_cast<std::size_t>(it - ids_.begin());
  std::size_t count = p == 0 ? 0 : ends_[p - 1];
  if (it != ids_.end() && *it == bucket) {
    for (std::size_t j = count; j < ends_[p]; ++j) {
      count += grouped_[j] >= lo_key ? 1u : 0u;
    }
  }
  return count - nan_count_;  // NaN keys exceed every threshold's key
}

float MagnitudeBuckets::top_k(std::size_t k, std::uint32_t* idx) {
  DLION_DCHECK(k >= 1 && k < size());
  // The bucket holding rank k; partitioning it alone places the k-th key.
  const std::size_t rank = k - 1;
  const auto p = static_cast<std::size_t>(
      std::upper_bound(ends_.begin(), ends_.end(), rank) - ends_.begin());
  const std::size_t first = p == 0 ? 0 : ends_[p - 1];
  std::uint32_t* bucket = grouped_.data();
  std::nth_element(bucket + first, bucket + rank, bucket + ends_[p],
                   std::greater<>());
  const std::uint32_t kth = bucket[rank];
  std::size_t above = first;  // entries ranked strictly above the k-th key
  std::size_t tied = 0;       // entries equal to it
  for (std::size_t j = first; j < ends_[p]; ++j) {
    above += bucket[j] > kth ? 1u : 0u;
    tied += bucket[j] == kth ? 1u : 0u;
  }
  // One filter pass in index order, stopping at the k-th hit. When only
  // part of the tie makes the cut, its first k - above members by index do:
  // the pass takes keys >= kth until they are in, then keys > kth only. The
  // `n < k` bounds keep every write inside `idx`.
  const std::uint32_t* keys = keys_.data();
  const std::size_t size = keys_.size();
  std::size_t n = 0;
  std::size_t i = 0;
  std::uint32_t lo = kth;
  if (above + tied > k) {
    for (std::size_t ties_left = k - above; ties_left > 0 && i < size; ++i) {
      idx[n] = static_cast<std::uint32_t>(i);
      n += keys[i] >= kth ? 1u : 0u;
      ties_left -= keys[i] == kth ? 1u : 0u;
    }
    lo = kth + 1;
  }
  for (; i < size && n < k; ++i) {
    idx[n] = static_cast<std::uint32_t>(i);
    n += keys[i] >= lo ? 1u : 0u;
  }
  DLION_DCHECK(n == k, "top-k filter selected a different count");
  return std::bit_cast<float>(kth);
}

namespace {
comm::VariableGrad select_top_k_impl(std::span<const float> grad,
                                     std::uint32_t var_index, std::size_t k,
                                     comm::PayloadWriter* writer) {
  if (k >= grad.size()) return dense_grad_impl(grad, var_index, writer);
  comm::VariableGrad v;
  v.var_index = var_index;
  v.dense_size = static_cast<std::uint32_t>(grad.size());
  if (k == 0) return v;
  SelectWorkspace& ws = SelectWorkspace::tls();
  ws.buckets.build(grad);
  auto& idx = ws.idx;
  idx.resize(k);
  ws.buckets.top_k(k, idx.data());
  auto& vals = ws.vals;
  vals.resize(k);
  for (std::size_t i = 0; i < k; ++i) vals[i] = grad[idx[i]];
  emit_selection(v, idx, vals, writer);
  return v;
}
}  // namespace

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k) {
  return select_top_k_impl(grad, var_index, k, nullptr);
}

comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k,
                                comm::PayloadWriter& writer) {
  return select_top_k_impl(grad, var_index, k, &writer);
}

double equivalent_n_from_threshold(float max_abs, float kth_mag) {
  return (1.0 - static_cast<double>(kth_mag) / static_cast<double>(max_abs)) *
         100.0;
}

}  // namespace dlion::core
