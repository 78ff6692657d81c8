// Max N gradient selection (§3.3, data quality assurance module).
//
// Max N keeps the entries of a gradient vector whose absolute value is
// within N% of the vector's maximum absolute value, i.e. |g| >=
// (1 - N/100) * max|g|. N = 100 keeps everything (dense exchange); small N
// keeps only the statistically most significant sliver. The paper's text
// ("greater than or equal to N% of the maximum") reads ambiguously, but its
// two anchors fix the semantics: N=1 sends only values within 1% of the max,
// N=100 sends whole gradients - hence the (1 - N/100) threshold.
//
// Selection is applied per weight variable because "each weight variable has
// their own value distribution and convergence speed".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/message.h"
#include "comm/payload.h"

namespace dlion::core {

/// Threshold implied by Max N for a vector whose max-abs is `max_abs`.
double max_n_threshold(double n, float max_abs);

// ---------------------------------------------------------------------------
// Magnitude buckets: the one top-k mechanism.
//
// A top-k ranks entries by (|g| descending, index ascending). The bit
// pattern of a non-negative float orders the same way as its value, so |g|
// is ranked as the integer key `bits(g) & 0x7fffffff` (+-0 share key 0; a
// NaN ranks above +inf). build() groups the keys by value bucket: one fused
// pass writes the keys, max|g| and a histogram of `key >> 20` (2,048
// buckets: the exponent and 3 mantissa bits), a prefix sum runs over the
// buckets at or below max|g|'s, and one scatter pass groups the keys by
// bucket, highest first. A top-k then touches a single bucket, the one that
// holds rank k: nth_element over its few keys yields the k-th magnitude,
// and one filter pass in index order emits the selection. Built once, the
// buckets serve any number of k: DLion's link prioritizer builds them once
// per iteration and every link of that iteration reads them.
// ---------------------------------------------------------------------------
class MagnitudeBuckets {
 public:
  /// Rank the magnitudes of `grad`, reusing this object's storage.
  void build(std::span<const float> grad);

  std::size_t size() const { return keys_.size(); }
  /// max|g| over the non-NaN entries (what tensor::max_abs returns).
  float max_abs() const { return max_abs_; }
  /// count_max_n(grad, n) from the buckets, without a rescan.
  std::size_t max_n_count(double n) const;
  /// Write the indices of the k top-ranked entries (0 < k < size()) in
  /// ascending order to `idx`, which has room for k, and return the k-th
  /// largest magnitude. Of entries tied at that magnitude, the lower indices
  /// make the cut. Reorders keys within one bucket only, so any number of
  /// calls may follow one build().
  float top_k(std::size_t k, std::uint32_t* idx);

 private:
  std::vector<std::uint32_t> keys_;     ///< |g| keys in index order
  std::vector<std::uint32_t> grouped_;  ///< the keys grouped by bucket
  /// Occupied buckets, highest first: bucket ids_[b] holds the keys at
  /// grouped_[ends_[b - 1], ends_[b]), i.e. those ranks.
  std::vector<std::uint16_t> ids_;
  std::vector<std::uint32_t> ends_;
  float max_abs_ = 0.0f;
  std::size_t nan_count_ = 0;
};

/// The N whose Max N threshold equals `kth_mag` (the k-th largest
/// magnitude of a top-k selection) for a vector whose max-abs is `max_abs`:
/// the "equivalent N" of a size-driven selection.
double equivalent_n_from_threshold(float max_abs, float kth_mag);

// select_max_n and select_top_k exist in two forms. The writer form packs
// the selected (indices, values) arrays into the caller's PayloadWriter -
// the strategies' hot path, one production write into an arena block, zero
// heap allocations once the thread-local selection workspace is warm. The
// writer-less form packs into a standalone exact-size block instead (tests,
// benches); both produce identical entries - the selection runs in a shared
// workspace and the output cannot depend on where its bytes land.

/// Select entries of `grad` with |g| >= (1 - n/100) * max|g|. n in (0, 100].
/// n == 100 returns a dense VariableGrad.
comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n);
comm::VariableGrad select_max_n(std::span<const float> grad,
                                std::uint32_t var_index, double n,
                                comm::PayloadWriter& writer);

/// Select the k largest-magnitude entries (ties broken by lower index).
/// k >= grad.size() returns a dense VariableGrad.
comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k);
comm::VariableGrad select_top_k(std::span<const float> grad,
                                std::uint32_t var_index, std::size_t k,
                                comm::PayloadWriter& writer);

/// Dense VariableGrad over all of `grad` (what Max N = 100 selects).
comm::VariableGrad dense_grad(std::span<const float> grad,
                              std::uint32_t var_index,
                              comm::PayloadWriter& writer);

/// Number of entries Max N would select, without materializing them.
std::size_t count_max_n(std::span<const float> grad, double n);

}  // namespace dlion::core
