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

#include <span>
#include <vector>

#include "comm/message.h"
#include "comm/payload.h"

namespace dlion::core {

/// Threshold implied by Max N for a vector whose max-abs is `max_abs`.
double max_n_threshold(double n, float max_abs);

// ---------------------------------------------------------------------------
// Fused magnitude workspace.
//
// A link generation needs several statistics of the same gradient vector
// (its Max N floor, its top-k set, the equivalent N of that set), and a
// worker generates one link per peer over the same gradient. LinkPrioritizer
// therefore computes the link-independent part once per iteration, in the
// first generate() after begin_iteration(): magnitudes() fills |g| and
// max|g| in one pass, count_max_n_mags() derives the min_n floor from them,
// and one index ordering by (|g| descending, index ascending), extended
// lazily as links ask for ranks not yet in place, serves every link's
// top-k. Each link then reports its equivalent N from the k-th largest
// magnitude with equivalent_n_from_threshold(), without another partial
// sort.
// ---------------------------------------------------------------------------

/// Fill `mags[i] = |grad[i]|` (resizing as needed) and return max|grad|.
/// Single fused pass over the gradient.
float magnitudes(std::span<const float> grad, std::vector<float>& mags);

/// count_max_n on precomputed magnitudes (no rescan of the gradient).
std::size_t count_max_n_mags(std::span<const float> mags, float max_abs,
                             double n);

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
