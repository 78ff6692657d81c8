// Link-time seams around the public entry points of the nn, tensor, core
// and comm layers (traced binary only). The linker resolves every call to
// X from another object file to __wrap_X, which opens a span and calls
// __real_X, the original definition. Calls inside the defining file are not
// redirected, so Fabric::broadcast's internal sends are not counted twice.
//
// Each wrapper takes the object as an explicit first parameter, which is
// how the Itanium C++ ABI passes `this`; the static_asserts keep the
// wrapper signatures in step with the headers.
#include <span>
#include <type_traits>
#include <vector>

#include "comm/fabric.h"
#include "core/weighted_update.h"
#include "nn/model.h"
#include "seam_symbols.h"
#include "spans.h"
#include "tensor/ops.h"

namespace perfbench::seams {

using dlion::comm::Fabric;
using dlion::comm::GradientUpdate;
using dlion::comm::Message;
using dlion::nn::LossResult;
using dlion::nn::Model;
using dlion::tensor::Tensor;
using Labels = std::span<const std::int32_t>;

/// tensor::gemm's packed path starts at this many mul-adds
/// (kPackedMulAddThreshold in src/tensor/ops.cpp).
constexpr double kPackedMulAdds = 1 << 19;

static_assert(std::is_same_v<decltype(&Model::compute_gradients),
                             LossResult (Model::*)(const Tensor&, Labels)>);
static_assert(std::is_same_v<decltype(&Model::evaluate),
                             LossResult (Model::*)(const Tensor&, Labels)>);
static_assert(std::is_same_v<decltype(&dlion::tensor::gemm),
                             void (*)(bool, bool, std::size_t, std::size_t,
                                      std::size_t, float, const float*,
                                      const float*, float, float*)>);
static_assert(std::is_same_v<decltype(&dlion::core::apply_gradient_update),
                             void (*)(Model&, const GradientUpdate&, double,
                                      std::size_t, double)>);
static_assert(std::is_same_v<decltype(&Fabric::send),
                             void (Fabric::*)(std::size_t, std::size_t,
                                              Message)>);
// Overload resolution fails to compile if either broadcast changes.
[[maybe_unused]] constexpr auto kBroadcastAll =
    static_cast<void (Fabric::*)(std::size_t, const Message&)>(
        &Fabric::broadcast);
[[maybe_unused]] constexpr auto kBroadcastMasked =
    static_cast<void (Fabric::*)(std::size_t, const Message&,
                                 const std::vector<bool>&)>(&Fabric::broadcast);

LossResult real_compute_gradients(Model*, const Tensor&, Labels)
    __asm__("__real_" PERFBENCH_SYM_MODEL_COMPUTE_GRADIENTS);
LossResult wrap_compute_gradients(Model*, const Tensor&, Labels)
    __asm__("__wrap_" PERFBENCH_SYM_MODEL_COMPUTE_GRADIENTS);
LossResult wrap_compute_gradients(Model* self, const Tensor& input,
                                  Labels labels) {
  Span span(kNnTrain);
  return real_compute_gradients(self, input, labels);
}

LossResult real_evaluate(Model*, const Tensor&, Labels)
    __asm__("__real_" PERFBENCH_SYM_MODEL_EVALUATE);
LossResult wrap_evaluate(Model*, const Tensor&, Labels)
    __asm__("__wrap_" PERFBENCH_SYM_MODEL_EVALUATE);
LossResult wrap_evaluate(Model* self, const Tensor& input, Labels labels) {
  Span span(kNnEval);
  return real_evaluate(self, input, labels);
}

void real_gemm(bool, bool, std::size_t, std::size_t, std::size_t, float,
               const float*, const float*, float, float*)
    __asm__("__real_" PERFBENCH_SYM_TENSOR_GEMM);
void wrap_gemm(bool, bool, std::size_t, std::size_t, std::size_t, float,
               const float*, const float*, float, float*)
    __asm__("__wrap_" PERFBENCH_SYM_TENSOR_GEMM);
void wrap_gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, const float* b,
               float beta, float* c) {
  Span span(kGemm);
  real_gemm(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);
  if (!span.active()) return;
  const double muladds = static_cast<double>(m) * static_cast<double>(n) *
                         static_cast<double>(k);
  RunRecord& r = record();
  r.gemm_muladds += muladds;
  if (muladds < kPackedMulAdds) ++r.gemm_small_calls;
}

void real_apply(Model&, const GradientUpdate&, double, std::size_t, double)
    __asm__("__real_" PERFBENCH_SYM_CORE_APPLY_GRADIENT_UPDATE);
void wrap_apply(Model&, const GradientUpdate&, double, std::size_t, double)
    __asm__("__wrap_" PERFBENCH_SYM_CORE_APPLY_GRADIENT_UPDATE);
void wrap_apply(Model& model, const GradientUpdate& update, double eta,
                std::size_t n_workers, double db) {
  Span span(kApply);
  real_apply(model, update, eta, n_workers, db);
}

void real_send(Fabric*, std::size_t, std::size_t, Message)
    __asm__("__real_" PERFBENCH_SYM_FABRIC_SEND);
void wrap_send(Fabric*, std::size_t, std::size_t, Message)
    __asm__("__wrap_" PERFBENCH_SYM_FABRIC_SEND);
void wrap_send(Fabric* self, std::size_t from, std::size_t to, Message msg) {
  Span span(kSend);
  real_send(self, from, to, std::move(msg));
}

void real_broadcast(Fabric*, std::size_t, const Message&)
    __asm__("__real_" PERFBENCH_SYM_FABRIC_BROADCAST);
void wrap_broadcast(Fabric*, std::size_t, const Message&)
    __asm__("__wrap_" PERFBENCH_SYM_FABRIC_BROADCAST);
void wrap_broadcast(Fabric* self, std::size_t from, const Message& msg) {
  Span span(kSend);
  real_broadcast(self, from, msg);
}

void real_broadcast_masked(Fabric*, std::size_t, const Message&,
                           const std::vector<bool>&)
    __asm__("__real_" PERFBENCH_SYM_FABRIC_BROADCAST_MASKED);
void wrap_broadcast_masked(Fabric*, std::size_t, const Message&,
                           const std::vector<bool>&)
    __asm__("__wrap_" PERFBENCH_SYM_FABRIC_BROADCAST_MASKED);
void wrap_broadcast_masked(Fabric* self, std::size_t from, const Message& msg,
                           const std::vector<bool>& targets) {
  Span span(kSend);
  real_broadcast_masked(self, from, msg, targets);
}

}  // namespace perfbench::seams
