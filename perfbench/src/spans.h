// Host-time spans recorded around the calls into each layer of the
// simulator. Every span is opened and closed on the thread that runs
// core::Cluster::run; a layer's self time is its span minus the spans it
// encloses, so the self times of all layers plus the cluster loop's own
// self time add up to the run's host time exactly.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One accumulator per interposed entry point. kRun is the root span,
/// core::Cluster::run; its self time is the simulator's own (sim.self_s).
enum Layer : int {
  kRun,
  kSelectBegin,     // PartialGradientStrategy::begin_iteration
  kSelectGenerate,  // PartialGradientStrategy::generate
  kNnTrain,         // nn::Model::compute_gradients
  kNnEval,          // nn::Model::evaluate
  kGemm,            // tensor::gemm
  kApply,           // core::apply_gradient_update
  kSend,            // comm::Fabric::send and both broadcast overloads
  kLayerCount,
};

struct LayerTotals {
  double incl_s = 0.0;
  double self_s = 0.0;
  std::uint64_t calls = 0;
  /// Inclusive duration of each call, kept only for layers whose
  /// percentiles are reported.
  std::vector<double> call_s;
};

/// Everything recorded during one Cluster::run. Reset before each repeat.
struct RunRecord {
  Clock::time_point run_start{};
  Clock::time_point run_end{};
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  LayerTotals layers[kLayerCount];
  std::uint64_t entries_out = 0;        // gradient entries shipped by generate
  std::uint64_t elements_offered = 0;   // model parameters offered to generate
  double gemm_muladds = 0.0;            // sum of m*n*k over gemm calls
  std::uint64_t gemm_small_calls = 0;   // calls under the packed-path cutoff
};

RunRecord& record();
void reset_record();

/// Turns the layer spans on or off; the root span is always recorded, so a
/// repeat with layer spans off measures run_s through the same seams
/// without their timing cost.
void set_layer_spans(bool on);

/// Scoped span. A kRun span opens the root; any other span records nothing
/// unless layer spans are on and a root is open on the calling thread, so
/// work done during set-up or on pool threads is not attributed to a layer.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Whether this span is recorded (a root is open on this thread).
  bool active() const { return active_; }

 private:
  Layer layer_;
  bool active_;
  Span* parent_ = nullptr;
  double child_s_ = 0.0;
  Clock::time_point start_{};
};

}  // namespace perfbench
