#include "spans.h"

#include <type_traits>

#include "core/cluster.h"
#include "seam_symbols.h"

namespace perfbench {
namespace {

RunRecord g_record;
bool g_layer_spans = true;
thread_local Span* t_top = nullptr;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

bool keeps_call_times(Layer layer) {
  return layer == kSelectGenerate || layer == kNnTrain || layer == kNnEval ||
         layer == kApply;
}

}  // namespace

RunRecord& record() { return g_record; }

void reset_record() { g_record = RunRecord{}; }

void set_layer_spans(bool on) { g_layer_spans = on; }

Span::Span(Layer layer)
    : layer_(layer),
      active_(layer == kRun || (g_layer_spans && t_top != nullptr)) {
  if (!active_) return;
  parent_ = t_top;
  t_top = this;
  start_ = Clock::now();
  if (layer_ == kRun) g_record.run_start = start_;
}

Span::~Span() {
  if (!active_) return;
  const Clock::time_point end = Clock::now();
  const double dur = seconds(end - start_);
  LayerTotals& totals = g_record.layers[layer_];
  totals.incl_s += dur;
  totals.self_s += dur - child_s_;
  ++totals.calls;
  if (keeps_call_times(layer_)) totals.call_s.push_back(dur);
  if (parent_ != nullptr) parent_->child_s_ += dur;
  t_top = parent_;
  if (layer_ == kRun) g_record.run_end = end;
}

// --- core::Cluster::run seam (both binaries) --------------------------------

namespace seams {

static_assert(std::is_same_v<decltype(&dlion::core::Cluster::run),
                             void (dlion::core::Cluster::*)()>,
              "Cluster::run changed signature; update the seam");

void real_cluster_run(dlion::core::Cluster* self) __asm__(
    "__real_" PERFBENCH_SYM_CLUSTER_RUN);
void wrap_cluster_run(dlion::core::Cluster* self) __asm__(
    "__wrap_" PERFBENCH_SYM_CLUSTER_RUN);

void wrap_cluster_run(dlion::core::Cluster* self) {
  {
    Span root(kRun);
    real_cluster_run(self);
  }
  g_record.events = self->engine().events_executed();
  g_record.peak_pending = self->engine().peak_events_pending();
}

}  // namespace seams
}  // namespace perfbench
