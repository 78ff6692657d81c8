// Microbenchmarks (google-benchmark) for the substrates the experiments sit
// on: GEMM, convolution via im2col, Max N / top-k selection, and the
// discrete-event engine + network.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/gradient_select.h"
#include "nn/model_zoo.h"
#include "sim/network.h"
#include "tensor/ops.h"

namespace {

using namespace dlion;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    tensor::gemm(false, false, n, n, n, 1.0f, a.data(), b.data(), 0.0f,
                 c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_CipherForwardBackward(benchmark::State& state) {
  common::Rng rng(2);
  nn::BuiltModel bm = nn::make_cipher_lite(rng);
  const auto batch = static_cast<std::size_t>(state.range(0));
  tensor::Tensor x(tensor::Shape{batch, 1, 8, 8});
  for (auto& v : x.span()) v = static_cast<float>(rng.normal());
  std::vector<std::int32_t> labels(batch, 3);
  for (auto _ : state) {
    const auto res = bm.model.compute_gradients(x, labels);
    benchmark::DoNotOptimize(res.loss);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_CipherForwardBackward)->Arg(16)->Arg(64);

void BM_MaxNSelect(benchmark::State& state) {
  common::Rng rng(3);
  std::vector<float> grad(static_cast<std::size_t>(state.range(0)));
  for (auto& v : grad) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto v = core::select_max_n(grad, 0, 10.0);
    benchmark::DoNotOptimize(v.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_MaxNSelect)->Arg(1 << 12)->Arg(1 << 16);

void BM_TopKSelect(benchmark::State& state) {
  common::Rng rng(4);
  std::vector<float> grad(static_cast<std::size_t>(state.range(0)));
  for (auto& v : grad) v = static_cast<float>(rng.normal());
  const std::size_t k = grad.size() / 10;
  for (auto _ : state) {
    auto v = core::select_top_k(grad, 0, k);
    benchmark::DoNotOptimize(v.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TopKSelect)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    const auto n = static_cast<std::size_t>(state.range(0));
    std::size_t counter = 0;
    for (std::size_t i = 0; i < n; ++i) {
      engine.at(static_cast<double>(i % 97), [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventEngine)->Arg(1 << 12)->Arg(1 << 16);

void BM_NetworkTransfers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    sim::Network net(engine, 6);
    std::size_t delivered = 0;
    for (int round = 0; round < 100; ++round) {
      for (std::size_t from = 0; from < 6; ++from) {
        for (std::size_t to = 0; to < 6; ++to) {
          if (from == to) continue;
          net.send(from, to, 10'000, [&delivered] { ++delivered; });
        }
      }
    }
    engine.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100 * 30);
}
BENCHMARK(BM_NetworkTransfers);

}  // namespace

BENCHMARK_MAIN();
