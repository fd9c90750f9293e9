// Microbenchmarks of the compute kernels and metrics (google-benchmark).
//
// Reproduces two paper claims quantitatively:
//  - SP loss is much cheaper than PWCCA ("~10x lower overhead", S3);
//  - the int8 reference forward is faster than fp32 (Table 2's speed column).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/metrics/pwcca.h"
#include "src/metrics/sp_loss.h"
#include "src/models/transformer.h"
#include "src/nn/activations.h"
#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/layernorm.h"
#include "src/nn/linear.h"
#include "src/optim/optimizer.h"
#include "src/quant/quantized_modules.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  // items_per_second * 2 = FLOP/s (each item is one multiply-add).
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// fp16-storage GEMM (fp16 weights x fp32 activations, the inference layout).
void BM_MatMulFp16(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  std::vector<_Float16> bh(static_cast<size_t>(n * n));
  for (int64_t i = 0; i < n * n; ++i) {
    bh[static_cast<size_t>(i)] = static_cast<_Float16>(b.Data()[i]);
  }
  Tensor c = Tensor::Uninitialized({n, n});
  for (auto _ : state) {
    Gemm(a.Data(), bh.data(), c.Data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.Data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulFp16)->Arg(256);

// int8 dot4 GEMM into exact int32 (requantization excluded: that cost is
// measured end-to-end by the conv/linear benches below).
void BM_MatMulInt8(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  std::vector<int8_t> a(static_cast<size_t>(n * n));
  std::vector<int8_t> b(static_cast<size_t>(n * n));
  for (auto& v : a) {
    v = static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
  }
  for (auto& v : b) {
    v = static_cast<int8_t>(static_cast<int>(rng.NextBelow(255)) - 127);
  }
  std::vector<int32_t> c(static_cast<size_t>(n * n));
  for (auto _ : state) {
    Gemm(a.data(), b.data(), c.data(), n, n, n, false, false, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulInt8)->Arg(256);

// Small and skinny fp32 GEMMs: the per-item conv (resnet50_egeria) and
// per-head attention and linear (transformer_egeria) shapes, then shapes just
// below the direct path's volume bound (kGemmDirectMaxVolume = 73*19*189) and
// 64^3, the first volume above it. Args: m, k, n, trans_a, trans_b.
void BM_GemmSmall(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = state.range(1);
  const int64_t n = state.range(2);
  const bool trans_a = state.range(3) != 0;
  const bool trans_b = state.range(4) != 0;
  Rng rng(5);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor c = Tensor::Uninitialized({m, n});
  for (auto _ : state) {
    Gemm(a.Data(), b.Data(), c.Data(), m, k, n, trans_a, trans_b, false);
    benchmark::DoNotOptimize(c.Data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_GemmSmall)
    ->Args({10, 10, 8, 0, 0})
    ->Args({10, 10, 8, 1, 0})
    ->Args({10, 8, 10, 0, 1})
    ->Args({16, 144, 16, 0, 0})
    ->Args({144, 16, 16, 1, 0})
    ->Args({16, 16, 144, 0, 1})
    ->Args({128, 32, 4, 0, 0})
    ->Args({288, 32, 4, 1, 0})
    ->Args({32, 4, 288, 0, 1})
    ->Args({32, 288, 4, 0, 0})
    ->Args({16, 4, 256, 0, 0})
    ->Args({4, 36, 256, 0, 0})
    ->Args({16, 256, 4, 0, 1})
    ->Args({64, 32, 32, 0, 0})
    ->Args({160, 32, 32, 0, 0})
    ->Args({160, 32, 32, 0, 1})
    ->Args({73, 19, 189, 0, 0})
    ->Args({63, 64, 64, 0, 0})
    ->Args({63, 64, 64, 1, 1})
    ->Args({127, 64, 32, 0, 0})
    ->Args({31, 256, 32, 0, 0})
    ->Args({255, 256, 4, 0, 0})
    ->Args({4, 255, 256, 0, 0})
    ->Args({15, 128, 128, 0, 0})
    ->Args({127, 128, 16, 0, 0})
    ->Args({64, 64, 64, 0, 0})
    ->UseRealTime();

void BM_ConvForwardFloat(benchmark::State& state) {
  Rng rng(2);
  Conv2d conv("c", 16, 16, 3, rng);
  conv.SetTraining(false);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardFloat);

void BM_ConvForwardInt8(benchmark::State& state) {
  Rng rng(2);
  Conv2d fp("c", 16, 16, 3, rng);
  QuantConv2d conv(fp, QuantMode::kStatic);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  conv.Forward(x);  // calibration
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardInt8);

void BM_ConvForwardFp16(benchmark::State& state) {
  Rng rng(2);
  Conv2d fp("c", 16, 16, 3, rng);
  Fp16Conv2d conv(fp);
  Tensor x = Tensor::Randn({8, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
  }
}
BENCHMARK(BM_ConvForwardFp16);

// Training-mode layer steps (forward + backward) at resnet50 stage-1 shapes:
// batch 16, 16 channels, 16x16. Both run on the compute pool, so they report
// wall time.
void BM_BatchNorm2dTrain(benchmark::State& state) {
  Rng rng(3);
  BatchNorm2d bn("bn", 16);
  Tensor x = Tensor::Randn({16, 16, 16, 16}, rng);
  Tensor dy = Tensor::Randn({16, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bn.Forward(x));
    benchmark::DoNotOptimize(bn.Backward(dy));
  }
  state.SetItemsProcessed(state.iterations() * x.NumEl());
}
BENCHMARK(BM_BatchNorm2dTrain)->UseRealTime();

void BM_Conv2dPointwise(benchmark::State& state) {
  Rng rng(4);
  Conv2d conv("c", 16, 16, 1, rng, /*stride=*/1, /*pad=*/0);
  Tensor x = Tensor::Randn({16, 16, 16, 16}, rng);
  Tensor dy = Tensor::Randn({16, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.Forward(x));
    benchmark::DoNotOptimize(conv.Backward(dy));
  }
  state.SetItemsProcessed(state.iterations() * x.NumEl());
}
BENCHMARK(BM_Conv2dPointwise)->UseRealTime();

// The non-GEMM layers of transformer_egeria at its shapes: batch 16, 10
// tokens, model dim 32, FFN dim 64, 4 heads. Arg 0 times forward, arg 1
// backward (after one untimed forward).
void BM_GeLU(benchmark::State& state) {
  Rng rng(6);
  GeLU gelu("gelu");
  gelu.SetTraining(true);
  Tensor x = Tensor::Randn({16, 10, 64}, rng);
  Tensor dy = Tensor::Randn({16, 10, 64}, rng);
  const bool backward = state.range(0) != 0;
  benchmark::DoNotOptimize(gelu.Forward(x));
  for (auto _ : state) {
    benchmark::DoNotOptimize(backward ? gelu.Backward(dy) : gelu.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * x.NumEl());
}
BENCHMARK(BM_GeLU)->Arg(0)->Arg(1)->UseRealTime();

// Attention probabilities over [batch * heads, tq, tk] causally masked scores,
// as in MultiHeadAttention::Forward of a decoder self-attention.
void BM_SoftmaxAttention(benchmark::State& state) {
  Rng rng(7);
  const int64_t t = 10;
  Tensor scores = Tensor::Randn({16, 4, t, t}, rng, 2.0F);
  float* s = scores.Data();
  for (int64_t m = 0; m < 16 * 4; ++m) {
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t j = i + 1; j < t; ++j) {
        s[(m * t + i) * t + j] = -1e9F;
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(scores));
  }
  state.SetItemsProcessed(state.iterations() * scores.NumEl());
}
BENCHMARK(BM_SoftmaxAttention)->UseRealTime();

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(8);
  LayerNorm ln("ln", 32);
  Tensor x = Tensor::Randn({16, 10, 32}, rng);
  Tensor dy = Tensor::Randn({16, 10, 32}, rng);
  const bool backward = state.range(0) != 0;
  benchmark::DoNotOptimize(ln.Forward(x));
  for (auto _ : state) {
    benchmark::DoNotOptimize(backward ? ln.Backward(dy) : ln.Forward(x));
  }
  state.SetItemsProcessed(state.iterations() * x.NumEl());
}
BENCHMARK(BM_LayerNorm)->Arg(0)->Arg(1)->UseRealTime();

// One Adam step over every parameter of transformer_egeria's model (the
// factory's configuration; the "params" counter reports the total).
void BM_AdamStep(benchmark::State& state) {
  Rng rng(9);
  TransformerConfig cfg;
  cfg.vocab = 32;
  cfg.dim = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.num_encoder_layers = 4;
  cfg.num_decoder_layers = 4;
  cfg.max_len = 16;
  TransformerChainModel model("mt", cfg, rng);
  std::vector<Parameter*> params = model.ParamsFrom(0);
  int64_t count = 0;
  for (Parameter* p : params) {
    for (int64_t i = 0; i < p->grad.NumEl(); ++i) {
      p->grad.Data()[i] = 1e-3F * rng.NextGaussian();
    }
    count += p->value.NumEl();
  }
  Adam adam;
  for (auto _ : state) {
    adam.Step(params, 1e-4F);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * count);
  state.counters["params"] = static_cast<double>(count);
}
BENCHMARK(BM_AdamStep)->UseRealTime();

void BM_LinearForwardFloat(benchmark::State& state) {
  Rng rng(3);
  Linear fc("l", 256, 256, rng);
  fc.SetTraining(false);
  Tensor x = Tensor::Randn({32, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.Forward(x));
  }
}
BENCHMARK(BM_LinearForwardFloat);

void BM_LinearForwardInt8(benchmark::State& state) {
  Rng rng(3);
  Linear fp("l", 256, 256, rng);
  QuantLinear fc(fp, QuantMode::kDynamic);
  Tensor x = Tensor::Randn({32, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.Forward(x));
  }
}
BENCHMARK(BM_LinearForwardInt8);

// SP loss vs PWCCA on the same activation pair — the paper's ~10x cost claim.
void BM_SpLoss(benchmark::State& state) {
  Rng rng(4);
  Tensor a = Tensor::Randn({16, 32, 8, 8}, rng);
  Tensor b = Tensor::Randn({16, 32, 8, 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SpLoss(a, b));
  }
}
BENCHMARK(BM_SpLoss);

void BM_Pwcca(benchmark::State& state) {
  Rng rng(4);
  Tensor a = ActivationsToSamples(Tensor::Randn({16, 32, 8, 8}, rng));
  Tensor b = ActivationsToSamples(Tensor::Randn({16, 32, 8, 8}, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PwccaDistance(a, b));
  }
}
BENCHMARK(BM_Pwcca);

}  // namespace
}  // namespace egeria
