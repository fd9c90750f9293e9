// Quantization correctness: round-trip error bounds, int8/fp16 kernels vs float
// layers, observer calibration, and reference-model clone fidelity (the property
// Table 2 depends on: an int8 reference stays semantically close to the model).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/models/chain_model.h"
#include "src/models/resnet.h"
#include "src/core/module_partitioner.h"
#include "src/nn/conv2d.h"
#include "src/nn/linear.h"
#include "src/quant/quantize.h"
#include "src/quant/quantized_modules.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

TEST(Quantize, WeightRoundTripErrorBounded) {
  Rng rng(1);
  Tensor w = Tensor::Randn({8, 32}, rng);
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  for (int64_t r = 0; r < 8; ++r) {
    float row_max = 0.0F;
    for (int64_t c = 0; c < 32; ++c) {
      row_max = std::max(row_max, std::abs(w.At(r, c)));
    }
    for (int64_t c = 0; c < 32; ++c) {
      const float deq = static_cast<float>(q.data[static_cast<size_t>(r * 32 + c)]) *
                        q.scales[static_cast<size_t>(r)];
      // Symmetric int8: error <= scale/2 = row_max / 254.
      EXPECT_LE(std::abs(deq - w.At(r, c)), row_max / 254.0F + 1e-6F);
    }
  }
}

TEST(Quantize, ActivationScaleAndClamp) {
  std::vector<float> x{-10.0F, 5.0F, 0.0F, 2.5F};
  const float scale = ActivationScale(x.data(), 4);
  EXPECT_NEAR(scale, 10.0F / 127.0F, 1e-6F);
  std::vector<int8_t> q(4);
  QuantizeActivations(x.data(), q.data(), 4, scale);
  EXPECT_EQ(q[0], -127);
  EXPECT_NEAR(static_cast<float>(q[1]) * scale, 5.0F, scale);
}

TEST(Quantize, ObserverTracksMax) {
  MinMaxObserver obs;
  std::vector<float> a{1.0F, -2.0F};
  std::vector<float> b{0.5F, 7.0F};
  obs.Observe(a.data(), 2);
  obs.Observe(b.data(), 2);
  EXPECT_NEAR(obs.Scale(), 7.0F / 127.0F, 1e-6F);
}

TEST(QuantLinear, MatchesFloatWithinTolerance) {
  Rng rng(2);
  Linear fp("fc", 16, 8, rng);
  QuantLinear q(fp, QuantMode::kDynamic);
  Tensor x = Tensor::Randn({4, 16}, rng);
  fp.SetTraining(false);
  Tensor yf = fp.Forward(x);
  Tensor yq = q.Forward(x);
  const float range = yf.AbsMax();
  for (int64_t i = 0; i < yf.NumEl(); ++i) {
    EXPECT_NEAR(yq.Data()[i], yf.Data()[i], 0.05F * range + 1e-3F) << i;
  }
}

TEST(QuantConv2d, MatchesFloatWithinTolerance) {
  Rng rng(3);
  Conv2d fp("conv", 3, 6, 3, rng, 1, 1, 1, /*bias=*/true);
  QuantConv2d q(fp, QuantMode::kStatic);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, rng);
  fp.SetTraining(false);
  Tensor yf = fp.Forward(x);
  Tensor yq = q.Forward(x);  // First forward self-calibrates the observer.
  const float range = yf.AbsMax();
  for (int64_t i = 0; i < yf.NumEl(); ++i) {
    EXPECT_NEAR(yq.Data()[i], yf.Data()[i], 0.05F * range + 1e-3F);
  }
}

TEST(QuantConv2d, StaticScaleFreezesAfterCalibration) {
  Rng rng(4);
  Conv2d fp("conv", 2, 2, 3, rng);
  QuantConv2d q(fp, QuantMode::kStatic);
  Tensor big = Tensor::Randn({1, 2, 6, 6}, rng, 5.0F);
  Tensor small = Tensor::Randn({1, 2, 6, 6}, rng, 0.01F);
  q.Forward(big);
  q.Forward(big);  // kStaticCalibrationBatches = 2: observer now frozen.
  // A tiny input after calibration uses the frozen (large) scale: its quantized
  // representation collapses toward zero instead of rescaling per batch.
  Tensor y_static = q.Forward(small);
  QuantConv2d q_dyn(fp, QuantMode::kDynamic);
  Tensor y_dyn = q_dyn.Forward(small);
  EXPECT_LT(y_static.AbsMax(), y_dyn.AbsMax() + 1e-6F);
}

TEST(Fp16Linear, MatchesFloatClosely) {
  Rng rng(5);
  Linear fp("fc", 12, 6, rng);
  Fp16Linear h(fp);
  Tensor x = Tensor::Randn({3, 12}, rng);
  fp.SetTraining(false);
  Tensor yf = fp.Forward(x);
  Tensor yh = h.Forward(x);
  for (int64_t i = 0; i < yf.NumEl(); ++i) {
    EXPECT_NEAR(yh.Data()[i], yf.Data()[i], 0.01F * std::max(1.0F, yf.AbsMax()));
  }
}

TEST(Fp16Conv2d, MatchesFloatClosely) {
  Rng rng(6);
  Conv2d fp("conv", 2, 4, 3, rng);
  Fp16Conv2d h(fp);
  Tensor x = Tensor::Randn({2, 2, 6, 6}, rng);
  fp.SetTraining(false);
  Tensor yf = fp.Forward(x);
  Tensor yh = h.Forward(x);
  for (int64_t i = 0; i < yf.NumEl(); ++i) {
    EXPECT_NEAR(yh.Data()[i], yf.Data()[i], 0.02F * std::max(1.0F, yf.AbsMax()));
  }
}

// Pointwise convs skip the im2col gather: the input (its quantized bytes for
// int8) already is the column matrix. Both must equal the gathered path bit for
// bit.
TEST(QuantConv2d, PointwiseMatchesIm2ColPathBitwise) {
  Rng rng(61);
  Conv2d fp("conv", 5, 6, 1, rng, /*stride=*/1, /*pad=*/0, /*dilation=*/1, /*bias=*/true);
  ASSERT_TRUE(IsPointwise(fp.geom()));
  for (int64_t i = 0; i < 6; ++i) {
    fp.mutable_bias().value.Data()[i] = rng.NextGaussian();
  }
  QuantConv2d q(fp, QuantMode::kDynamic);
  const int64_t b = 3;
  const int64_t hw = 4 * 7;
  Tensor x = Tensor::Randn({b, 5, 4, 7}, rng);
  Tensor got = q.Forward(x);

  const float scale = ActivationScale(x.Data(), x.NumEl());
  std::vector<int8_t> xq(static_cast<size_t>(x.NumEl()));
  QuantizeActivations(x.Data(), xq.data(), x.NumEl(), scale);
  const QuantizedWeights w = QuantizeWeightsPerChannel(fp.weight().value);
  std::vector<int8_t> cols(static_cast<size_t>(5 * hw));
  Tensor want({b, 6, 4, 7});
  for (int64_t bi = 0; bi < b; ++bi) {
    Im2ColItemI8(xq.data() + bi * 5 * hw, 5, 4, 7, fp.geom(), cols.data());
    Int8GemmWeightLhs(w, cols.data(), scale, fp.bias().value.Data(),
                      want.Data() + bi * 6 * hw, hw);
  }
  EXPECT_EQ(std::memcmp(got.Data(), want.Data(), sizeof(float) * want.NumEl()), 0);
}

TEST(Fp16Conv2d, PointwiseMatchesIm2ColPathBitwise) {
  Rng rng(62);
  Conv2d fp("conv", 5, 6, 1, rng, /*stride=*/1, /*pad=*/0, /*dilation=*/1, /*bias=*/true);
  ASSERT_TRUE(IsPointwise(fp.geom()));
  for (int64_t i = 0; i < 6; ++i) {
    fp.mutable_bias().value.Data()[i] = rng.NextGaussian();
  }
  Fp16Conv2d h(fp);
  const int64_t b = 3;
  const int64_t hw = 4 * 7;
  Tensor x = Tensor::Randn({b, 5, 4, 7}, rng);
  Tensor got = h.Forward(x);

  std::vector<_Float16> w16(static_cast<size_t>(fp.weight().value.NumEl()));
  for (size_t i = 0; i < w16.size(); ++i) {
    w16[i] = static_cast<_Float16>(fp.weight().value.Data()[i]);
  }
  Tensor cols = Im2Col(x, fp.geom());
  Tensor want({b, 6, 4, 7});
  for (int64_t bi = 0; bi < b; ++bi) {
    float* o = want.Data() + bi * 6 * hw;
    Gemm(w16.data(), cols.Data() + bi * 5 * hw, o, 6, 5, hw, /*trans_a=*/false,
         /*trans_b=*/false, /*accumulate=*/false);
    for (int64_t oc = 0; oc < 6; ++oc) {
      for (int64_t j = 0; j < hw; ++j) {
        o[oc * hw + j] += fp.bias().value.Data()[oc];
      }
    }
  }
  EXPECT_EQ(std::memcmp(got.Data(), want.Data(), sizeof(float) * want.NumEl()), 0);
}

TEST(Factories, PrecisionDispatch) {
  EXPECT_EQ(MakeInferenceFactory(Precision::kInt8, QuantMode::kStatic)->precision(),
            Precision::kInt8);
  EXPECT_EQ(MakeInferenceFactory(Precision::kFloat16, QuantMode::kStatic)->precision(),
            Precision::kFloat16);
  EXPECT_EQ(MakeInferenceFactory(Precision::kFloat32, QuantMode::kStatic)->precision(),
            Precision::kFloat32);
}

// A quantized ResNet reference stays close to the float model at every stage
// boundary — this is what makes int8 plasticity evaluation sound.
TEST(ReferenceClone, Int8ChainTracksFloatChain) {
  Rng rng(7);
  CifarResNetConfig mcfg;
  mcfg.blocks_per_stage = 1;
  mcfg.base_width = 8;
  auto model = PartitionIntoChain("r", BuildCifarResNetBlocks(mcfg, rng),
                                  PartitionConfig{.target_modules = 4});
  model->SetTraining(false);

  Int8Factory factory(QuantMode::kStatic);
  auto ref = model->CloneForInference(factory);

  Tensor x = Tensor::Randn({4, 3, 16, 16}, rng);
  Tensor yf = model->ForwardFrom(0, x);
  ref->ForwardFrom(0, x);  // calibration pass
  Tensor yq = ref->ForwardFrom(0, x);
  ASSERT_TRUE(yq.SameShape(yf));
  double err = 0.0;
  for (int64_t i = 0; i < yf.NumEl(); ++i) {
    err += std::abs(static_cast<double>(yq.Data()[i]) - yf.Data()[i]);
  }
  err /= static_cast<double>(yf.NumEl());
  EXPECT_LT(err, 0.15 * std::max<double>(1.0, yf.AbsMax()));
}

TEST(ReferenceClone, QuantizedModulesRefuseBackward) {
  Rng rng(8);
  Linear fp("fc", 4, 4, rng);
  QuantLinear q(fp, QuantMode::kDynamic);
  Tensor x = Tensor::Randn({2, 4}, rng);
  q.Forward(x);
  EXPECT_DEATH(q.Backward(x), "inference-only");
}

// ---- Round-trip / saturation property tests ----

TEST(QuantizeProperty, PerChannelScaleSelection) {
  // scale[r] = rowmax/127 for non-degenerate rows, 1.0 for all-zero rows, and
  // the row maximum itself always round-trips to the full code +-127.
  Rng rng(40);
  Tensor w = Tensor::Randn({6, 64}, rng, 3.0F);
  for (int64_t c = 0; c < 64; ++c) {
    w.Data()[2 * 64 + c] = 0.0F;  // Degenerate all-zero channel.
  }
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  for (int64_t r = 0; r < 6; ++r) {
    float row_max = 0.0F;
    int64_t argmax = 0;
    for (int64_t c = 0; c < 64; ++c) {
      if (std::abs(w.At(r, c)) > row_max) {
        row_max = std::abs(w.At(r, c));
        argmax = c;
      }
    }
    if (row_max == 0.0F) {
      EXPECT_EQ(q.scales[static_cast<size_t>(r)], 1.0F);
      for (int64_t c = 0; c < 64; ++c) {
        EXPECT_EQ(q.data[static_cast<size_t>(r * 64 + c)], 0);
      }
      continue;
    }
    EXPECT_NEAR(q.scales[static_cast<size_t>(r)], row_max / 127.0F,
                1e-6F * row_max);
    EXPECT_EQ(std::abs(q.data[static_cast<size_t>(r * 64 + argmax)]), 127);
  }
}

TEST(QuantizeProperty, RoundTripErrorAtMostHalfScale) {
  // quantize -> dequantize error <= scale/2 for every in-range activation.
  Rng rng(41);
  std::vector<float> x(512);
  for (auto& v : x) {
    v = rng.NextGaussian() * 2.5F;
  }
  const float scale = ActivationScale(x.data(), static_cast<int64_t>(x.size()));
  std::vector<int8_t> q(x.size());
  QuantizeActivations(x.data(), q.data(), static_cast<int64_t>(x.size()), scale);
  for (size_t i = 0; i < x.size(); ++i) {
    const float deq = static_cast<float>(q[i]) * scale;
    EXPECT_LE(std::abs(deq - x[i]), scale / 2.0F + 1e-6F)
        << "i=" << i << " x=" << x[i] << " q=" << static_cast<int>(q[i]);
  }
}

TEST(QuantizeProperty, SaturationAtInt8Extremes) {
  // Values beyond the representable range clamp to +-127 (never wrap, never
  // reach -128), including extreme magnitudes.
  const float scale = 0.1F;
  std::vector<float> x{12.7F,  12.75F,  13.0F,  1e30F,  1e9F,
                       -12.7F, -12.75F, -13.0F, -1e30F, -1e9F};
  std::vector<int8_t> q(x.size());
  QuantizeActivations(x.data(), q.data(), static_cast<int64_t>(x.size()), scale);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(q[i], 127) << "x=" << x[i];
  }
  for (size_t i = 5; i < 10; ++i) {
    EXPECT_EQ(q[i], -127) << "x=" << x[i];
  }
  // In-range values still round to nearest, half away from zero.
  std::vector<float> y{0.04F, 0.05F, 0.06F, -0.05F, -0.26F};
  std::vector<int8_t> qy(y.size());
  QuantizeActivations(y.data(), qy.data(), static_cast<int64_t>(y.size()), scale);
  EXPECT_EQ(qy[0], 0);
  EXPECT_EQ(qy[1], 1);
  EXPECT_EQ(qy[2], 1);
  EXPECT_EQ(qy[3], -1);
  EXPECT_EQ(qy[4], -3);

  // Non-finite inputs: +-inf clamp like any out-of-range value; NaN resolves to
  // +127, identically in the vectorized body and the scalar tail (19 elements
  // spans both on 16-lane targets).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> z(19, nan);
  z[1] = inf;
  z[18] = -inf;
  std::vector<int8_t> qz(z.size());
  QuantizeActivations(z.data(), qz.data(), static_cast<int64_t>(z.size()), scale);
  EXPECT_EQ(qz[1], 127);
  EXPECT_EQ(qz[18], -127);
  for (size_t i = 0; i < z.size(); ++i) {
    if (i != 1 && i != 18) {
      EXPECT_EQ(qz[i], 127) << "NaN at index " << i;
    }
  }
}

TEST(QuantizeProperty, WeightQuantizationNeverProducesMinus128) {
  // Symmetric quantization uses codes [-127, 127]; -128 would break the
  // unsigned-bias trick in the packed dot4 kernel's error analysis.
  Rng rng(42);
  Tensor w = Tensor::Randn({16, 33}, rng, 10.0F);
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  for (int8_t v : q.data) {
    EXPECT_GE(v, -127);
  }
}

// The packed dot4 GEMM behind Int8GemmTransB/Int8GemmWeightLhs is exact in
// int32, so the requantized outputs must match a naive reference bit for bit.
TEST(Int8Kernels, MatchNaiveReferenceBitwise) {
  Rng rng(43);
  const int64_t m = 9;
  const int64_t k = 70;  // k % 4 != 0: exercises dot4 padding
  const int64_t n = 13;
  Tensor w = Tensor::Randn({n, k}, rng);
  QuantizedWeights q = QuantizeWeightsPerChannel(w);
  std::vector<int8_t> a(static_cast<size_t>(m * k));
  for (auto& v : a) {
    v = static_cast<int8_t>(rng.NextBelow(255)) ;
  }
  std::vector<float> bias(static_cast<size_t>(n));
  for (auto& v : bias) {
    v = rng.NextGaussian();
  }
  const float a_scale = 0.037F;

  std::vector<float> got(static_cast<size_t>(m * n));
  Int8GemmTransB(a.data(), a_scale, q, bias.data(), got.data(), m);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(a[static_cast<size_t>(i * k + p)]) *
               static_cast<int32_t>(q.data[static_cast<size_t>(j * k + p)]);
      }
      const float want = static_cast<float>(acc) * a_scale *
                             q.scales[static_cast<size_t>(j)] +
                         bias[static_cast<size_t>(j)];
      ASSERT_EQ(got[static_cast<size_t>(i * n + j)], want) << i << "," << j;
    }
  }

  // Weight-LHS orientation (the conv path): C[n_w, cols] = Wq * B.
  const int64_t cols = 21;
  std::vector<int8_t> b(static_cast<size_t>(k * cols));
  for (auto& v : b) {
    v = static_cast<int8_t>(rng.NextBelow(255));
  }
  std::vector<float> got2(static_cast<size_t>(n * cols));
  Int8GemmWeightLhs(q, b.data(), a_scale, bias.data(), got2.data(), cols);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(q.data[static_cast<size_t>(r * k + p)]) *
               static_cast<int32_t>(b[static_cast<size_t>(p * cols + j)]);
      }
      const float want =
          static_cast<float>(acc) * (a_scale * q.scales[static_cast<size_t>(r)]) +
          bias[static_cast<size_t>(r)];
      ASSERT_EQ(got2[static_cast<size_t>(r * cols + j)], want) << r << "," << j;
    }
  }
}

TEST(Quantize, FakeQuantPreservesScale) {
  Rng rng(9);
  Tensor t = Tensor::Randn({100}, rng, 2.0F);
  Tensor orig = t.Clone();
  FakeQuantizeInt8(t);
  for (int64_t i = 0; i < t.NumEl(); ++i) {
    EXPECT_NEAR(t.Data()[i], orig.Data()[i], orig.AbsMax() / 100.0F);
  }
}

}  // namespace
}  // namespace egeria
