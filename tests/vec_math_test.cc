// Accuracy of the vectorizable transcendentals (src/tensor/vec_math.h) against
// double libm over dense sweeps, their edge values, and the layers that use
// them: GeLU and the attention softmax, including a causal mask's -1e9 lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/nn/activations.h"
#include "src/tensor/tensor.h"
#include "src/tensor/tensor_ops.h"
#include "src/tensor/vec_math.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

uint32_t Bits(float f) {
  uint32_t b = 0;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

float FromBits(uint32_t b) {
  float f = 0.0F;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

// Distance from the float f to the exact value ref, in units of the float
// spacing at ref.
double UlpError(float f, double ref) {
  const float r = static_cast<float>(ref);
  const double ulp = static_cast<double>(std::nextafter(std::fabs(r), kInf)) - std::fabs(r);
  return std::fabs(static_cast<double>(f) - ref) / ulp;
}

// Calls fn on a dense sample of [lo, hi] (lo, hi >= 0): every stride-th float
// bit pattern, which is dense near 0 and in every binade, plus a uniform grid.
template <typename Fn>
void SweepNonNegative(float lo, float hi, const Fn& fn) {
  for (uint32_t b = Bits(lo); b <= Bits(hi); b += 1009) {
    fn(FromBits(b));
  }
  constexpr int kGrid = 1 << 20;
  for (int i = 0; i <= kGrid; ++i) {
    fn(lo + (hi - lo) * static_cast<float>(i) / kGrid);
  }
}

TEST(VecMath, TanhAbsErrorWithinBound) {
  double max_err = 0.0;
  float worst = 0.0F;
  SweepNonNegative(0.0F, 12.0F, [&](float x) {
    for (const float v : {x, -x}) {
      const double err = std::fabs(TanhF(v) - std::tanh(static_cast<double>(v)));
      if (err > max_err) {
        max_err = err;
        worst = v;
      }
    }
  });
  EXPECT_LE(max_err, 5e-7) << "worst x = " << worst;
}

TEST(VecMath, TanhSaturatesExactly) {
  for (float x = 9.0F; x < 1e30F; x = x * 1.37F + 0.01F) {
    ASSERT_EQ(TanhF(x), 1.0F) << x;
    ASSERT_EQ(TanhF(-x), -1.0F) << x;
  }
  EXPECT_EQ(TanhF(kInf), 1.0F);
  EXPECT_EQ(TanhF(-kInf), -1.0F);
  EXPECT_EQ(TanhF(0.0F), 0.0F);
  // Never outside [-1, 1], so 1 - tanh^2 (GeLU's derivative) stays >= 0.
  SweepNonNegative(0.0F, 12.0F, [](float x) { ASSERT_LE(TanhF(x), 1.0F) << x; });
}

TEST(VecMath, ExpWithinTwoUlpOnNegativeRange) {
  double max_ulp = 0.0;
  float worst = 0.0F;
  SweepNonNegative(0.0F, 87.0F, [&](float x) {
    const double ulp = UlpError(ExpF(-x), std::exp(-static_cast<double>(x)));
    if (ulp > max_ulp) {
      max_ulp = ulp;
      worst = -x;
    }
  });
  EXPECT_LE(max_ulp, 2.0) << "worst x = " << worst;
  EXPECT_EQ(ExpF(0.0F), 1.0F);
}

TEST(VecMath, ExpWithinTwoUlpOnPositiveRange) {
  double max_ulp = 0.0;
  float worst = 0.0F;
  SweepNonNegative(0.0F, kExpHi, [&](float x) {
    const double ulp = UlpError(ExpF(x), std::exp(static_cast<double>(x)));
    if (ulp > max_ulp) {
      max_ulp = ulp;
      worst = x;
    }
  });
  EXPECT_LE(max_ulp, 2.0) << "worst x = " << worst;
  EXPECT_EQ(ExpF(std::nextafter(kExpHi, kInf)), kInf);
  EXPECT_EQ(ExpF(kInf), kInf);
}

TEST(VecMath, ExpIsZeroBelowCutoffAndNeverSubnormal) {
  EXPECT_EQ(ExpF(-1e9F), 0.0F);
  EXPECT_EQ(ExpF(-kInf), 0.0F);
  EXPECT_EQ(ExpF(std::nextafter(kExpLo, -kInf)), 0.0F);
  EXPECT_GE(ExpF(kExpLo), std::numeric_limits<float>::min());
  // Every float around the cutoff gives 0 or a normal value.
  for (uint32_t b = Bits(-87.0F); b <= Bits(-89.0F); ++b) {
    const float y = ExpF(FromBits(b));
    ASSERT_NE(std::fpclassify(y), FP_SUBNORMAL) << FromBits(b);
  }
}

TEST(VecMath, NaNPropagates) {
  EXPECT_TRUE(std::isnan(TanhF(kNaN)));
  EXPECT_TRUE(std::isnan(TanhF(-kNaN)));
  EXPECT_TRUE(std::isnan(ExpF(kNaN)));
  EXPECT_TRUE(std::isnan(ExpF(-kNaN)));
}

TEST(VecMath, GeLUPropagatesNaN) {
  GeLU gelu("gelu");
  gelu.SetTraining(true);
  Tensor x = Tensor::FromVector({1, 4}, {0.5F, kNaN, -2.0F, 12.0F});
  Tensor y = gelu.Forward(x);
  EXPECT_FALSE(std::isnan(y.Data()[0]));
  EXPECT_TRUE(std::isnan(y.Data()[1]));
  EXPECT_FALSE(std::isnan(y.Data()[2]));
  EXPECT_EQ(y.Data()[3], 12.0F);  // tanh saturates: 0.5 * x * 2
  Tensor dx = gelu.Backward(Tensor::FromVector({1, 4}, {1.0F, 1.0F, kNaN, 1.0F}));
  EXPECT_FALSE(std::isnan(dx.Data()[0]));
  EXPECT_TRUE(std::isnan(dx.Data()[1]));
  EXPECT_TRUE(std::isnan(dx.Data()[2]));
  EXPECT_EQ(dx.Data()[3], 1.0F);
}

TEST(VecMath, GeLUMatchesDoubleReference) {
  Rng rng(21);
  GeLU gelu("gelu");
  gelu.SetTraining(true);
  Tensor x = Tensor::Randn({16, 10, 64}, rng, 3.0F);
  Tensor dy = Tensor::Randn(x.Shape(), rng);
  Tensor y = gelu.Forward(x);
  Tensor dx = gelu.Backward(dy);
  const double c = std::sqrt(2.0 / M_PI);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    const double v = x.Data()[i];
    const double t = std::tanh(c * (v + 0.044715 * v * v * v));
    const double d = 0.5 * (1.0 + t) +
                     0.5 * v * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * v * v);
    ASSERT_NEAR(y.Data()[i], 0.5 * v * (1.0 + t), 1e-6 * (1.0 + std::fabs(v))) << v;
    ASSERT_NEAR(dx.Data()[i], dy.Data()[i] * d, 2e-6 * (1.0 + std::fabs(dy.Data()[i]))) << v;
  }
}

TEST(VecMath, SoftmaxPropagatesNaNWithinItsRow) {
  Tensor x = Tensor::FromVector({2, 3}, {1.0F, kNaN, 2.0F, 0.5F, 1.5F, -1.0F});
  Tensor s = Softmax(x);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isnan(s.At(0, j))) << j;
    EXPECT_FALSE(std::isnan(s.At(1, j))) << j;
  }
}

// The causal mask in MultiHeadAttention::Forward writes -1e9 above the
// diagonal. Those lanes must come out exactly 0 and nothing may be subnormal:
// exp of a shifted -1e9 that only clamped would return subnormals, whose every
// later use costs a microcode assist.
TEST(VecMath, CausallyMaskedSoftmaxHasExactZerosAndNoSubnormals) {
  Rng rng(22);
  const int64_t bh = 64;
  const int64_t t = 10;
  Tensor scores = Tensor::Randn({bh, t, t}, rng, 4.0F);
  float* s = scores.Data();
  for (int64_t m = 0; m < bh; ++m) {
    for (int64_t i = 0; i < t; ++i) {
      for (int64_t j = i + 1; j < t; ++j) {
        s[(m * t + i) * t + j] = -1e9F;
      }
    }
  }
  Tensor p = Softmax(scores);
  for (int64_t m = 0; m < bh; ++m) {
    for (int64_t i = 0; i < t; ++i) {
      double sum = 0.0;
      for (int64_t j = 0; j < t; ++j) {
        const float v = p.Data()[(m * t + i) * t + j];
        ASSERT_NE(std::fpclassify(v), FP_SUBNORMAL) << m << "," << i << "," << j;
        if (j > i) {
          ASSERT_EQ(v, 0.0F) << m << "," << i << "," << j;
        }
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0, 1e-6);
    }
  }
}

TEST(VecMath, SoftmaxMatchesDoubleReference) {
  Rng rng(23);
  Tensor x = Tensor::Randn({16, 4, 10, 10}, rng, 5.0F);
  Tensor p = Softmax(x);
  const int64_t n = 10;
  for (int64_t r = 0; r < x.NumEl() / n; ++r) {
    const float* row = x.Data() + r * n;
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) {
      mx = std::max(mx, row[j]);
    }
    // The shift is a float subtraction in the kernel too; only exp, the sum
    // and the scaling are measured here.
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      sum += std::exp(static_cast<double>(row[j] - mx));
    }
    for (int64_t j = 0; j < n; ++j) {
      const double ref = std::exp(static_cast<double>(row[j] - mx)) / sum;
      ASSERT_NEAR(p.Data()[r * n + j], ref, 5e-7 * ref + 1e-37) << r << "," << j;
    }
  }
}

}  // namespace
}  // namespace egeria
