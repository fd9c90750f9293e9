// Vectorizable float math for the elementwise kernels, plus the fixed-lane
// double reductions of the normalization layers.
//
// Everything here is plain inline C++ with no libm call and no intrinsic, so
// gcc vectorizes it inside `#pragma omp simd` loops on native and portable
// builds alike. libm's tanhf/expf are scalar calls, and a loop that calls
// them does not vectorize. The error bounds are pinned by
// tests/vec_math_test.cc; src/tensor/README.md ("Transcendentals") explains
// the choices.
#ifndef EGERIA_SRC_TENSOR_VEC_MATH_H_
#define EGERIA_SRC_TENSOR_VEC_MATH_H_

#include <cstdint>
#include <cstring>
#include <limits>

namespace egeria {

// c ? a : b as bit operations. A ?: on floats becomes a branch, and gcc then
// specializes the code after it (the clamped input is a constant on one path)
// so the float arithmetic ends up on a conditional path; without AVX-512 mask
// registers such a loop does not vectorize. The masks keep every loop below
// straight-line code.
inline float SelectF(bool c, float a, float b) {
  const uint32_t mask = 0U - static_cast<uint32_t>(c);
  uint32_t ab = 0;
  uint32_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  const uint32_t rb = (ab & mask) | (bb & ~mask);
  float r = 0.0F;
  std::memcpy(&r, &rb, sizeof(r));
  return r;
}

// tanh(x) as a degree-13/6 odd/even rational function on [-9, 9]. Absolute
// error at most 5e-7 against double tanh; the result is clamped to [-1, 1],
// so it is exactly +-1 for |x| >= 9. NaN propagates.
inline float TanhF(float x) {
  constexpr float kClamp = 9.0F;
  // A NaN input fails both comparisons and falls through to the polynomials.
  float xc = SelectF(x < -kClamp, -kClamp, x);
  xc = SelectF(xc > kClamp, kClamp, xc);
  const float x2 = xc * xc;
  float p = -2.76076847742355e-16F;
  p = p * x2 + 2.00018790482477e-13F;
  p = p * x2 + -8.60467152213735e-11F;
  p = p * x2 + 5.12229709037114e-08F;
  p = p * x2 + 1.48572235717979e-05F;
  p = p * x2 + 6.37261928875436e-04F;
  p = p * x2 + 4.89352455891786e-03F;
  p = p * xc;
  float q = 1.19825839466702e-06F;
  q = q * x2 + 1.18534705686654e-04F;
  q = q * x2 + 2.26843463243900e-03F;
  q = q * x2 + 4.89352518554385e-03F;
  float y = p / q;
  y = SelectF(y < -1.0F, -1.0F, y);
  return SelectF(y > 1.0F, 1.0F, y);
}

// Below kExpLo, exp(x) is under FLT_MIN: ExpF returns exactly 0 there rather
// than a subnormal (the causal mask's -1e9 scores would otherwise produce
// subnormals, which cost a microcode assist per operation). kExpLo is the
// smallest float whose exp is a normal float, -126 ln 2 rounded up.
constexpr float kExpLo = -87.336540222167969F;
// Above kExpHi, 127.5 ln 2 rounded down, n would reach 128 and the 2^n scale
// below would overflow: ExpF returns +inf there, a little before the true
// overflow point (88.72).
constexpr float kExpHi = 88.376258850097656F;

// exp(x): Cody-Waite reduction x = n ln2 + r with |r| <= ln2 / 2, Cephes
// expf's polynomial for exp(r) (1 + r + r^2 times a degree-5 polynomial), then
// a scale by 2^n built in the exponent bits.
// Within 2 ulp of double exp on [-87, 0]; exactly 0 below kExpLo (and for
// -inf); NaN propagates.
inline float ExpF(float x) {
  constexpr float kLog2e = 1.44269504088896341F;
  constexpr float kLn2Hi = 0.693359375F;  // few mantissa bits: n * kLn2Hi is exact
  constexpr float kLn2Lo = -2.12194440e-4F;
  // Adding 1.5 * 2^23 rounds to the nearest integer (floorf would not
  // vectorize without -fno-trapping-math), and leaves n in the low mantissa
  // bits of the sum for any |n| < 2^22.
  constexpr float kShift = 12582912.0F;
  constexpr uint32_t kShiftBits = 0x4B400000U;
  float xc = SelectF(x < kExpLo, kExpLo, x);
  xc = SelectF(xc > kExpHi, kExpHi, xc);
  const float t = xc * kLog2e + kShift;
  const float n = t - kShift;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = 1.9875691500e-4F;
  p = p * r + 1.3981999507e-3F;
  p = p * r + 8.3334519073e-3F;
  p = p * r + 4.1665795894e-2F;
  p = p * r + 1.6666665459e-1F;
  p = p * r + 5.0000001201e-1F;
  p = p * r * r + r + 1.0F;
  // 2^n from the bits of t rather than a float-to-int conversion, which is
  // undefined for a NaN input. Unsigned arithmetic wraps, so NaN bits are
  // harmless: p is NaN then anyway.
  uint32_t bits = 0;
  std::memcpy(&bits, &t, sizeof(bits));
  bits = (bits - kShiftBits + 127U) << 23;
  float scale = 0.0F;
  std::memcpy(&scale, &bits, sizeof(scale));
  const float y = SelectF(x < kExpLo, 0.0F, p * scale);
  return SelectF(x > kExpHi, std::numeric_limits<float>::infinity(), y);
}

// Fixed-lane double sums. The sums below read `planes` runs of n floats, run p
// starting at x + p * stride, and add them in double into kLanes partial sums:
// element i of a run goes to lane i % kLanes. The lanes are folded in one fixed
// order at the end. The order of every addition therefore depends only on the
// shape, not on the vector width the compiler picks nor on the thread that
// runs the sum (an `omp simd reduction` would leave the order to the vector
// width).
constexpr int64_t kLanes = 8;

inline double FoldLanes(const double* acc) {
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

// Sum of x over the runs.
inline double SumF64(const float* x, int64_t planes, int64_t stride, int64_t n) {
  double acc[kLanes] = {};
  const int64_t body = n - n % kLanes;
  for (int64_t p = 0; p < planes; ++p) {
    const float* run = x + p * stride;
    for (int64_t i = 0; i < body; i += kLanes) {
#pragma omp simd
      for (int64_t l = 0; l < kLanes; ++l) {
        acc[l] += run[i + l];
      }
    }
    for (int64_t l = 0; l < n - body; ++l) {
      acc[l] += run[body + l];
    }
  }
  return FoldLanes(acc);
}

// Sum of (x - mean)^2 over the runs.
inline double SumSqDevF64(const float* x, int64_t planes, int64_t stride, int64_t n,
                          double mean) {
  double acc[kLanes] = {};
  const int64_t body = n - n % kLanes;
  for (int64_t p = 0; p < planes; ++p) {
    const float* run = x + p * stride;
    for (int64_t i = 0; i < body; i += kLanes) {
#pragma omp simd
      for (int64_t l = 0; l < kLanes; ++l) {
        const double d = run[i + l] - mean;
        acc[l] += d * d;
      }
    }
    for (int64_t l = 0; l < n - body; ++l) {
      const double d = run[body + l] - mean;
      acc[l] += d * d;
    }
  }
  return FoldLanes(acc);
}

}  // namespace egeria

#endif  // EGERIA_SRC_TENSOR_VEC_MATH_H_
