// Kernels outside the GEMM: BatchNorm2d's vectorized, channel-parallel
// reductions, LayerNorm's fixed-lane row sums, and the im2col-free pointwise
// convolution.
//
// BatchNorm2d is checked against a double-precision reference in both of its
// modes, LayerNorm in its one, and BatchNorm2d is pinned bitwise across
// compute-pool widths 1-4 (each width runs in a child process, since the pool
// width is fixed for a process lifetime). The
// pointwise Conv2d is pinned bitwise against the explicit Im2Col -> Gemm ->
// Col2Im lowering it replaces, and must leave its input untouched, because its
// cached columns alias that input.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/nn/batchnorm.h"
#include "src/nn/conv2d.h"
#include "src/nn/layernorm.h"
#include "src/tensor/compute_pool.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {
namespace {

void ExpectBitwiseEqual(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.Shape(), want.Shape()) << what;
  EXPECT_EQ(std::memcmp(got.Data(), want.Data(), sizeof(float) * got.NumEl()), 0) << what;
}

// Fills a parameter with values away from its initial ones, so that gamma and
// beta take part in the arithmetic.
void Randomize(Tensor& t, Rng& rng, float offset) {
  for (int64_t i = 0; i < t.NumEl(); ++i) {
    t.Data()[i] = offset + 0.5F * rng.NextGaussian();
  }
}

// ------------------------------------------------------ BatchNorm2d reference

struct BnCase {
  int64_t channels;
  int64_t h;
  int64_t w;
  bool batch_stats;
};

class BatchNormReferenceTest : public ::testing::TestWithParam<BnCase> {};

// Forward (out, running mean/var) and backward (dx, dgamma, dbeta) against the
// same formulas evaluated in double.
TEST_P(BatchNormReferenceTest, MatchesDoubleReference) {
  const BnCase p = GetParam();
  const int64_t b = 3;
  const int64_t c = p.channels;
  const int64_t hw = p.h * p.w;
  const int64_t count = b * hw;
  const float momentum = 0.1F;
  const float eps = 1e-5F;
  Rng rng(static_cast<uint64_t>(100 + c * 1000 + hw));
  BatchNorm2d bn("bn", c, momentum, eps);
  Randomize(bn.LocalParams()[0]->value, rng, 1.0F);
  Randomize(bn.LocalParams()[1]->value, rng, 0.0F);
  // Non-trivial running statistics, from earlier batches.
  for (int i = 0; i < 2; ++i) {
    bn.Forward(Tensor::Randn({b, c, p.h, p.w}, rng, 2.0F));
  }
  if (!p.batch_stats) {
    bn.SetFrozen(true);
  }
  bn.ZeroGrad();
  const std::vector<float> rmean0(bn.running_mean().Data(), bn.running_mean().Data() + c);
  const std::vector<float> rvar0(bn.running_var().Data(), bn.running_var().Data() + c);
  const std::vector<float> gamma(bn.LocalParams()[0]->value.Data(),
                                 bn.LocalParams()[0]->value.Data() + c);
  const std::vector<float> beta(bn.LocalParams()[1]->value.Data(),
                                bn.LocalParams()[1]->value.Data() + c);

  Tensor x = Tensor::Randn({b, c, p.h, p.w}, rng, 2.0F);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    x.Data()[i] += 0.75F;  // A mean far from zero exercises the centred variance.
  }
  Tensor dy = Tensor::Randn({b, c, p.h, p.w}, rng);
  Tensor out = bn.Forward(x);
  Tensor dx = bn.Backward(dy);

  const auto at = [&](const Tensor& t, int64_t bi, int64_t ci, int64_t i) {
    return static_cast<double>(t.Data()[(bi * c + ci) * hw + i]);
  };
  for (int64_t ci = 0; ci < c; ++ci) {
    double mean = 0.0;
    double var = 0.0;
    if (p.batch_stats) {
      for (int64_t bi = 0; bi < b; ++bi) {
        for (int64_t i = 0; i < hw; ++i) {
          mean += at(x, bi, ci, i);
        }
      }
      mean /= static_cast<double>(count);
      for (int64_t bi = 0; bi < b; ++bi) {
        for (int64_t i = 0; i < hw; ++i) {
          var += (at(x, bi, ci, i) - mean) * (at(x, bi, ci, i) - mean);
        }
      }
      var /= static_cast<double>(count);
      EXPECT_NEAR(bn.running_mean().Data()[ci], (1.0 - momentum) * rmean0[ci] + momentum * mean,
                  1e-5 * (1.0 + std::abs(mean)));
      EXPECT_NEAR(bn.running_var().Data()[ci], (1.0 - momentum) * rvar0[ci] + momentum * var,
                  1e-5 * (1.0 + var));
    } else {
      mean = rmean0[ci];
      var = rvar0[ci];
      EXPECT_EQ(bn.running_mean().Data()[ci], rmean0[ci]);
      EXPECT_EQ(bn.running_var().Data()[ci], rvar0[ci]);
    }
    const double inv_std = 1.0 / std::sqrt(var + eps);
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    for (int64_t bi = 0; bi < b; ++bi) {
      for (int64_t i = 0; i < hw; ++i) {
        const double xhat = (at(x, bi, ci, i) - mean) * inv_std;
        EXPECT_NEAR(at(out, bi, ci, i), gamma[ci] * xhat + beta[ci],
                    1e-5 * (1.0 + std::abs(gamma[ci] * xhat)));
        sum_dy += at(dy, bi, ci, i);
        sum_dy_xhat += at(dy, bi, ci, i) * xhat;
      }
    }
    EXPECT_NEAR(bn.LocalParams()[1]->grad.Data()[ci], sum_dy, 1e-4 * (1.0 + std::abs(sum_dy)));
    EXPECT_NEAR(bn.LocalParams()[0]->grad.Data()[ci], sum_dy_xhat,
                1e-4 * (1.0 + std::abs(sum_dy_xhat)));
    for (int64_t bi = 0; bi < b; ++bi) {
      for (int64_t i = 0; i < hw; ++i) {
        const double xhat = (at(x, bi, ci, i) - mean) * inv_std;
        const double want =
            p.batch_stats ? gamma[ci] * inv_std *
                                (at(dy, bi, ci, i) - sum_dy / count -
                                 xhat * sum_dy_xhat / count)
                          : gamma[ci] * inv_std * at(dy, bi, ci, i);
        EXPECT_NEAR(at(dx, bi, ci, i), want, 1e-4 * (1.0 + std::abs(gamma[ci] * inv_std)))
            << "c=" << ci << " b=" << bi << " i=" << i;
      }
    }
  }
}

std::vector<BnCase> BnCases() {
  std::vector<BnCase> cases;
  const int64_t sides[][2] = {{1, 1}, {2, 2}, {5, 5}, {16, 16}};  // hw 1, 4, 25, 256
  for (const int64_t channels : {1, 3, 33}) {
    for (const auto& side : sides) {
      for (const bool batch_stats : {true, false}) {
        cases.push_back({channels, side[0], side[1], batch_stats});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, BatchNormReferenceTest, ::testing::ValuesIn(BnCases()),
                         [](const ::testing::TestParamInfo<BnCase>& info) {
                           return "c" + std::to_string(info.param.channels) + "_hw" +
                                  std::to_string(info.param.h * info.param.w) +
                                  (info.param.batch_stats ? "_batch" : "_running");
                         });

// -------------------------------------------------------- LayerNorm reference

class LayerNormReferenceTest : public ::testing::TestWithParam<int64_t> {};

// Forward (out) and backward (dx, dgamma, dbeta) against the same formulas
// evaluated in double, over dims below, at and above the 8-lane sums' width.
TEST_P(LayerNormReferenceTest, MatchesDoubleReference) {
  const int64_t d = GetParam();
  const int64_t rows = 2 * 5;
  const float eps = 1e-5F;
  Rng rng(static_cast<uint64_t>(300 + d));
  LayerNorm ln("ln", d, eps);
  Randomize(ln.LocalParams()[0]->value, rng, 1.0F);
  Randomize(ln.LocalParams()[1]->value, rng, 0.0F);
  ln.ZeroGrad();
  const float* gamma = ln.LocalParams()[0]->value.Data();
  const float* beta = ln.LocalParams()[1]->value.Data();

  Tensor x = Tensor::Randn({2, 5, d}, rng, 2.0F);
  for (int64_t i = 0; i < x.NumEl(); ++i) {
    x.Data()[i] += 0.75F;  // A mean far from zero exercises the centred variance.
  }
  Tensor dy = Tensor::Randn({2, 5, d}, rng);
  Tensor out = ln.Forward(x);
  Tensor dx = ln.Backward(dy);
  ASSERT_EQ(out.Shape(), x.Shape());
  ASSERT_EQ(dx.Shape(), x.Shape());

  std::vector<double> dgamma(static_cast<size_t>(d), 0.0);
  std::vector<double> dbeta(static_cast<size_t>(d), 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x.Data() + r * d;
    const float* dyr = dy.Data() + r * d;
    double mean = 0.0;
    for (int64_t i = 0; i < d; ++i) {
      mean += xr[i];
    }
    mean /= static_cast<double>(d);
    double var = 0.0;
    for (int64_t i = 0; i < d; ++i) {
      var += (xr[i] - mean) * (xr[i] - mean);
    }
    var /= static_cast<double>(d);
    const double inv_std = 1.0 / std::sqrt(var + eps);
    double sum_dyg = 0.0;
    double sum_dyg_xhat = 0.0;
    for (int64_t i = 0; i < d; ++i) {
      const double xhat = (xr[i] - mean) * inv_std;
      EXPECT_NEAR(out.Data()[r * d + i], gamma[i] * xhat + beta[i],
                  1e-5 * (1.0 + std::abs(gamma[i] * xhat)))
          << "row " << r << " i " << i;
      sum_dyg += dyr[i] * static_cast<double>(gamma[i]);
      sum_dyg_xhat += dyr[i] * static_cast<double>(gamma[i]) * xhat;
      dgamma[static_cast<size_t>(i)] += dyr[i] * xhat;
      dbeta[static_cast<size_t>(i)] += dyr[i];
    }
    for (int64_t i = 0; i < d; ++i) {
      const double xhat = (xr[i] - mean) * inv_std;
      const double want =
          inv_std * (dyr[i] * gamma[i] - sum_dyg / d - xhat * sum_dyg_xhat / d);
      EXPECT_NEAR(dx.Data()[r * d + i], want, 1e-4 * (1.0 + std::abs(gamma[i] * inv_std)))
          << "row " << r << " i " << i;
    }
  }
  for (int64_t i = 0; i < d; ++i) {
    const double dg = dgamma[static_cast<size_t>(i)];
    const double db = dbeta[static_cast<size_t>(i)];
    EXPECT_NEAR(ln.LocalParams()[0]->grad.Data()[i], dg, 1e-4 * (1.0 + std::abs(dg))) << i;
    EXPECT_NEAR(ln.LocalParams()[1]->grad.Data()[i], db, 1e-4 * (1.0 + std::abs(db))) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LayerNormReferenceTest, ::testing::Values(1, 7, 8, 32, 33, 64),
                         [](const ::testing::TestParamInfo<int64_t>& info) {
                           return "d" + std::to_string(info.param);
                         });

// --------------------------------------------- BatchNorm2d across pool widths

uint64_t HashBytes(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashTensor(uint64_t h, const Tensor& t) {
  return HashBytes(h, t.Data(), sizeof(float) * static_cast<size_t>(t.NumEl()));
}

// Not a check on its own: prints a hash of BatchNorm2d's outputs and gradients
// in both modes, on shapes large enough to spread channels over the pool. The
// test below runs it at several pool widths.
TEST(BatchNormPoolWidthChild, EmitResultHash) {
  const int64_t shapes[][4] = {{16, 16, 16, 16}, {8, 64, 8, 8}, {4, 33, 5, 5}};
  uint64_t h = 1469598103934665603ULL;
  Rng rng(77);
  for (const auto& s : shapes) {
    BatchNorm2d bn("bn", s[1]);
    Randomize(bn.LocalParams()[0]->value, rng, 1.0F);
    Randomize(bn.LocalParams()[1]->value, rng, 0.0F);
    for (const bool frozen : {false, true}) {
      bn.SetFrozen(frozen);
      bn.ZeroGrad();
      Tensor x = Tensor::Randn({s[0], s[1], s[2], s[3]}, rng, 2.0F);
      Tensor dy = Tensor::Randn({s[0], s[1], s[2], s[3]}, rng);
      h = HashTensor(h, bn.Forward(x));
      h = HashTensor(h, bn.Backward(dy));
      h = HashTensor(h, bn.LocalParams()[0]->grad);
      h = HashTensor(h, bn.LocalParams()[1]->grad);
      h = HashTensor(h, bn.running_mean());
      h = HashTensor(h, bn.running_var());
    }
  }
  std::printf("BN_HASH=%016llx threads=%d\n", static_cast<unsigned long long>(h),
              ComputePoolThreads());
}

TEST(BatchNormPoolWidth, Widths1To4AgreeBitwise) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (len <= 0) {
    GTEST_SKIP() << "could not resolve /proc/self/exe";
  }
  self[len] = '\0';
  std::vector<std::string> hashes;
  for (int threads = 1; threads <= 4; ++threads) {
    char cmd[4608];
    std::snprintf(cmd, sizeof(cmd),
                  "EGERIA_NUM_THREADS=%d '%s' "
                  "--gtest_filter=BatchNormPoolWidthChild.EmitResultHash 2>/dev/null",
                  threads, self);
    FILE* pipe = popen(cmd, "r");
    if (pipe == nullptr) {
      GTEST_SKIP() << "could not re-exec self to vary EGERIA_NUM_THREADS";
    }
    std::string hash;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
      if (std::strncmp(line, "BN_HASH=", 8) == 0) {
        hash.assign(line + 8, 16);
        EXPECT_NE(std::strstr(line, (" threads=" + std::to_string(threads)).c_str()),
                  nullptr)
            << line;
      }
    }
    pclose(pipe);
    if (hash.empty()) {
      GTEST_SKIP() << "could not re-exec self to vary EGERIA_NUM_THREADS";
    }
    hashes.push_back(hash);
  }
  for (size_t i = 1; i < hashes.size(); ++i) {
    EXPECT_EQ(hashes[i], hashes[0]) << "pool width " << i + 1 << " vs width 1";
  }
}

// ------------------------------------------------------- pointwise Conv2d

struct ConvRun {
  Tensor out;
  Tensor dx;
  Tensor dw;
  Tensor db;
};

// Conv2d's lowering spelled out: Im2Col, one Gemm per item, bias; W^T GEMMs
// into column gradients, Col2Im; dW summed per chunk of items and folded in
// chunk order, as Conv2d::Backward does.
ConvRun ExplicitConv(const Tensor& x, const Tensor& w, const Tensor& bias, const Tensor& dy,
                     const ConvGeom& g) {
  const int64_t b = x.Size(0);
  const int64_t c = x.Size(1);
  const int64_t oc = w.Size(0);
  const int64_t ohow = g.OutH(x.Size(2)) * g.OutW(x.Size(3));
  Tensor cols = Im2Col(x, g);
  const int64_t ckk = cols.Size(1);
  ConvRun r;
  r.out = Tensor({b, oc, g.OutH(x.Size(2)), g.OutW(x.Size(3))});
  Tensor dcols({b, ckk, ohow});
  for (int64_t bi = 0; bi < b; ++bi) {
    float* o = r.out.Data() + bi * oc * ohow;
    Gemm(w.Data(), cols.Data() + bi * ckk * ohow, o, oc, ckk, ohow, false, false, false);
    for (int64_t oci = 0; oci < oc; ++oci) {
      for (int64_t i = 0; i < ohow; ++i) {
        o[oci * ohow + i] += bias.Data()[oci];
      }
    }
    Gemm(w.Data(), dy.Data() + bi * oc * ohow, dcols.Data() + bi * ckk * ohow, ckk, oc, ohow,
         true, false, false);
  }
  r.dx = Col2Im(dcols, g, c, x.Size(2), x.Size(3));
  const int64_t nchunks = std::min<int64_t>(ComputePoolThreads(), b);
  const int64_t chunk = (b + nchunks - 1) / nchunks;
  r.dw = Tensor({oc, ckk});
  r.db = Tensor({oc});
  for (int64_t ci = 0; ci < nchunks; ++ci) {
    Tensor part({oc, ckk});
    std::vector<double> dbp(static_cast<size_t>(oc), 0.0);
    for (int64_t bi = ci * chunk; bi < std::min(b, (ci + 1) * chunk); ++bi) {
      const float* dyb = dy.Data() + bi * oc * ohow;
      Gemm(dyb, cols.Data() + bi * ckk * ohow, part.Data(), oc, ohow, ckk, false, true,
           bi != ci * chunk);
      for (int64_t oci = 0; oci < oc; ++oci) {
        double s = 0.0;
        for (int64_t i = 0; i < ohow; ++i) {
          s += dyb[oci * ohow + i];
        }
        dbp[static_cast<size_t>(oci)] += s;
      }
    }
    for (int64_t i = 0; i < oc * ckk; ++i) {
      r.dw.Data()[i] += part.Data()[i];
    }
    for (int64_t oci = 0; oci < oc; ++oci) {
      r.db.Data()[oci] += static_cast<float>(dbp[static_cast<size_t>(oci)]);
    }
  }
  return r;
}

TEST(PointwiseConv, GeometryPredicate) {
  Rng rng(1);
  EXPECT_TRUE(IsPointwise(Conv2d("c", 2, 2, 1, rng, 1, 0).geom()));
  EXPECT_FALSE(IsPointwise(Conv2d("c", 2, 2, 1, rng, 2, 0).geom()));  // strided
  EXPECT_FALSE(IsPointwise(Conv2d("c", 2, 2, 1, rng, 1, 1).geom()));  // padded
  EXPECT_FALSE(IsPointwise(Conv2d("c", 2, 2, 3, rng, 1, 1).geom()));  // 3x3
}

TEST(PointwiseConv, MatchesExplicitIm2ColPathBitwise) {
  // b = 5 items spread over uneven dW chunks at widths 2-4; 7x9 has a ragged
  // GEMM tail.
  for (const int64_t b : {1, 5}) {
    Rng rng(static_cast<uint64_t>(30 + b));
    Conv2d conv("pw", 6, 10, 1, rng, /*stride=*/1, /*pad=*/0, /*dilation=*/1, /*bias=*/true);
    ASSERT_TRUE(IsPointwise(conv.geom()));
    Randomize(conv.mutable_bias().value, rng, 0.0F);
    conv.ZeroGrad();
    Tensor x = Tensor::Randn({b, 6, 7, 9}, rng);
    Tensor dy = Tensor::Randn({b, 10, 7, 9}, rng);
    Tensor out = conv.Forward(x);
    Tensor dx = conv.Backward(dy);
    const ConvRun want =
        ExplicitConv(x, conv.weight().value, conv.bias().value, dy, conv.geom());
    ExpectBitwiseEqual(out, want.out, "forward");
    ExpectBitwiseEqual(dx, want.dx, "dx");
    ExpectBitwiseEqual(conv.weight().grad, want.dw, "dW");
    ExpectBitwiseEqual(conv.bias().grad, want.db, "db");
  }
}

TEST(PointwiseConv, LeavesInputUntouched) {
  Rng rng(40);
  Conv2d conv("pw", 4, 8, 1, rng, 1, 0);
  Tensor x = Tensor::Randn({3, 4, 6, 6}, rng);
  const Tensor before = x.Clone();
  conv.Forward(x);
  ExpectBitwiseEqual(x, before, "input after Forward");
  conv.Backward(Tensor::Randn({3, 8, 6, 6}, rng));
  ExpectBitwiseEqual(x, before, "input after Backward");
  // An inference forward caches nothing and still matches the training one.
  conv.SetTraining(false);
  Tensor y_eval = conv.Forward(x);
  conv.SetTraining(true);
  ExpectBitwiseEqual(y_eval, conv.Forward(x), "eval vs training forward");
  ExpectBitwiseEqual(x, before, "input after eval Forward");
}

}  // namespace
}  // namespace egeria
