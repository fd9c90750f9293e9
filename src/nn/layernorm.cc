#include "src/nn/layernorm.h"

#include <cmath>

#include "src/tensor/vec_math.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

// Sums of dy * gamma and of dy * gamma * xhat over one row of n elements, in
// one pass over vec_math.h's fixed double lanes (dy * gamma is exact in
// double).
void SumDygAndDygXhatF64(const float* dy, const float* gamma, const float* xhat, int64_t n,
                         double* sum_dyg, double* sum_dyg_xhat) {
  double acc_dyg[kLanes] = {};
  double acc_dygx[kLanes] = {};
  const int64_t body = n - n % kLanes;
  for (int64_t i = 0; i < body; i += kLanes) {
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) {
      const double dyg = static_cast<double>(dy[i + l]) * gamma[i + l];
      acc_dyg[l] += dyg;
      acc_dygx[l] += dyg * xhat[i + l];
    }
  }
  for (int64_t l = 0; l < n - body; ++l) {
    const double dyg = static_cast<double>(dy[body + l]) * gamma[body + l];
    acc_dyg[l] += dyg;
    acc_dygx[l] += dyg * xhat[body + l];
  }
  *sum_dyg = FoldLanes(acc_dyg);
  *sum_dyg_xhat = FoldLanes(acc_dygx);
}

}  // namespace

LayerNorm::LayerNorm(std::string name, int64_t dim, float eps)
    : Module(std::move(name)), dim_(dim), eps_(eps) {
  gamma_ = Parameter(name_ + ".gamma", Tensor::Ones({dim}));
  beta_ = Parameter(name_ + ".beta", Tensor::Zeros({dim}));
}

Tensor LayerNorm::Forward(const Tensor& input) {
  EGERIA_CHECK_MSG(input.Size(-1) == dim_, name_ + ": dim mismatch");
  const int64_t rows = input.NumEl() / dim_;
  // Every element of out and of both caches is written below.
  Tensor out = Tensor::Uninitialized(input.Shape());
  cached_xhat_ = Tensor::Uninitialized(input.Shape());
  cached_inv_std_ = Tensor::Uninitialized({rows});
  const float* gp = gamma_.value.Data();
  const float* bp = beta_.value.Data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* x = input.Data() + r * dim_;
    float* xh = cached_xhat_.Data() + r * dim_;
    float* y = out.Data() + r * dim_;
    const double mean = SumF64(x, 1, dim_, dim_) / static_cast<double>(dim_);
    const double var = SumSqDevF64(x, 1, dim_, dim_, mean) / static_cast<double>(dim_);
    const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps_);
    cached_inv_std_.At(r) = inv_std;
    const float mean_f = static_cast<float>(mean);
#pragma omp simd
    for (int64_t i = 0; i < dim_; ++i) {
      const float xhat = (x[i] - mean_f) * inv_std;
      xh[i] = xhat;
      y[i] = gp[i] * xhat + bp[i];
    }
  }
  return out;
}

Tensor LayerNorm::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_xhat_.Defined(), name_ + ": Backward without Forward");
  const int64_t rows = grad_output.NumEl() / dim_;
  EGERIA_CHECK(rows == cached_inv_std_.NumEl());
  // Every element is written below.
  Tensor grad_in = Tensor::Uninitialized(grad_output.Shape());
  const float* gp = gamma_.value.Data();
  float* dg = gamma_.grad.Data();
  float* db = beta_.grad.Data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* dy = grad_output.Data() + r * dim_;
    const float* xh = cached_xhat_.Data() + r * dim_;
    float* dx = grad_in.Data() + r * dim_;
    const float inv_std = cached_inv_std_.At(r);
    double sum_dyg = 0.0;
    double sum_dyg_xhat = 0.0;
    SumDygAndDygXhatF64(dy, gp, xh, dim_, &sum_dyg, &sum_dyg_xhat);
#pragma omp simd
    for (int64_t i = 0; i < dim_; ++i) {
      dg[i] += dy[i] * xh[i];
      db[i] += dy[i];
    }
    const float mean_dyg = static_cast<float>(sum_dyg / static_cast<double>(dim_));
    const float mean_dyg_xhat = static_cast<float>(sum_dyg_xhat / static_cast<double>(dim_));
#pragma omp simd
    for (int64_t i = 0; i < dim_; ++i) {
      dx[i] = inv_std * (dy[i] * gp[i] - mean_dyg - xh[i] * mean_dyg_xhat);
    }
  }
  return grad_in;
}

std::vector<Parameter*> LayerNorm::LocalParams() { return {&gamma_, &beta_}; }

std::unique_ptr<Module> LayerNorm::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;
  auto clone = std::make_unique<LayerNorm>(name_, dim_, eps_);
  clone->gamma_.value = gamma_.value.Clone();
  clone->beta_.value = beta_.value.Clone();
  clone->SetTraining(false);
  return clone;
}

}  // namespace egeria
