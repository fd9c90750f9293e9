#include "src/nn/batchnorm.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/compute_pool.h"
#include "src/tensor/vec_math.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

// The per-channel sums are the fixed-lane double sums of vec_math.h: the
// order of every addition depends only on the shape, not on the vector width
// nor on the thread that runs the channel.

// Smallest number of elements worth handing to another pool thread.
constexpr int64_t kGrainElements = int64_t{1} << 14;

// Sums of dy and of dy * xhat over the runs, in one pass.
void SumDyAndDyXhatF64(const float* dy, const float* xhat, int64_t planes, int64_t stride,
                       int64_t n, double* sum_dy, double* sum_dy_xhat) {
  double acc_dy[kLanes] = {};
  double acc_dyx[kLanes] = {};
  const int64_t body = n - n % kLanes;
  for (int64_t p = 0; p < planes; ++p) {
    const float* dyr = dy + p * stride;
    const float* xr = xhat + p * stride;
    for (int64_t i = 0; i < body; i += kLanes) {
#pragma omp simd
      for (int64_t l = 0; l < kLanes; ++l) {
        acc_dy[l] += dyr[i + l];
        acc_dyx[l] += static_cast<double>(dyr[i + l]) * xr[i + l];
      }
    }
    for (int64_t l = 0; l < n - body; ++l) {
      acc_dy[l] += dyr[body + l];
      acc_dyx[l] += static_cast<double>(dyr[body + l]) * xr[body + l];
    }
  }
  *sum_dy = FoldLanes(acc_dy);
  *sum_dy_xhat = FoldLanes(acc_dyx);
}

// Channels per pool chunk: enough that a chunk holds kGrainElements, so small
// layers stay on the calling thread. Each channel's arithmetic is independent
// of the partition, so any grain gives the same bits.
int64_t ChannelGrain(int64_t channel_elements) {
  return (kGrainElements + channel_elements - 1) / std::max<int64_t>(channel_elements, 1);
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::string name, int64_t channels, float momentum, float eps)
    : Module(std::move(name)), channels_(channels), momentum_(momentum), eps_(eps) {
  gamma_ = Parameter(name_ + ".gamma", Tensor::Ones({channels}));
  beta_ = Parameter(name_ + ".beta", Tensor::Zeros({channels}));
  running_mean_ = Tensor::Zeros({channels});
  running_var_ = Tensor::Ones({channels});
}

Tensor BatchNorm2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == channels_);
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t hw = h * w;
  const int64_t count = b * hw;
  const int64_t stride = channels_ * hw;
  cached_b_ = b;
  cached_h_ = h;
  cached_w_ = w;

  // Every element of out, cached_xhat_ and cached_inv_std_ is written below.
  Tensor out = Tensor::Uninitialized(input.Shape());
  used_batch_stats_ = UseBatchStats();
  cached_inv_std_ = Tensor::Uninitialized({channels_});
  // xhat is still needed if Backward gets called on a running-stats forward.
  const bool keep_xhat = used_batch_stats_ || training_;
  if (keep_xhat) {
    cached_xhat_ = Tensor::Uninitialized(input.Shape());
  }

  const float* x = input.Data();
  float* op = out.Data();
  float* xh = keep_xhat ? cached_xhat_.Data() : nullptr;
  float* inv_stdp = cached_inv_std_.Data();
  float* rmean = running_mean_.Data();
  float* rvar = running_var_.Data();
  const float* gp = gamma_.value.Data();
  const float* bp = beta_.value.Data();

  const auto run_channel = [&](int64_t c) {
    const float g = gp[c];
    const float bt = bp[c];
    if (used_batch_stats_) {
      const double mean = SumF64(x + c * hw, b, stride, hw) / static_cast<double>(count);
      const double var =
          SumSqDevF64(x + c * hw, b, stride, hw, mean) / static_cast<double>(count);
      const float inv_std = 1.0F / std::sqrt(static_cast<float>(var) + eps_);
      inv_stdp[c] = inv_std;
      rmean[c] = (1.0F - momentum_) * rmean[c] + momentum_ * static_cast<float>(mean);
      rvar[c] = (1.0F - momentum_) * rvar[c] + momentum_ * static_cast<float>(var);
      const float mean_f = static_cast<float>(mean);
      for (int64_t bi = 0; bi < b; ++bi) {
        const int64_t off = bi * stride + c * hw;
        const float* plane = x + off;
        float* xplane = xh + off;
        float* oplane = op + off;
#pragma omp simd
        for (int64_t i = 0; i < hw; ++i) {
          const float xhat = (plane[i] - mean_f) * inv_std;
          xplane[i] = xhat;
          oplane[i] = g * xhat + bt;
        }
      }
      return;
    }
    // Inference / frozen path: running statistics. Output is a pure function of
    // the input, which makes frozen-prefix activations cacheable.
    const float mean = rmean[c];
    const float inv_std = 1.0F / std::sqrt(rvar[c] + eps_);
    inv_stdp[c] = inv_std;
    for (int64_t bi = 0; bi < b; ++bi) {
      const int64_t off = bi * stride + c * hw;
      const float* plane = x + off;
      float* oplane = op + off;
#pragma omp simd
      for (int64_t i = 0; i < hw; ++i) {
        oplane[i] = g * (plane[i] - mean) * inv_std + bt;
      }
      if (xh != nullptr) {
        float* xplane = xh + off;
#pragma omp simd
        for (int64_t i = 0; i < hw; ++i) {
          xplane[i] = (plane[i] - mean) * inv_std;
        }
      }
    }
  };
  ParallelFor(channels_, ChannelGrain(count), [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      run_channel(c);
    }
  });
  return out;
}

Tensor BatchNorm2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_xhat_.Defined(), name_ + ": Backward without Forward");
  EGERIA_CHECK(grad_output.NumEl() == cached_xhat_.NumEl());
  const int64_t b = cached_b_;
  const int64_t hw = cached_h_ * cached_w_;
  const int64_t count = b * hw;
  const int64_t stride = channels_ * hw;
  // Every element is written below.
  Tensor grad_in = Tensor::Uninitialized(grad_output.Shape());

  const float* dyp = grad_output.Data();
  const float* xhp = cached_xhat_.Data();
  float* dxp = grad_in.Data();
  const float* inv_stdp = cached_inv_std_.Data();
  const float* gp = gamma_.value.Data();
  float* dgamma = gamma_.grad.Data();
  float* dbeta = beta_.grad.Data();

  const auto run_channel = [&](int64_t c) {
    double sum_dy = 0.0;
    double sum_dy_xhat = 0.0;
    SumDyAndDyXhatF64(dyp + c * hw, xhp + c * hw, b, stride, hw, &sum_dy, &sum_dy_xhat);
    dgamma[c] += static_cast<float>(sum_dy_xhat);
    dbeta[c] += static_cast<float>(sum_dy);
    const float scale = gp[c] * inv_stdp[c];
    if (used_batch_stats_) {
      const float mean_dy = static_cast<float>(sum_dy / count);
      const float mean_dy_xhat = static_cast<float>(sum_dy_xhat / count);
      for (int64_t bi = 0; bi < b; ++bi) {
        const int64_t off = bi * stride + c * hw;
        const float* dy = dyp + off;
        const float* xh = xhp + off;
        float* dx = dxp + off;
#pragma omp simd
        for (int64_t i = 0; i < hw; ++i) {
          dx[i] = scale * (dy[i] - mean_dy - xh[i] * mean_dy_xhat);
        }
      }
      return;
    }
    // Running-stats path: the normalization constants are independent of the
    // batch, so the layer is a per-channel affine map.
    for (int64_t bi = 0; bi < b; ++bi) {
      const int64_t off = bi * stride + c * hw;
      const float* dy = dyp + off;
      float* dx = dxp + off;
#pragma omp simd
      for (int64_t i = 0; i < hw; ++i) {
        dx[i] = scale * dy[i];
      }
    }
  };
  ParallelFor(channels_, ChannelGrain(count), [&](int64_t lo, int64_t hi) {
    for (int64_t c = lo; c < hi; ++c) {
      run_channel(c);
    }
  });
  return grad_in;
}

std::vector<Parameter*> BatchNorm2d::LocalParams() { return {&gamma_, &beta_}; }

std::unique_ptr<Module> BatchNorm2d::CloneForInference(const InferenceFactory& factory) const {
  (void)factory;  // BatchNorm stays float in every reference precision.
  auto clone = std::make_unique<BatchNorm2d>(name_, channels_, momentum_, eps_);
  clone->gamma_.value = gamma_.value.Clone();
  clone->beta_.value = beta_.value.Clone();
  clone->running_mean_ = running_mean_.Clone();
  clone->running_var_ = running_var_.Clone();
  clone->SetTraining(false);
  return clone;
}

void BatchNorm2d::CopyStateFrom(const Module& other) {
  const auto* src = dynamic_cast<const BatchNorm2d*>(&other);
  EGERIA_CHECK_MSG(src != nullptr, name_ + ": CopyStateFrom type mismatch");
  gamma_.value = src->gamma_.value.Clone();
  beta_.value = src->beta_.value.Clone();
  running_mean_ = src->running_mean_.Clone();
  running_var_ = src->running_var_.Clone();
}

}  // namespace egeria
