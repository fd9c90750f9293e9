#include "src/nn/conv2d.h"

#include <vector>

#include "src/nn/init.h"
#include "src/tensor/compute_pool.h"
#include "src/util/logging.h"

namespace egeria {

namespace {

ConvGeom MakeGeom(int64_t kernel, int64_t stride, int64_t pad, int64_t dilation) {
  ConvGeom g;
  g.kernel_h = kernel;
  g.kernel_w = kernel;
  g.stride = stride;
  g.pad = (pad >= 0) ? pad : dilation * (kernel - 1) / 2;
  g.dilation = dilation;
  return g;
}

}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
               Rng& rng, int64_t stride, int64_t pad, int64_t dilation, bool bias)
    : Module(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      geom_(MakeGeom(kernel, stride, pad, dilation)),
      has_bias_(bias) {
  const int64_t fan_in = in_channels * kernel * kernel;
  weight_ = Parameter(name_ + ".weight", KaimingNormal({out_channels, fan_in}, fan_in, rng));
  if (has_bias_) {
    bias_ = Parameter(name_ + ".bias", Tensor::Zeros({out_channels}));
  }
}

Tensor Conv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4);
  EGERIA_CHECK_MSG(input.Size(1) == in_channels_, name_ + ": in_channels mismatch");
  batch_ = input.Size(0);
  in_h_ = input.Size(2);
  in_w_ = input.Size(3);
  const int64_t oh = geom_.OutH(in_h_);
  const int64_t ow = geom_.OutW(in_w_);
  // [b, ckk, ohow]. A pointwise conv's columns are its input; Backward then
  // relies on the caller not mutating the input after Forward.
  Tensor cols = IsPointwise(geom_) ? input.Reshape({batch_, in_channels_, in_h_ * in_w_})
                                   : Im2Col(input, geom_);
  if (training_) {
    cached_cols_ = cols;
  }
  const int64_t ckk = cols.Size(1);
  const int64_t ohow = oh * ow;
  Tensor out = Tensor::Uninitialized({batch_, out_channels_, oh, ow});
  const float* wp = weight_.value.Data();
  const float* colp = cols.Data();
  const float* bp = has_bias_ ? bias_.value.Data() : nullptr;
  float* op = out.Data();
  const auto run_item = [&](int64_t b) {
    float* oplane = op + b * out_channels_ * ohow;
    Gemm(wp, colp + b * ckk * ohow, oplane, out_channels_, ckk, ohow,
         /*trans_a=*/false, /*trans_b=*/false, /*accumulate=*/false);
    if (bp != nullptr) {
      for (int64_t c = 0; c < out_channels_; ++c) {
        float* plane = oplane + c * ohow;
        for (int64_t i = 0; i < ohow; ++i) {
          plane[i] += bp[c];
        }
      }
    }
  };
  // Batch items are independent; with few items, let each GEMM parallelize over
  // its own row blocks instead.
  if (batch_ >= ComputePoolThreads()) {
    ParallelFor(batch_, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        run_item(b);
      }
    });
  } else {
    for (int64_t b = 0; b < batch_; ++b) {
      run_item(b);
    }
  }
  return out;
}

Tensor Conv2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_cols_.Defined(), name_ + ": Backward without Forward");
  const int64_t oh = geom_.OutH(in_h_);
  const int64_t ow = geom_.OutW(in_w_);
  const int64_t ohow = oh * ow;
  const int64_t ckk = cached_cols_.Size(1);
  EGERIA_CHECK(grad_output.Size(0) == batch_ && grad_output.Size(1) == out_channels_ &&
               grad_output.Size(2) == oh && grad_output.Size(3) == ow);

  Tensor dcols = Tensor::Uninitialized({batch_, ckk, ohow});
  const float* dyp = grad_output.Data();
  const float* colp = cached_cols_.Data();
  const float* wp = weight_.value.Data();
  float* dcolp = dcols.Data();

  // Input gradient: dcols_b = W^T [ckk,oc] * dy_b [oc,ohow] — disjoint per item.
  const auto run_dcols = [&](int64_t b) {
    Gemm(wp, dyp + b * out_channels_ * ohow, dcolp + b * ckk * ohow, ckk,
         out_channels_, ohow, /*trans_a=*/true, /*trans_b=*/false,
         /*accumulate=*/false);
  };
  if (batch_ >= ComputePoolThreads()) {
    ParallelFor(batch_, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t b = lo; b < hi; ++b) {
        run_dcols(b);
      }
    });
  } else {
    for (int64_t b = 0; b < batch_; ++b) {
      run_dcols(b);
    }
  }

  // Weight/bias gradients sum over the batch. Each chunk of items accumulates
  // into private scratch; scratches fold into the parameter grads in chunk order,
  // so results are identical across runs at a fixed thread count.
  const int64_t nchunks = std::min<int64_t>(ComputePoolThreads(), batch_);
  const int64_t chunk = (batch_ + nchunks - 1) / nchunks;
  const int64_t dw_size = out_channels_ * ckk;
  std::vector<float> dw_scratch(static_cast<size_t>(nchunks * dw_size), 0.0F);
  std::vector<double> db_scratch(
      has_bias_ ? static_cast<size_t>(nchunks * out_channels_) : 0, 0.0);
  ParallelFor(nchunks, 1, [&](int64_t c_lo, int64_t c_hi) {
    for (int64_t ci = c_lo; ci < c_hi; ++ci) {
      float* dw = dw_scratch.data() + ci * dw_size;
      const int64_t b_end = std::min(batch_, (ci + 1) * chunk);
      for (int64_t b = ci * chunk; b < b_end; ++b) {
        const float* dy = dyp + b * out_channels_ * ohow;
        // dW_ci += dy_b [oc,ohow] * cols_b^T [ohow,ckk]; the chunk's first item
        // overwrites the scratch instead of accumulating into its zero-fill.
        Gemm(dy, colp + b * ckk * ohow, dw, out_channels_, ohow, ckk,
             /*trans_a=*/false, /*trans_b=*/true, /*accumulate=*/b != ci * chunk);
        if (has_bias_) {
          double* db = db_scratch.data() + ci * out_channels_;
          for (int64_t c = 0; c < out_channels_; ++c) {
            const float* plane = dy + c * ohow;
            double s = 0.0;
            for (int64_t i = 0; i < ohow; ++i) {
              s += plane[i];
            }
            db[c] += s;
          }
        }
      }
    }
  });
  float* dw_out = weight_.grad.Data();
  for (int64_t ci = 0; ci < nchunks; ++ci) {
    const float* dw = dw_scratch.data() + ci * dw_size;
    for (int64_t i = 0; i < dw_size; ++i) {
      dw_out[i] += dw[i];
    }
  }
  if (has_bias_) {
    float* db_out = bias_.grad.Data();
    for (int64_t ci = 0; ci < nchunks; ++ci) {
      const double* db = db_scratch.data() + ci * out_channels_;
      for (int64_t c = 0; c < out_channels_; ++c) {
        db_out[c] += static_cast<float>(db[c]);
      }
    }
  }
  // A pointwise conv's column gradient already is its input gradient.
  return IsPointwise(geom_) ? dcols.Reshape({batch_, in_channels_, in_h_, in_w_})
                            : Col2Im(dcols, geom_, in_channels_, in_h_, in_w_);
}

std::vector<Parameter*> Conv2d::LocalParams() {
  std::vector<Parameter*> params{&weight_};
  if (has_bias_) {
    params.push_back(&bias_);
  }
  return params;
}

std::unique_ptr<Module> Conv2d::CloneForInference(const InferenceFactory& factory) const {
  return factory.MakeConv2d(*this);
}

DepthwiseConv2d::DepthwiseConv2d(std::string name, int64_t channels, int64_t kernel,
                                 Rng& rng, int64_t stride, int64_t pad)
    : Module(std::move(name)),
      channels_(channels),
      geom_(MakeGeom(kernel, stride, pad, /*dilation=*/1)) {
  const int64_t fan_in = kernel * kernel;
  weight_ = Parameter(name_ + ".weight", KaimingNormal({channels, fan_in}, fan_in, rng));
}

Tensor DepthwiseConv2d::Forward(const Tensor& input) {
  EGERIA_CHECK(input.Dim() == 4 && input.Size(1) == channels_);
  if (training_) {
    cached_input_ = input;
  }
  const int64_t b = input.Size(0);
  const int64_t h = input.Size(2);
  const int64_t w = input.Size(3);
  const int64_t oh = geom_.OutH(h);
  const int64_t ow = geom_.OutW(w);
  Tensor out({b, channels_, oh, ow});
  const int64_t k = geom_.kernel_h;
  // (batch, channel) planes are independent — shard the flattened pair index.
  ParallelFor(b * channels_, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t bc = lo; bc < hi; ++bc) {
      const int64_t bi = bc / channels_;
      const int64_t c = bc % channels_;
      const float* plane = input.Data() + (bi * channels_ + c) * h * w;
      const float* kern = weight_.value.Data() + c * k * k;
      float* oplane = out.Data() + (bi * channels_ + c) * oh * ow;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          float s = 0.0F;
          for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t iy = oy * geom_.stride - geom_.pad + ky;
            if (iy < 0 || iy >= h) {
              continue;
            }
            for (int64_t kx = 0; kx < k; ++kx) {
              const int64_t ix = ox * geom_.stride - geom_.pad + kx;
              if (ix < 0 || ix >= w) {
                continue;
              }
              s += kern[ky * k + kx] * plane[iy * w + ix];
            }
          }
          oplane[oy * ow + ox] = s;
        }
      }
    }
  });
  return out;
}

Tensor DepthwiseConv2d::Backward(const Tensor& grad_output) {
  EGERIA_CHECK_MSG(cached_input_.Defined(), name_ + ": Backward without Forward");
  const int64_t b = cached_input_.Size(0);
  const int64_t h = cached_input_.Size(2);
  const int64_t w = cached_input_.Size(3);
  const int64_t oh = geom_.OutH(h);
  const int64_t ow = geom_.OutW(w);
  const int64_t k = geom_.kernel_h;
  Tensor grad_in({b, channels_, h, w});
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t c = 0; c < channels_; ++c) {
      const float* plane = cached_input_.Data() + (bi * channels_ + c) * h * w;
      const float* gplane = grad_output.Data() + (bi * channels_ + c) * oh * ow;
      const float* kern = weight_.value.Data() + c * k * k;
      float* dkern = weight_.grad.Data() + c * k * k;
      float* iplane = grad_in.Data() + (bi * channels_ + c) * h * w;
      for (int64_t oy = 0; oy < oh; ++oy) {
        for (int64_t ox = 0; ox < ow; ++ox) {
          const float g = gplane[oy * ow + ox];
          if (g == 0.0F) {
            continue;
          }
          for (int64_t ky = 0; ky < k; ++ky) {
            const int64_t iy = oy * geom_.stride - geom_.pad + ky;
            if (iy < 0 || iy >= h) {
              continue;
            }
            for (int64_t kx = 0; kx < k; ++kx) {
              const int64_t ix = ox * geom_.stride - geom_.pad + kx;
              if (ix < 0 || ix >= w) {
                continue;
              }
              dkern[ky * k + kx] += g * plane[iy * w + ix];
              iplane[iy * w + ix] += g * kern[ky * k + kx];
            }
          }
        }
      }
    }
  }
  return grad_in;
}

std::vector<Parameter*> DepthwiseConv2d::LocalParams() { return {&weight_}; }

std::unique_ptr<Module> DepthwiseConv2d::CloneForInference(
    const InferenceFactory& factory) const {
  return factory.MakeDepthwiseConv2d(*this);
}

}  // namespace egeria
