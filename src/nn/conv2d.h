// 2-d convolution layers (NCHW), lowered to im2col + GEMM; a pointwise conv
// (IsPointwise) uses its input as the column matrix and skips im2col/col2im.
// DepthwiseConv2d is the per-channel variant used by MobileNetV2's inverted
// residual blocks.
#ifndef EGERIA_SRC_NN_CONV2D_H_
#define EGERIA_SRC_NN_CONV2D_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/rng.h"

namespace egeria {

class Conv2d : public Module {
 public:
  Conv2d(std::string name, int64_t in_channels, int64_t out_channels, int64_t kernel,
         Rng& rng, int64_t stride = 1, int64_t pad = -1 /* -1 => same for stride 1 */,
         int64_t dilation = 1, bool bias = false);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Parameter*> LocalParams() override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  const ConvGeom& geom() const { return geom_; }
  bool has_bias() const { return has_bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }
  Parameter& mutable_weight() { return weight_; }
  Parameter& mutable_bias() { return bias_; }

 private:
  int64_t in_channels_;
  int64_t out_channels_;
  ConvGeom geom_;
  bool has_bias_;
  Parameter weight_;  // [out_c, in_c*kh*kw] (GEMM layout)
  Parameter bias_;    // [out_c]
  Tensor cached_cols_;  // im2col of the last input (the input itself if pointwise)
  int64_t in_h_ = 0;
  int64_t in_w_ = 0;
  int64_t batch_ = 0;
};

// Depthwise 3x3-style convolution: each channel convolved with its own kernel.
class DepthwiseConv2d : public Module {
 public:
  DepthwiseConv2d(std::string name, int64_t channels, int64_t kernel, Rng& rng,
                  int64_t stride = 1, int64_t pad = -1);

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;

  std::vector<Parameter*> LocalParams() override;
  std::unique_ptr<Module> CloneForInference(const InferenceFactory& factory) const override;

  int64_t channels() const { return channels_; }
  const ConvGeom& geom() const { return geom_; }
  const Parameter& weight() const { return weight_; }
  Parameter& mutable_weight() { return weight_; }

 private:
  int64_t channels_;
  ConvGeom geom_;
  Parameter weight_;  // [c, kh*kw]
  Tensor cached_input_;
};

}  // namespace egeria

#endif  // EGERIA_SRC_NN_CONV2D_H_
