#include "nn/conv2d.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace dlion::nn {

Conv2D::Conv2D(std::string name, std::size_t in_channels,
               std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad, bool fuse_relu)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      fuse_relu_(fuse_relu),
      weight_(name + "/W",
              tensor::Shape{out_channels, in_channels * kernel * kernel}),
      bias_(name + "/b", tensor::Shape{out_channels}) {}

void Conv2D::init_weights(common::Rng& rng) {
  const double fan_in = static_cast<double>(in_c_ * k_ * k_);
  const double std = std::sqrt(2.0 / fan_in);
  for (auto& w : weight_.value().span()) {
    w = static_cast<float>(rng.normal(0.0, std));
  }
  bias_.value().fill(0.0f);
}

tensor::Tensor Conv2D::forward(const tensor::Tensor& input, bool /*train*/) {
  if (input.shape().rank() != 4 || input.shape()[1] != in_c_) {
    throw std::invalid_argument("Conv2D::forward: expected (N, " +
                                std::to_string(in_c_) + ", H, W), got " +
                                input.shape().to_string());
  }
  cached_input_ = input;
  const std::size_t n = input.shape()[0];
  const std::size_t h = input.shape()[2], w = input.shape()[3];
  const std::size_t oh = tensor::conv_out_dim(h, k_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, k_, stride_, pad_);
  const std::size_t col_rows = in_c_ * k_ * k_;
  const std::size_t col_cols = oh * ow;

  float* cols = cols_.ensure(n * col_rows * col_cols);
  tensor::Tensor out(tensor::Shape{n, out_c_, oh, ow});
  for (std::size_t i = 0; i < n; ++i) {
    float* col = cols + i * col_rows * col_cols;
    const float* img = input.data() + i * in_c_ * h * w;
    tensor::im2col(img, in_c_, h, w, k_, k_, stride_, pad_, col);
    // out_i (out_c x col_cols) = W (out_c x col_rows) * col
    tensor::gemm(false, false, out_c_, col_cols, col_rows, 1.0f,
                 weight_.value().data(), col, 0.0f,
                 out.data() + i * out_c_ * col_cols);
  }
  if (fuse_relu_) {
    // Fused epilogue: bias + ReLU + mask in one pass over the activations.
    float* mask = mask_.ensure(n * out_c_ * col_cols);
    tensor::add_bias_channels_relu(out.data(), n, out_c_, col_cols,
                                   bias_.value().data(), mask);
  } else {
    tensor::add_bias_channels(out.data(), n, out_c_, col_cols,
                              bias_.value().data());
  }
  return out;
}

tensor::Tensor Conv2D::backward(const tensor::Tensor& grad_output) {
  return backward_impl(grad_output, /*input_grad=*/true);
}

void Conv2D::backward_weights(const tensor::Tensor& grad_output) {
  backward_impl(grad_output, /*input_grad=*/false);
}

tensor::Tensor Conv2D::backward_impl(const tensor::Tensor& grad_output,
                                     bool input_grad) {
  const std::size_t n = cached_input_.shape()[0];
  const std::size_t h = cached_input_.shape()[2];
  const std::size_t w = cached_input_.shape()[3];
  const std::size_t oh = tensor::conv_out_dim(h, k_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, k_, stride_, pad_);
  const std::size_t col_rows = in_c_ * k_ * k_;
  const std::size_t col_cols = oh * ow;
  if (grad_output.shape().rank() != 4 || grad_output.shape()[0] != n ||
      grad_output.shape()[1] != out_c_ || grad_output.shape()[2] != oh ||
      grad_output.shape()[3] != ow) {
    throw std::invalid_argument("Conv2D::backward: bad grad shape " +
                                grad_output.shape().to_string());
  }

  const float* dy = grad_output.data();
  if (fuse_relu_) {
    // ReLU backward first: dy <- dy * mask (into reusable scratch).
    const std::size_t total = n * out_c_ * col_cols;
    float* masked = dy_masked_.ensure(total);
    tensor::apply_mask(dy, mask_.data(), masked, total);
    dy = masked;
  }
  tensor::Tensor grad_in;
  float* dcol = nullptr;
  if (input_grad) {
    grad_in = tensor::Tensor(cached_input_.shape());
    dcol = dcol_.ensure(col_rows * col_cols);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const float* dout = dy + i * out_c_ * col_cols;
    const float* col = cols_.data() + i * col_rows * col_cols;
    // dW += dout (out_c x col_cols) * col^T (col_cols x col_rows)
    tensor::gemm(false, true, out_c_, col_rows, col_cols, 1.0f, dout, col,
                 1.0f, weight_.grad().data());
    if (input_grad) {
      // dcol = W^T (col_rows x out_c) * dout
      tensor::gemm(true, false, col_rows, col_cols, out_c_, 1.0f,
                   weight_.value().data(), dout, 0.0f, dcol);
      tensor::col2im(dcol, in_c_, h, w, k_, k_, stride_, pad_,
                     grad_in.data() + i * in_c_ * h * w);
    }
    // db += per-channel sums of dout
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      const float* plane = dout + oc * col_cols;
      float acc = 0.0f;
      for (std::size_t p = 0; p < col_cols; ++p) acc += plane[p];
      bias_.grad()[oc] += acc;
    }
  }
  return grad_in;
}

std::vector<Variable*> Conv2D::variables() { return {&weight_, &bias_}; }

DepthwiseConv2D::DepthwiseConv2D(std::string name, std::size_t channels,
                                 std::size_t kernel, std::size_t stride,
                                 std::size_t pad)
    : c_(channels),
      k_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name + "/W", tensor::Shape{channels, kernel * kernel}),
      bias_(name + "/b", tensor::Shape{channels}) {}

void DepthwiseConv2D::init_weights(common::Rng& rng) {
  const double std = std::sqrt(2.0 / static_cast<double>(k_ * k_));
  for (auto& w : weight_.value().span()) {
    w = static_cast<float>(rng.normal(0.0, std));
  }
  bias_.value().fill(0.0f);
}

tensor::Tensor DepthwiseConv2D::forward(const tensor::Tensor& input,
                                        bool /*train*/) {
  if (input.shape().rank() != 4 || input.shape()[1] != c_) {
    throw std::invalid_argument("DepthwiseConv2D::forward: bad shape " +
                                input.shape().to_string());
  }
  cached_input_ = input;
  const std::size_t n = input.shape()[0];
  const std::size_t h = input.shape()[2], w = input.shape()[3];
  const std::size_t oh = tensor::conv_out_dim(h, k_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, k_, stride_, pad_);
  tensor::Tensor out(tensor::Shape{n, c_, oh, ow});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < c_; ++c) {
      const float* img = input.data() + (i * c_ + c) * h * w;
      const float* ker = weight_.value().data() + c * k_ * k_;
      float* dst = out.data() + (i * c_ + c) * oh * ow;
      const float b = bias_.value()[c];
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = b;
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += ker[ky * k_ + kx] *
                     img[static_cast<std::size_t>(iy) * w +
                         static_cast<std::size_t>(ix)];
            }
          }
          dst[oy * ow + ox] = acc;
        }
      }
    }
  }
  return out;
}

tensor::Tensor DepthwiseConv2D::backward(const tensor::Tensor& grad_output) {
  const std::size_t n = cached_input_.shape()[0];
  const std::size_t h = cached_input_.shape()[2];
  const std::size_t w = cached_input_.shape()[3];
  const std::size_t oh = tensor::conv_out_dim(h, k_, stride_, pad_);
  const std::size_t ow = tensor::conv_out_dim(w, k_, stride_, pad_);
  tensor::Tensor grad_in(cached_input_.shape());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < c_; ++c) {
      const float* img = cached_input_.data() + (i * c_ + c) * h * w;
      const float* dout = grad_output.data() + (i * c_ + c) * oh * ow;
      const float* ker = weight_.value().data() + c * k_ * k_;
      float* dker = weight_.grad().data() + c * k_ * k_;
      float* dimg = grad_in.data() + (i * c_ + c) * h * w;
      float dbias = 0.0f;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float g = dout[oy * ow + ox];
          dbias += g;
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const std::size_t pix = static_cast<std::size_t>(iy) * w +
                                      static_cast<std::size_t>(ix);
              dker[ky * k_ + kx] += g * img[pix];
              dimg[pix] += g * ker[ky * k_ + kx];
            }
          }
        }
      }
      bias_.grad()[c] += dbias;
    }
  }
  return grad_in;
}

std::vector<Variable*> DepthwiseConv2D::variables() {
  return {&weight_, &bias_};
}

}  // namespace dlion::nn
