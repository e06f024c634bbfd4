#include "nn/conv2d.hpp"

#include <algorithm>
#include <vector>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "kernels/backend.hpp"

namespace alf {

Conv2d::Conv2d(std::string name, size_t in_c, size_t out_c, size_t kernel,
               size_t stride, size_t pad, Init scheme, Rng& rng)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      w_(name_ + ".w", {out_c, in_c, kernel, kernel}) {
  size_t fan_in = 0, fan_out = 0;
  conv_fans(w_.value.shape(), fan_in, fan_out);
  init_tensor(w_.value, scheme, fan_in, fan_out, rng);
}

void conv2d_image_forward(const float* x_img, const float* w_mat,
                          const float* bias, Act act, const ConvGeom& g,
                          size_t out_c, float* col_scratch, float* out_img,
                          const kernels::KernelBackend* be) {
  if (be == nullptr) be = kernels::default_backend();
  im2col_view(x_img, g, col_scratch);
  be->gemm(w_mat, g.col_rows(), false, col_scratch, g.col_cols(), false,
           out_img, g.col_cols(), out_c, g.col_rows(), g.col_cols(), 1.0f,
           0.0f);
  bias_act_inplace(out_img, out_c, g.col_cols(), bias, act);
}

Tensor conv2d_forward(const Tensor& x, const Tensor& w_mat, const ConvGeom& g,
                      size_t out_c) {
  ALF_CHECK_EQ(x.rank(), size_t{4});
  const size_t n = x.dim(0);
  ALF_CHECK_EQ(x.dim(1), g.in_c);
  ALF_CHECK_EQ(x.dim(2), g.in_h);
  ALF_CHECK_EQ(x.dim(3), g.in_w);
  ALF_CHECK_EQ(w_mat.dim(0), out_c);
  ALF_CHECK_EQ(w_mat.dim(1), g.col_rows());

  const size_t ho = g.out_h(), wo = g.out_w();
  Tensor out({n, out_c, ho, wo});
  const size_t in_sz = g.in_c * g.in_h * g.in_w;
  const size_t out_sz = out_c * ho * wo;
  // Data-parallel over the batch; each worker owns per-image im2col scratch
  // and reads/writes the batch tensors in place (no staging copies). The
  // inner GEMMs stay serial (few rows), so there is no nested parallelism.
  // The backend is resolved once for the whole batch.
  const kernels::KernelBackend* be = kernels::default_backend();
  parallel_for_chunked(
      0, n,
      [&](size_t lo, size_t hi) {
        Tensor col({g.col_rows(), g.col_cols()});
        for (size_t i = lo; i < hi; ++i) {
          conv2d_image_forward(x.data() + i * in_sz, w_mat.data(),
                               /*bias=*/nullptr, Act::kNone, g, out_c,
                               col.data(), out.data() + i * out_sz, be);
        }
      },
      /*min_per_worker=*/1);
  return out;
}

Tensor conv2d_backward(const Tensor& x, const Tensor& w_mat,
                       const ConvGeom& g, size_t out_c,
                       const Tensor& grad_out, Tensor* grad_w) {
  const size_t n = x.dim(0);
  const size_t ho = g.out_h(), wo = g.out_w();
  ALF_CHECK_EQ(grad_out.dim(0), n);
  ALF_CHECK_EQ(grad_out.dim(1), out_c);
  ALF_CHECK_EQ(grad_out.dim(2), ho);
  ALF_CHECK_EQ(grad_out.dim(3), wo);

  Tensor grad_x(x.shape());
  const size_t out_sz = out_c * ho * wo;

  // Data-parallel over a fixed split of the batch into parts, independent
  // of the thread count: each part accumulates its own weight gradient,
  // and the parts are added into grad_w in part order after the region,
  // so the float rounding never depends on which worker finished first.
  constexpr size_t kGradParts = 8;
  const size_t per_part =
      std::max<size_t>(1, (n + kGradParts - 1) / kGradParts);
  const size_t parts = (n + per_part - 1) / per_part;
  std::vector<Tensor> part_gw(grad_w != nullptr ? parts : 0);
  const kernels::KernelBackend* be = kernels::default_backend();
  parallel_for_chunked(
      0, parts,
      [&](size_t plo, size_t phi) {
        Tensor col({g.col_rows(), g.col_cols()});
        Tensor gcol({g.col_rows(), g.col_cols()});
        for (size_t part = plo; part < phi; ++part) {
          if (grad_w != nullptr) part_gw[part] = Tensor(grad_w->shape());
          const size_t end = std::min(n, (part + 1) * per_part);
          for (size_t i = part * per_part; i < end; ++i) {
            im2col(x, i, g, col);
            // gout_i is read in place from the batch gradient.
            const float* gout_i = grad_out.data() + i * out_sz;
            if (grad_w != nullptr) {
              // dW += gout_i [Co, HoWo] * col^T [HoWo, CiKK]
              be->gemm(gout_i, ho * wo, false, col.data(), g.col_cols(), true,
                       part_gw[part].data(), g.col_rows(), out_c, ho * wo,
                       g.col_rows(), 1.0f, 1.0f);
            }
            // dcol = W^T [CiKK, Co] * gout_i [Co, HoWo]
            be->gemm(w_mat.data(), g.col_rows(), true, gout_i, ho * wo, false,
                     gcol.data(), ho * wo, g.col_rows(), out_c, ho * wo, 1.0f,
                     0.0f);
            // grad_x is zero-initialized and each image slice is owned by
            // exactly one part, so col2im accumulates into it directly.
            col2im(gcol, g, grad_x, i);
          }
        }
      },
      /*min_per_worker=*/1);
  for (const Tensor& gw : part_gw) *grad_w += gw;
  return grad_x;
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  if (train) cached_x_ = x;
  const ConvGeom g{in_c_, x.dim(2), x.dim(3), kernel_, stride_, pad_};
  const Tensor w_mat = w_.value.reshaped({out_c_, in_c_ * kernel_ * kernel_});
  return conv2d_forward(x, w_mat, g, out_c_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  ALF_CHECK(!cached_x_.empty()) << "backward before forward";
  const ConvGeom g{in_c_, cached_x_.dim(2), cached_x_.dim(3), kernel_, stride_,
                   pad_};
  const Tensor w_mat = w_.value.reshaped({out_c_, in_c_ * kernel_ * kernel_});
  Tensor grad_w_mat = w_.grad.reshaped({out_c_, in_c_ * kernel_ * kernel_});
  Tensor grad_x = conv2d_backward(cached_x_, w_mat, g, out_c_, grad_out,
                                  &grad_w_mat);
  w_.grad = grad_w_mat.reshaped(w_.grad.shape());
  return grad_x;
}

}  // namespace alf
