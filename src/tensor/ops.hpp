// Tensor kernels: GEMM, im2col/col2im, elementwise helpers.
//
// These are the computational substrate of the NN framework. The GEMM entry
// points forward into the dispatchable kernel-backend layer
// (kernels/backend.hpp — scalar / simd / int8 implementations selected via
// ALF_BACKEND or CPU features); im2col/col2im and the elementwise helpers
// live here. Every backend is parallelized over output rows with
// deterministic partitioning (each output element is written by exactly one
// thread and accumulated in a thread-count-independent order), so results
// are bit-stable.
#pragma once

#include "tensor/tensor.hpp"

namespace alf {

/// C = alpha * op(A) * op(B) + beta * C, with op(X) = X or X^T.
/// A is [M, K] (or [K, M] when trans_a), B is [K, N] (or [N, K] when
/// trans_b), C must be preallocated to [M, N].
///
/// Dispatches to the process-default kernel backend (see
/// kernels/backend.hpp). Per output element the accumulation order is fixed
/// by the backend's k-block grid (never by the thread partition), so for a
/// fixed backend results are bit-identical for any thread count.
void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// Raw-pointer core of gemm() over row-major views: op(A) is [M, K] with
/// leading dimension lda, op(B) is [K, N] with leading dimension ldb, C is
/// an [M, N] block with leading dimension ldc (ldc >= n; pass n for a dense
/// result). Lets callers target slices of a larger buffer — one image of a
/// batch tensor, an engine arena slot, or a column window of an output map
/// (ldc > n). Same blocking/threading/determinism as the Tensor form.
void gemm_view(const float* a, size_t lda, bool trans_a, const float* b,
               size_t ldb, bool trans_b, float* c, size_t ldc, size_t m,
               size_t k, size_t n, float alpha = 1.0f, float beta = 0.0f);

/// Reference GEMM: serial textbook triple loop, no blocking, no threading.
/// Kept as the oracle for tests; do not use on hot paths.
void gemm_naive(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
                Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// Convenience: returns op(A)*op(B) as a fresh [M, N] tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

/// Geometry of a convolution used by im2col/col2im and the Conv2d layer.
struct ConvGeom {
  size_t in_c = 0, in_h = 0, in_w = 0;
  size_t kernel = 1;
  size_t stride = 1;
  size_t pad = 0;

  size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix = Ci * K * K.
  size_t col_rows() const { return in_c * kernel * kernel; }
  /// Columns of the im2col matrix = Ho * Wo.
  size_t col_cols() const { return out_h() * out_w(); }
};

/// Unfolds one image `img` [Ci, H, W] into `col` [Ci*K*K, Ho*Wo].
/// `col` must be preallocated; zero-padding is materialized as zeros.
void im2col(const Tensor& img, const ConvGeom& g, Tensor& col);

/// Batch-offset overload: unfolds image `image` of `x` [N, Ci, H, W]
/// directly into `col`, with no staging copy of the image.
void im2col(const Tensor& x, size_t image, const ConvGeom& g, Tensor& col);

/// Raw core of im2col: `img` points at Ci*H*W floats, `col` at
/// col_rows()*col_cols() floats. No shape checks — callers own them.
void im2col_view(const float* img, const ConvGeom& g, float* col);

/// Strided variant: writes the unfold as an [col_rows, col_cols] block of a
/// wider matrix with leading dimension `ld_col` (>= col_cols). The engine
/// uses it to unfold several images side by side into one [Ci*K*K,
/// G*Ho*Wo] matrix so a whole chunk runs as a single GEMM.
void im2col_view(const float* img, const ConvGeom& g, float* col,
                 size_t ld_col);

/// Accumulates the columns of `col` [Ci*K*K, Ho*Wo] back into image
/// gradient `img` [Ci, H, W] (adds into img; caller zeroes it first).
void col2im(const Tensor& col, const ConvGeom& g, Tensor& img);

/// Batch-offset overload: accumulates into image `image` of `x`
/// [N, Ci, H, W] (caller zeroes that slice first).
void col2im(const Tensor& col, const ConvGeom& g, Tensor& x, size_t image);

/// Raw core of col2im; see im2col_view for the pointer contracts.
void col2im_view(const float* col, const ConvGeom& g, float* img);

/// out[i] = a[i] * b[i]; shapes must match.
Tensor hadamard(const Tensor& a, const Tensor& b);

/// axpy: y += alpha * x.
void axpy(float alpha, const Tensor& x, Tensor& y);

/// Mean squared error between two same-shape tensors.
double mse(const Tensor& a, const Tensor& b);

/// Transposes a rank-2 tensor.
Tensor transpose2d(const Tensor& a);

}  // namespace alf
