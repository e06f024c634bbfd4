// The "scalar" backend: the cache-blocked (k, n)-tiled GEMM that used to
// live in tensor/ops.cpp, moved behind the KernelBackend seam unchanged.
// It is the portable floor every host can run, the equivalence oracle for
// the vectorized backends, and the fallback the registry hands out when
// nothing better is available.
#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

namespace {

// Cache-block sizes: one (kBlockK x kBlockN) tile of B is ~256 KB and stays
// resident in L2 while every row of the current row-block consumes it.
constexpr size_t kBlockK = 128;
constexpr size_t kBlockN = 512;

}  // namespace

namespace detail {

void gemm_scalar(const float* pa, size_t lda, bool trans_a, const float* pb,
                 size_t ldb, bool trans_b, float* pc, size_t ldc, size_t m,
                 size_t k, size_t n, float alpha, float beta) {
  // Each worker owns a contiguous block of C rows; inside a row-block the
  // (k, n) loop nest is tiled so the active B tile stays in cache. The
  // k-block grid is global (not per-thread), so every C element sees the
  // same accumulation order regardless of where the row partition falls.
  const auto process_rows = [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * ldc;
      if (beta == 0.0f) {
        std::memset(crow, 0, n * sizeof(float));
      } else if (beta != 1.0f) {
        for (size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    for (size_t k0 = 0; k0 < k; k0 += kBlockK) {
      const size_t k1 = std::min(k, k0 + kBlockK);
      for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
        const size_t j1 = std::min(n, j0 + kBlockN);
        for (size_t i = r0; i < r1; ++i) {
          float* crow = pc + i * ldc;
          if (!trans_a && !trans_b) {
            // C[i,j0:j1] += alpha * sum_k A[i,k] * B[k,j0:j1]
            const float* arow = pa + i * lda;
            for (size_t kk = k0; kk < k1; ++kk) {
              const float av = alpha * arow[kk];
              if (av == 0.0f) continue;
              const float* brow = pb + kk * ldb;
              for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
            }
          } else if (!trans_a && trans_b) {
            // C[i,j] += alpha * dot(A[i,k0:k1], B[j,k0:k1])
            const float* arow = pa + i * lda;
            for (size_t j = j0; j < j1; ++j) {
              const float* brow = pb + j * ldb;
              float acc = 0.0f;
              for (size_t kk = k0; kk < k1; ++kk) acc += arow[kk] * brow[kk];
              crow[j] += alpha * acc;
            }
          } else if (trans_a && !trans_b) {
            // C[i,j0:j1] += alpha * sum_k A[k,i] * B[k,j0:j1]
            for (size_t kk = k0; kk < k1; ++kk) {
              const float av = alpha * pa[kk * lda + i];
              if (av == 0.0f) continue;
              const float* brow = pb + kk * ldb;
              for (size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
            }
          } else {
            // C[i,j] += alpha * sum_k A[k,i] * B[j,k]
            for (size_t j = j0; j < j1; ++j) {
              float acc = 0.0f;
              for (size_t kk = k0; kk < k1; ++kk)
                acc += pa[kk * lda + i] * pb[j * ldb + kk];
              crow[j] += alpha * acc;
            }
          }
        }
      }
    }
  };

  // Hand a worker at least kMaddsPerWorker of arithmetic; small products
  // (and any gemm issued from inside a parallel region, e.g. a chunk's
  // conv GEMM) run inline — without even the dispatch round trip, which
  // costs a std::function allocation per call.
  partition(m, k * n, process_rows);
}

}  // namespace detail

namespace {

/// The reference float conv: the implicit unfold of the padded images,
/// materialized in kernel-local scratch, times A through gemm_scalar, then
/// the epilogue over the finished product — the same ops as a separate
/// unfold, gemm and epilogue pass, so the bytes are the same. With an
/// epilogue the product lands in kernel-local scratch too, not in C.
/// Workers of gemm_scalar reach the caller's thread_local buffers through
/// the plain pointers they are handed (see detail::qgemm_int8).
void conv_scalar(const float* a, size_t lda, const float* x,
                 const ConvShape& s, float* c, size_t ldc, size_t m,
                 const ConvEpilogue* ep) {
  thread_local std::vector<float> col_tls, res_tls;
  col_tls.resize(s.k() * s.n());
  detail::unfold_padded(x, s, col_tls.data());
  if (ep != nullptr) {
    res_tls.resize(m * s.n());
    c = res_tls.data();
    ldc = s.n();
  }
  detail::gemm_scalar(a, lda, false, col_tls.data(), s.n(), false, c, ldc, m,
                      s.k(), s.n(), 1.0f, 0.0f);
  if (ep != nullptr)
    detail::finish_result(c, ldc, m, s, *ep, &detail::gemm_scalar);
}

}  // namespace

const KernelBackend* scalar_backend() {
  static const KernelBackend be{.name = "scalar",
                                .gemm = &detail::gemm_scalar,
                                .qgemm = &detail::qgemm_int8,
                                .conv = &conv_scalar};
  return &be;
}

}  // namespace alf::kernels
