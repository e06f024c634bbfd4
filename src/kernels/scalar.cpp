// The "scalar" backend: the cache-blocked (k, n)-tiled GEMM that used to
// live in tensor/ops.cpp, moved behind the KernelBackend seam unchanged.
// It is the portable floor every host can run, the equivalence oracle for
// the vectorized backends, and the fallback the registry hands out when
// nothing better is available.
#include <algorithm>
#include <cstring>

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

/// The blocked kernel body with the (k, n) tile extents as parameters; the
/// public gemm_scalar pins the historical constants, the tiled entry below
/// substitutes tuner-chosen ones. The k-block grid stays global for any
/// given block_k, so each (block_k, block_n) choice is individually
/// deterministic across thread counts.
void gemm_scalar_blocked(const float* pa, size_t lda, bool trans_a,
                         const float* pb, size_t ldb, bool trans_b, float* pc,
                         size_t ldc, size_t m, size_t k, size_t n, float alpha,
                         float beta, size_t block_k, size_t block_n) {
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
    for (size_t k0 = 0; k0 < k; k0 += block_k) {
      const size_t k1 = std::min(k, k0 + block_k);
      for (size_t j0 = 0; j0 < n; j0 += block_n) {
        const size_t j1 = std::min(n, j0 + block_n);
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

void gemm_scalar(const float* pa, size_t lda, bool trans_a, const float* pb,
                 size_t ldb, bool trans_b, float* pc, size_t ldc, size_t m,
                 size_t k, size_t n, float alpha, float beta) {
  gemm_scalar_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m, k, n,
                      alpha, beta, kBlockK, kBlockN);
}

}  // namespace detail

namespace {

void gemm_scalar_tiled(const float* pa, size_t lda, bool trans_a,
                       const float* pb, size_t ldb, bool trans_b, float* pc,
                       size_t ldc, size_t m, size_t k, size_t n, float alpha,
                       float beta, const TileParams& t) {
  detail::gemm_scalar_blocked(pa, lda, trans_a, pb, ldb, trans_b, pc, ldc, m,
                              k, n, alpha, beta, t.kc != 0 ? t.kc : kBlockK,
                              t.nc != 0 ? t.nc : kBlockN);
}

}  // namespace

const KernelBackend* scalar_backend() {
  static const KernelBackend be{.name = "scalar",
                                .gemm = &detail::gemm_scalar,
                                .qgemm = &detail::qgemm_int8,
                                .gemm_tiled = &gemm_scalar_tiled};
  return &be;
}

}  // namespace alf::kernels
