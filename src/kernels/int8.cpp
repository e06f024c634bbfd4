// The generic "int8" backend: a real quantized GEMM, not fake-quant
// floats, and the stable name scripts/plans can always select.
//
// detail::qgemm_int8, defined here, is the library's one int8 GEMM: every
// backend registers it as its qgemm entry, and the unfolding qconv
// multiplies through it. It multiplies pre-quantized int8 panels
// (symmetric per-tensor scheme; see quant/quantize.hpp for the packing
// helpers) accumulating in int32 and requantizes to float on store:
// C[i,j] = a_scale * b_scale * sum_k (A[i,k] - a_zp) * (B[k,j] - b_zp).
// Integer accumulation is exact, so the result is independent of any
// blocking or thread partition by construction — the determinism contract
// comes for free.
//
// Overflow headroom: |a - zp|, |b - zp| <= 255, so the int32 accumulator
// holds k up to ~2^15 exactly even in the asymmetric worst case; the
// engine's largest reduction (Ci*K*K of a wide conv) is orders of
// magnitude below that.
//
// Its qconv entry is a dispatcher: it resolves (once, cached) the fastest
// quantized conv the feature mask allows — int8-vnni's, then int8-avx2's,
// both bit-identical — or, when no dot-product kernel is allowed, the
// unfolding qconv. The f32 gemm entry likewise forwards to the best float
// backend so a plan compiled with a quantized backend still runs its
// non-lowered steps (pooling epilogues, repair passes, any layer the
// lowering keeps in float) at full speed. set_cpu_feature_mask() flushes
// every cached pick via reset_int8_dispatch_cache().
#include <atomic>
#include <cmath>
#include <vector>

#include "kernels/internal.hpp"

namespace alf::kernels {

namespace {

using detail::GemmFn;
using QconvFn = decltype(KernelBackend::qconv);

std::atomic<QconvFn> g_qconv{nullptr};
std::atomic<GemmFn> g_float_gemm{nullptr};

/// Same subset rule auto-selection uses in backend.cpp.
bool mask_allows(const KernelBackend* be) {
  return (be->required_features & ~allowed_cpu_features()) == 0;
}

/// The simd backend when it is both registered and allowed by the mask.
const KernelBackend* usable_simd() {
  const KernelBackend* simd = simd_backend();
  return simd != nullptr && mask_allows(simd) ? simd : nullptr;
}

}  // namespace

namespace detail {

// The one int8 GEMM: row-parallel (same per-worker floor as the float
// backends), per-thread int32 accumulator row reused across calls.
//
// Zero points use the classic decomposition so the inner loop is always
// the pure sum of raw products:
//   sum_k (a-azp)(b-bzp)
//     = sum_k a*b - bzp*rowsum(a)[i] - azp*colsum(b)[j] + k*azp*bzp,
// with the row/column sums O(mk + kn) side passes folded into the store.
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  const int32_t azp = p.a_zp, bzp = p.b_zp;
  // Column sums of B are shared by every row; integer, so computing them
  // up front (outside the row partition) keeps determinism trivial. The
  // scratch is thread_local so steady-state calls never allocate (the
  // engine's run path relies on that), but workers must reach the CALLER's
  // buffer — a thread_local name inside the lambda would resolve to each
  // worker's own (empty) instance — so the lambda captures a plain
  // pointer. The caller blocks in parallel_for_chunked, so the buffer
  // outlives every worker's use of it.
  thread_local std::vector<int32_t> colsum_tls;
  const int32_t* colsum = nullptr;
  if (azp != 0) {
    colsum_tls.resize(n);
    int32_t* cs = colsum_tls.data();
    std::memset(cs, 0, n * sizeof(int32_t));
    for (size_t kk = 0; kk < k; ++kk) {
      const int8_t* brow = b + kk * ldb;
      for (size_t j = 0; j < n; ++j) cs[j] += static_cast<int32_t>(brow[j]);
    }
    colsum = cs;
  }
  const int32_t kzz = static_cast<int32_t>(k) * azp * bzp;

  const auto process_rows = [&](size_t r0, size_t r1) {
    thread_local std::vector<int32_t> acc;
    acc.resize(n);
    for (size_t i = r0; i < r1; ++i) {
      std::memset(acc.data(), 0, n * sizeof(int32_t));
      const int8_t* arow = a + i * lda;
      int32_t* ap = acc.data();
      int32_t rowsum = 0;
      // Four k steps per accumulator pass: the loop is bound by acc[]
      // load/add/store traffic, so amortizing it over four products is
      // worth ~3x; zero A elements (pruned weights) skip in groups.
      size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        const int32_t av0 = static_cast<int32_t>(arow[kk]);
        const int32_t av1 = static_cast<int32_t>(arow[kk + 1]);
        const int32_t av2 = static_cast<int32_t>(arow[kk + 2]);
        const int32_t av3 = static_cast<int32_t>(arow[kk + 3]);
        rowsum += av0 + av1 + av2 + av3;
        if ((av0 | av1 | av2 | av3) == 0) continue;
        const int8_t* b0 = b + kk * ldb;
        const int8_t* b1 = b0 + ldb;
        const int8_t* b2 = b1 + ldb;
        const int8_t* b3 = b2 + ldb;
        for (size_t j = 0; j < n; ++j)
          ap[j] += av0 * static_cast<int32_t>(b0[j]) +
                   av1 * static_cast<int32_t>(b1[j]) +
                   av2 * static_cast<int32_t>(b2[j]) +
                   av3 * static_cast<int32_t>(b3[j]);
      }
      for (; kk < k; ++kk) {
        const int32_t av = static_cast<int32_t>(arow[kk]);
        rowsum += av;
        if (av == 0) continue;
        const int8_t* brow = b + kk * ldb;
        for (size_t j = 0; j < n; ++j)
          ap[j] += av * static_cast<int32_t>(brow[j]);
      }
      // Fold the zero-point corrections into the accumulator, then
      // requantize on store. Per-row A scales (per-output-channel weight
      // quantization) and per-column B scales land here too — the integer
      // accumulation never sees scales.
      const int32_t row_corr = kzz - bzp * rowsum;
      if (bzp != 0 || azp != 0) {
        if (azp != 0) {
          for (size_t j = 0; j < n; ++j)
            ap[j] += row_corr - azp * colsum[j];
        } else {
          for (size_t j = 0; j < n; ++j) ap[j] += row_corr;
        }
      }
      const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
      float* crow = c + i * ldc;
      if (p.b_scales == nullptr) {
        const float scale = sa * p.b_scale;
        for (size_t j = 0; j < n; ++j)
          crow[j] = scale * static_cast<float>(ap[j]);
      } else {
        for (size_t j = 0; j < n; ++j)
          crow[j] = sa * p.b_scales[j] * static_cast<float>(ap[j]);
      }
    }
  };

  partition(m, k * n, process_rows);
}

void gemm_forward_best_float(const float* a, size_t lda, bool trans_a,
                             const float* b, size_t ldb, bool trans_b,
                             float* c, size_t ldc, size_t m, size_t k,
                             size_t n, float alpha, float beta) {
  GemmFn fn = g_float_gemm.load(std::memory_order_acquire);
  if (fn == nullptr) {
    const KernelBackend* simd = usable_simd();
    fn = simd != nullptr ? simd->gemm : &gemm_scalar;
    g_float_gemm.store(fn, std::memory_order_release);
  }
  fn(a, lda, trans_a, b, ldb, trans_b, c, ldc, m, k, n, alpha, beta);
}

void qconv_unfold(const int8_t* a, size_t lda, const uint8_t* x,
                  const ConvShape& s, float* c, size_t ldc, size_t m,
                  const QgemmParams& p, const ConvEpilogue* ep) {
  // Workers of qgemm_int8 reach this thread's unfold and product through
  // the plain pointers they are handed (see qgemm_int8).
  // A and the unfold share the images' k order (c/4, kh, kw, c%4): s.qk()
  // rows, the pad lanes' zero weights against their b_zp bytes.
  thread_local std::vector<int8_t> col_tls;
  thread_local std::vector<float> res_tls;
  col_tls.resize(s.qk() * s.n());
  unfold_quads(x, s, col_tls.data());
  if (ep != nullptr) {
    res_tls.resize(m * s.n());
    c = res_tls.data();
    ldc = s.n();
  }
  qgemm_int8(a, lda, col_tls.data(), s.n(), c, ldc, m, s.qk(), s.n(), p);
  if (ep != nullptr) finish_result(c, ldc, m, s, *ep, nullptr);
}

void reset_int8_dispatch_cache() {
  g_qconv.store(nullptr, std::memory_order_release);
  g_float_gemm.store(nullptr, std::memory_order_release);
}

void quantize_pad_i8_base(const float* src, size_t planes, size_t h,
                          size_t w, size_t pad, float inv, int32_t zp,
                          int32_t levels, uint8_t* dst) {
  const auto fill = static_cast<uint8_t>(zp + 128);
  pad_quads(
      src, planes, h, w, pad, fill, dst,
      [&](const float* s, size_t plane, size_t lanes, uint8_t* d, size_t n) {
        for (size_t x = 0; x < n; ++x, d += 4)
          quantize_quad_pixel(s + x, plane, lanes, inv, zp, levels, fill, d);
      });
}

}  // namespace detail

namespace {

/// qconv entry of the generic backend: resolve-once dispatch to the best
/// allowed kernel's gathering qconv, or to the unfold when no dot-product
/// kernel is allowed. A race on first use just resolves the same value
/// twice.
void qconv_dispatch(const int8_t* a, size_t lda, const uint8_t* x,
                    const ConvShape& s, float* c, size_t ldc, size_t m,
                    const QgemmParams& p, const ConvEpilogue* ep) {
  QconvFn fn = g_qconv.load(std::memory_order_acquire);
  if (fn == nullptr) {
    const KernelBackend* best = best_quantized_backend();
    fn = best != int8_backend() ? best->qconv : &detail::qconv_unfold;
    g_qconv.store(fn, std::memory_order_release);
  }
  fn(a, lda, x, s, c, ldc, m, p, ep);
}

/// Baseline body of max_abs_f32: max is order-free, so it agrees with the
/// AVX2 path bit for bit. Compiled in this TU (never with wide flags) so it
/// executes on any CPU.
float max_abs_f32_base(const float* src, size_t n) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(src[i]));
  return m;
}

}  // namespace

const KernelBackend* int8_backend() {
  static const KernelBackend be{.name = "int8",
                                .quantized_datapath = true,
                                .gemm = &detail::gemm_forward_best_float,
                                .qgemm = &detail::qgemm_int8,
                                .qconv = &qconv_dispatch};
  return &be;
}

void reorder_qconv_weights(const int8_t* src, size_t m, const ConvShape& s,
                           int8_t* dst) {
  const size_t taps = s.kernel * s.kernel;
  for (size_t i = 0; i < m; ++i, src += s.k()) {
    int8_t* d = dst + i * s.qk();
    for (size_t q = 0; q < s.quads(); ++q)
      for (size_t t = 0; t < taps; ++t, d += 4)
        for (size_t l = 0; l < 4; ++l) {
          const size_t ch = 4 * q + l;
          d[l] = ch < s.in_c ? src[ch * taps + t] : int8_t{0};
        }
  }
}

void quantize_pad_i8(const float* src, size_t planes, size_t h, size_t w,
                     size_t pad, float inv, int32_t zp, int32_t levels,
                     uint8_t* dst) {
  static const detail::QuantizePadFn fn =
      detail::quantize_pad_i8_vec() != nullptr ? detail::quantize_pad_i8_vec()
                                               : &detail::quantize_pad_i8_base;
  fn(src, planes, h, w, pad, inv, zp, levels, dst);
}

float max_abs_f32(const float* src, size_t n) {
  static const detail::MaxAbsFn fn = detail::max_abs_f32_vec() != nullptr
                                         ? detail::max_abs_f32_vec()
                                         : &max_abs_f32_base;
  return fn(src, n);
}

}  // namespace alf::kernels
