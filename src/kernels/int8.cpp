// The generic "int8" backend: a real quantized GEMM, not fake-quant
// floats, and the stable name scripts/plans can always select.
//
// qgemm multiplies pre-quantized int8 panels (symmetric per-tensor scheme;
// see quant/quantize.hpp for the packing helpers) accumulating in int32
// and requantizes to float on store: C[i,j] = a_scale * b_scale *
// sum_k (A[i,k] - a_zp) * (B[k,j] - b_zp). Integer accumulation is exact,
// so the result is independent of any blocking or thread partition by
// construction — the determinism contract comes for free.
//
// Overflow headroom: |a - zp|, |b - zp| <= 255, so the int32 accumulator
// holds k up to ~2^15 exactly even in the asymmetric worst case; the
// engine's largest reduction (Ci*K*K of a wide conv) is orders of
// magnitude below that.
//
// Its qgemm entry is a dispatcher: it resolves (once, cached) the fastest
// quantized kernel the feature mask allows — int8-vnni, then int8-avx2,
// then the simd TU's wide instantiation of the portable body, then the
// baseline instantiation — all bit-identical, so the pick only moves
// speed. The same resolve step picks its qconv: the chosen kernel's
// gathering entry, or, when no dot-product kernel is allowed, the
// unfolding qconv over the resolved qgemm. The f32 gemm entry likewise
// forwards to the best float backend so a plan compiled with a quantized
// backend still runs its non-lowered steps (pooling epilogues, repair
// passes, any layer the lowering keeps in float) at full speed.
// set_cpu_feature_mask() flushes every cached pick via
// reset_int8_dispatch_cache().
#include <atomic>
#include <cmath>
#include <vector>

#include "kernels/internal.hpp"

namespace alf::kernels {

namespace {

using detail::GemmFn;

std::atomic<detail::QgemmFn> g_qgemm{nullptr};
std::atomic<detail::QconvFn> g_qconv{nullptr};
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

// Baseline-ISA instantiation of the shared body; the simd backend carries
// a second instantiation compiled with wider vector flags (identical
// integer math, so the two are bit-equal). Every other quantized kernel
// treats this as its oracle and small-shape fallback.
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  qgemm_int8_body(a, lda, b, ldb, c, ldc, m, k, n, p);
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

void qconv_unfold(QgemmFn qgemm, const int8_t* a, size_t lda,
                  const uint8_t* x, const ConvShape& s, float* c, size_t ldc,
                  size_t m, const QgemmParams& p, const ConvEpilogue* ep) {
  // Workers of qgemm reach this thread's unfold and product through the
  // plain pointers they are handed (see qgemm_int8_body).
  thread_local std::vector<int8_t> col_tls;
  thread_local std::vector<float> res_tls;
  col_tls.resize(s.k() * s.n());
  unfold_quads(x, s, col_tls.data());
  if (ep != nullptr) {
    res_tls.resize(m * s.n());
    c = res_tls.data();
    ldc = s.n();
  }
  qgemm(a, lda, col_tls.data(), s.n(), c, ldc, m, s.k(), s.n(), p);
  if (ep != nullptr) finish_result(c, ldc, m, s, *ep, nullptr);
}

void reset_int8_dispatch_cache() {
  g_qgemm.store(nullptr, std::memory_order_release);
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

void qgemm_dispatch(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                    float* c, size_t ldc, size_t m, size_t k, size_t n,
                    const QgemmParams& p);

void qconv_generic(const int8_t* a, size_t lda, const uint8_t* x,
                   const ConvShape& s, float* c, size_t ldc, size_t m,
                   const QgemmParams& p, const ConvEpilogue* ep) {
  detail::qconv_unfold(&qgemm_dispatch, a, lda, x, s, c, ldc, m, p, ep);
}

struct Resolved {
  detail::QgemmFn qgemm;
  detail::QconvFn qconv;
};

/// Resolves both quantized entries of the generic backend to the best
/// allowed kernels, in one step so they always agree on the backend. A
/// race on first use just resolves the same values twice.
Resolved resolve_quantized() {
  const KernelBackend* best = best_quantized_backend();
  detail::QgemmFn gemm;
  detail::QconvFn conv;
  if (best != int8_backend()) {
    gemm = best->qgemm;
    conv = best->qconv;
  } else {
    // No dot-product kernel allowed: the wide instantiation of the
    // portable body still beats baseline codegen when usable, and the
    // conv unfolds for it.
    const KernelBackend* simd = usable_simd();
    gemm = simd != nullptr ? simd->qgemm : &detail::qgemm_int8;
    conv = &qconv_generic;
  }
  g_qconv.store(conv, std::memory_order_release);
  g_qgemm.store(gemm, std::memory_order_release);
  return {gemm, conv};
}

/// qgemm entry of the generic backend: resolve-once dispatch.
void qgemm_dispatch(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                    float* c, size_t ldc, size_t m, size_t k, size_t n,
                    const QgemmParams& p) {
  detail::QgemmFn fn = g_qgemm.load(std::memory_order_acquire);
  if (fn == nullptr) fn = resolve_quantized().qgemm;
  fn(a, lda, b, ldb, c, ldc, m, k, n, p);
}

/// qconv entry of the generic backend: resolve-once dispatch.
void qconv_dispatch(const int8_t* a, size_t lda, const uint8_t* x,
                    const ConvShape& s, float* c, size_t ldc, size_t m,
                    const QgemmParams& p, const ConvEpilogue* ep) {
  detail::QconvFn fn = g_qconv.load(std::memory_order_acquire);
  if (fn == nullptr) fn = resolve_quantized().qconv;
  fn(a, lda, x, s, c, ldc, m, p, ep);
}

}  // namespace

const KernelBackend* int8_backend() {
  static const KernelBackend be{.name = "int8",
                                .quantized_datapath = true,
                                .gemm = &detail::gemm_forward_best_float,
                                .qgemm = &qgemm_dispatch,
                                .qconv = &qconv_dispatch};
  return &be;
}

namespace {

// Baseline bodies of the quantize helpers: the same expressions as the
// AVX2 paths (rint-based rounding, order-free max), so they agree bit for
// bit. Compiled in this TU (never with wide flags) so they execute on any
// CPU.

void quantize_row_i8_base(const float* src, int8_t* dst, size_t n, float inv,
                          int32_t zp, int32_t levels) {
  for (size_t i = 0; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::rintf(src[i] * inv)) + zp;
    v = std::min(levels, std::max(-levels, v));
    dst[i] = static_cast<int8_t>(v);
  }
}

float max_abs_f32_base(const float* src, size_t n) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(src[i]));
  return m;
}

}  // namespace

void quantize_row_i8(const float* src, int8_t* dst, size_t n, float inv,
                     int32_t zp, int32_t levels) {
  // Pure element-wise work: the pick depends only on the detected CPU
  // (never the feature mask — there is no selection semantics to test).
  static const detail::QuantizeRowFn fn =
      detail::quantize_row_i8_vec() != nullptr ? detail::quantize_row_i8_vec()
                                               : &quantize_row_i8_base;
  fn(src, dst, n, inv, zp, levels);
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
