// Internals shared between the built-in kernel backends. Not installed on
// the public include path of the library's users (tests include it via the
// source tree to reach the raw kernels directly).
//
// Linkage rule: the kernel TUs build under different ISA flags (int8.cpp
// at the baseline, simd.cpp with -mavx2 -mfma, int8_dot.cpp with -mavx2),
// and the bodies defined in this header are compiled into more than one
// of them. So every definition here sits in an unnamed namespace: each TU
// keeps its own copy, built with its own flags. With external linkage an
// inline body is a weak symbol in every object that uses it and the
// linker keeps one of them, so a kernel meant to run its AVX2 build could
// run the baseline one, or AVX2 code could reach a CPU without AVX2.
// Check: `nm -C` on the kernel objects shows no symbol of this header as
// weak (W) in two of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/backend.hpp"

#if defined(__AVX2__) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
// The vector body of the epilogue store (store_panel_avx2 below); only
// the -mavx2 TUs (simd.cpp, int8_dot.cpp) see it.
#define ALF_STORE_VEC 1
#include <immintrin.h>
#endif

namespace alf::kernels::detail {

/// The one int8 GEMM (defined in int8.cpp at the baseline ISA): k-blocked,
/// int32 accumulation, requantize-to-float store. Every built-in backend
/// registers it as its qgemm entry, the unfolding qconv multiplies
/// through it, and every qconv kernel's store replicates its float
/// expressions. Integer accumulation is exact, so it is bit-identical for
/// any thread count.
void qgemm_int8(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p);

/// The moved cache-blocked scalar f32 kernel (defined in scalar.cpp); the
/// simd backend falls back to it for shapes below its packing break-even.
void gemm_scalar(const float* a, size_t lda, bool trans_a, const float* b,
                 size_t ldb, bool trans_b, float* c, size_t ldc, size_t m,
                 size_t k, size_t n, float alpha, float beta);

/// f32 gemm entry shared by every quantized backend: forwards to the best
/// float backend the feature mask allows (simd when usable, else scalar),
/// so non-lowered steps of an int8 plan keep full float speed. Defined in
/// int8.cpp; the pick is cached and flushed by reset_int8_dispatch_cache.
void gemm_forward_best_float(const float* a, size_t lda, bool trans_a,
                             const float* b, size_t ldb, bool trans_b,
                             float* c, size_t ldc, size_t m, size_t k,
                             size_t n, float alpha, float beta);

/// Flushes the cached kernel picks of the generic "int8" backend (best
/// qconv + best float forward). Called by set_cpu_feature_mask so dispatch
/// re-resolves under the new mask. Defined in int8.cpp.
void reset_int8_dispatch_cache();

/// An f32 gemm entry: the generic int8 backend's cached float forward,
/// and the expansion finish_result runs.
using GemmFn = void (*)(const float*, size_t, bool, const float*, size_t,
                        bool, float*, size_t, size_t, size_t, size_t, float,
                        float);

/// The unfolding qconv (defined in int8.cpp): copies the unfold of the
/// channel-quad images `x` into kernel-local scratch as a row-major
/// [s.qk(), s.n()] int8 panel in A's k order (unfold_quads), then runs
/// qgemm_int8 over it
/// into C — or, when `ep` is set, into kernel-local scratch the epilogue
/// then finishes (C is not touched). The generic int8 backend's qconv
/// when no dot-product kernel is allowed, and the route of every qconv
/// with a_zp != 0.
void qconv_unfold(const int8_t* a, size_t lda, const uint8_t* x,
                  const ConvShape& s, float* c, size_t ldc, size_t m,
                  const QgemmParams& p, const ConvEpilogue* ep);

/// Vectorized bodies of the public quantize_pad_i8 / max_abs_f32
/// helpers. Defined in int8_dot.cpp (the -mavx2 TU); the getters return
/// nullptr when the build or the detected CPU lacks AVX2, and int8.cpp
/// substitutes its baseline loops — same expressions, so both paths agree
/// bit for bit.
using QuantizePadFn = void (*)(const float*, size_t, size_t, size_t, size_t,
                               float, int32_t, int32_t, uint8_t*);
using MaxAbsFn = float (*)(const float*, size_t);
QuantizePadFn quantize_pad_i8_vec();
MaxAbsFn max_abs_f32_vec();

/// The baseline body of quantize_pad_i8 (int8.cpp), what it runs on a
/// CPU without AVX2; named so tests can hold both writers to one
/// reference.
void quantize_pad_i8_base(const float* src, size_t planes, size_t h,
                          size_t w, size_t pad, float inv, int32_t zp,
                          int32_t levels, uint8_t* dst);

/// The epilogue store of one finished panel (store_panel's signature).
using StorePanelFn = void (*)(const ConvEpilogue&, size_t, size_t,
                              const float*, size_t, size_t, size_t);

/// The vector body of store_panel the vector conv entries run
/// (store_panel_avx2). Defined in int8_dot.cpp (the -mavx2 TU); nullptr
/// when the build or the detected CPU lacks AVX2. Exposed so tests can
/// hold it to the scalar store_panel.
StorePanelFn store_panel_vec();

namespace {

/// Columns of one B panel of a conv's implicit unfold: the 16-column
/// register tile both gathering kernels (simd's conv, the int8 qconv
/// driver) sweep.
constexpr size_t kPanelCols = 16;

/// Multiply-adds a worker must receive before a kernel splits its work
/// over the pool: the per-worker floor every backend partitions by.
constexpr size_t kMaddsPerWorker = size_t{1} << 16;

/// The register-tile pick of `simd`'s float kernels and `int8-vnni`'s
/// vpdpbusd kernels: true when the feature mask allows AVX-512F plus
/// `extra` (AVX512-VNNI for int8), which runs the zmm tiles; false keeps
/// the 4x16 ymm tiles. Both tiles give every C element the same
/// operations in the same order, so the pick only moves speed. Read on
/// every kernel call and never cached, so ALF_CPU_DISABLE=avx512f and
/// set_cpu_feature_mask() steer it.
inline bool zmm_tile(uint32_t extra = 0) {
  const uint32_t need = kCpuAvx512f | extra;
  return (allowed_cpu_features() & need) == need;
}

/// Work partition of the gathering drivers (and of the int8 qgemm rows):
/// `units` rows or column panels of `madds_per_unit` each, with the same
/// gating and per-worker floor as the other backends, so call sites see
/// one consistent threading policy.
template <typename F>
inline void partition(size_t units, size_t madds_per_unit, const F& process) {
  const size_t min_units = std::max<size_t>(
      1, kMaddsPerWorker / std::max<size_t>(1, madds_per_unit));
  if (in_parallel_region() || units <= min_units || parallel_threads() <= 1) {
    process(0, units);
    return;
  }
  parallel_for_chunked(0, units, process, min_units);
}

/// How one kPanelCols-column panel of a conv's implicit unfold reads its
/// rows: one contiguous run, two runs of half a panel each, one run at
/// stride 2 (a load pair and a shuffle inside the run's span), or column
/// by column. simd's float conv and int8-vnni's qconv read the first three
/// in place from the images and gather only kGather panels into an L1
/// block; int8-avx2 packs every panel into its pair layout through the
/// same row loads.
enum class PanelMode { kGather, kContiguous, kHalves, kStride2 };

/// Column map of one B panel: off[t] is the element offset (into the
/// padded images) of column t's (c, kh, kw) = (0, 0, 0) tap; row kk adds
/// the tap offset koff[kk] (conv_tap_offsets) to every column. A qconv
/// maps its panels in channel-quad pixels, through a shape whose in_c is
/// s.quads() (one element per quad pixel).
struct ConvPanel {
  size_t cols = 0;
  PanelMode mode = PanelMode::kGather;
  size_t off[kPanelCols] = {};
};

inline ConvPanel map_panel(const ConvShape& s, size_t j0, size_t n) {
  ConvPanel pn;
  pn.cols = std::min(kPanelCols, n - j0);
  const size_t wo = s.out_w(), img_cols = s.out_h() * wo;
  size_t img = j0 / img_cols, oh = (j0 % img_cols) / wo, ow = j0 % wo;
  for (size_t t = 0; t < pn.cols; ++t) {
    pn.off[t] = img * s.image_size() + oh * s.stride * s.in_w + ow * s.stride;
    ++ow;
    if (ow < wo) continue;
    ow = 0;
    ++oh;
    if (oh < s.out_h()) continue;
    oh = 0;
    ++img;
  }
  if (pn.cols < kPanelCols) return pn;
  const auto run = [&](size_t t0, size_t len, size_t step) {
    for (size_t t = t0 + 1; t < t0 + len; ++t)
      if (pn.off[t] != pn.off[t0] + (t - t0) * step) return false;
    return true;
  };
  constexpr size_t kHalf = kPanelCols / 2;
  if (run(0, kPanelCols, 1))
    pn.mode = PanelMode::kContiguous;
  else if (run(0, kHalf, 1) && run(kHalf, kHalf, 1))
    pn.mode = PanelMode::kHalves;
  else if (run(0, kPanelCols, 2))
    pn.mode = PanelMode::kStride2;
  return pn;
}

/// Row offsets of a conv's implicit unfold: koff[kk] is where unfold row
/// kk = (c*K + kh)*K + kw starts inside one padded image, so entry
/// (kk, column t of a panel) is x[koff[kk] + off[t]]. koff has s.k()
/// entries.
inline void conv_tap_offsets(const ConvShape& s, size_t* koff) {
  for (size_t ch = 0, kk = 0; ch < s.in_c; ++ch)
    for (size_t kh = 0; kh < s.kernel; ++kh)
      for (size_t kw = 0; kw < s.kernel; ++kw, ++kk)
        koff[kk] = ch * s.in_h * s.in_w + kh * s.in_w + kw;
}

/// k groups of a qconv: one per (channel quad, kh, kw), four channels
/// each (backend.hpp ConvShape).
inline size_t quad_groups(const ConvShape& s) {
  return s.quads() * s.kernel * s.kernel;
}

/// Byte offsets of a qconv's k groups: group g = (q*K + kh)*K + kw starts
/// koff[g] bytes into one channel-quad image, so its 4 bytes for panel
/// column t sit at x + 4 * off[t] + koff[g]. koff has quad_groups(s)
/// entries.
inline void quad_tap_offsets(const ConvShape& s, size_t* koff) {
  for (size_t q = 0, g = 0; q < s.quads(); ++q)
    for (size_t kh = 0; kh < s.kernel; ++kh)
      for (size_t kw = 0; kw < s.kernel; ++kw, ++g)
        koff[g] = 4 * ((q * s.in_h + kh) * s.in_w + kw);
}

/// Materializes the implicit unfold of the padded images `x` as a
/// row-major [s.k(), s.n()] matrix at `dst` (what im2col_view writes for
/// the unpadded images side by side).
template <typename T>
inline void unfold_padded(const T* x, const ConvShape& s, T* dst) {
  const size_t ho = s.out_h(), wo = s.out_w(), n = s.n();
  const size_t plane = s.in_h * s.in_w, img_cols = ho * wo;
  T* row = dst;
  for (size_t ch = 0; ch < s.in_c; ++ch)
    for (size_t kh = 0; kh < s.kernel; ++kh)
      for (size_t kw = 0; kw < s.kernel; ++kw, row += n)
        for (size_t img = 0; img < s.images; ++img) {
          const T* src = x + img * s.image_size() + ch * plane +
                         kh * s.in_w + kw;
          T* d = row + img * img_cols;
          for (size_t oh = 0; oh < ho; ++oh, d += wo) {
            const T* srow = src + oh * s.stride * s.in_w;
            if (s.stride == 1) {
              std::memcpy(d, srow, wo * sizeof(T));
            } else {
              for (size_t ow = 0; ow < wo; ++ow) d[ow] = srow[ow * s.stride];
            }
          }
        }
}

/// The unfold of a qconv's channel-quad u8 images in their own k order,
/// back in the int8 grid (each byte minus 128): a row-major [s.qk(),
/// s.n()] matrix whose row 4g + l reads lane l of k group g = (q*K +
/// kh)*K + kw, pad lanes included — the order of qconv's A, so qgemm
/// over it is the qconv. What the unfolding qconv multiplies.
inline void unfold_quads(const uint8_t* x, const ConvShape& s, int8_t* dst) {
  const size_t ho = s.out_h(), wo = s.out_w(), n = s.n();
  const size_t img_cols = ho * wo;
  int8_t* row = dst;
  for (size_t q = 0; q < s.quads(); ++q)
    for (size_t kh = 0; kh < s.kernel; ++kh)
      for (size_t kw = 0; kw < s.kernel; ++kw)
        for (size_t l = 0; l < 4; ++l, row += n)
          for (size_t img = 0; img < s.images; ++img) {
            const uint8_t* src = x + img * s.qimage_size() +
                                 4 * ((q * s.in_h + kh) * s.in_w + kw) + l;
            int8_t* d = row + img * img_cols;
            for (size_t oh = 0; oh < ho; ++oh, d += wo) {
              const uint8_t* srow = src + 4 * oh * s.stride * s.in_w;
              for (size_t ow = 0; ow < wo; ++ow)
                d[ow] = static_cast<int8_t>(srow[4 * ow * s.stride] ^ 0x80u);
            }
          }
}

/// Border loop of the padded float image copy (pad_f32): `planes` [h, w]
/// float planes into [planes, h + 2*pad, w + 2*pad] elements of T, where
/// `row(src, dst, w)` converts one image row and every border element is
/// `fill`.
template <typename T, typename Row>
inline void pad_planes(const float* src, size_t planes, size_t h, size_t w,
                       size_t pad, T fill, T* dst, const Row& row) {
  const size_t pw = w + 2 * pad;
  for (size_t c = 0; c < planes; ++c) {
    std::fill(dst, dst + pad * pw, fill);  // top border rows
    dst += pad * pw;
    for (size_t y = 0; y < h; ++y, src += w, dst += pw) {
      for (size_t i = 0; i < pad; ++i) dst[i] = dst[pad + w + i] = fill;
      row(src, dst + pad, w);
    }
    std::fill(dst, dst + pad * pw, fill);  // bottom border rows
    dst += pad * pw;
  }
}

/// One pixel of a qconv image row, byte by byte: lane l < lanes is the
/// int8 quantization of s[l * plane] (rint, +zp, clamp) stored + 128, and
/// every lane >= lanes is `fill`. The reference expression of both
/// quantize_pad_i8 writers (the whole baseline one, the AVX2 one's tail).
inline void quantize_quad_pixel(const float* s, size_t plane, size_t lanes,
                                float inv, int32_t zp, int32_t levels,
                                uint8_t fill, uint8_t* d) {
  for (size_t l = 0; l < 4; ++l) {
    if (l >= lanes) {
      d[l] = fill;
      continue;
    }
    int32_t v = static_cast<int32_t>(std::rintf(s[l * plane] * inv)) + zp;
    v = std::min(levels, std::max(-levels, v));
    d[l] = static_cast<uint8_t>(v + 128);
  }
}

/// Border loop of the qconv images (backend.hpp ConvShape): `planes` [h,
/// w] float planes into [ceil(planes / 4)][h + 2*pad][w + 2*pad][4] bytes,
/// where `row(src, plane, lanes, dst, w)` writes one interior image row of
/// one channel quad — lane l < lanes from the plane at src + l * plane,
/// every lane >= lanes `fill` — and every border byte is `fill`.
template <typename Row>
inline void pad_quads(const float* src, size_t planes, size_t h, size_t w,
                      size_t pad, uint8_t fill, uint8_t* dst,
                      const Row& row) {
  const size_t pw = 4 * (w + 2 * pad), plane = h * w;
  for (size_t c = 0; c < planes; c += 4, src += 4 * plane) {
    const size_t lanes = std::min<size_t>(4, planes - c);
    std::fill(dst, dst + pad * pw, fill);  // top border rows
    dst += pad * pw;
    for (size_t y = 0; y < h; ++y, dst += pw) {
      std::fill(dst, dst + 4 * pad, fill);
      std::fill(dst + 4 * (pad + w), dst + pw, fill);
      row(src + y * w, plane, lanes, dst + 4 * pad, w);
    }
    std::fill(dst, dst + pad * pw, fill);  // bottom border rows
    dst += pad * pw;
  }
}

// --- Conv epilogue (backend.hpp ConvEpilogue) -------------------------------

/// act(v) over rows [0, rows) x columns [0, cols) of `v` (row stride ldv)
/// with act_inplace's exact float ops; ReLU, the hot case, stays inline.
inline void act_rows(Act act, float* v, size_t ldv, size_t rows,
                     size_t cols) {
  if (act == Act::kNone) return;
  for (size_t r = 0; r < rows; ++r, v += ldv) {
    if (act != Act::kRelu) {
      act_inplace(act, v, cols);
      continue;
    }
    for (size_t j = 0; j < cols; ++j) v[j] = v[j] > 0.0f ? v[j] : 0.0f;
  }
}

/// The epilogue store of one finished panel: all `rows` output rows,
/// columns [j0, j0 + cols) of the product, whose values sit at `v` (row r
/// at v + r * ldv). `plane` is out_h * out_w. Per element
/// `v = src (+ bias) (+ residual)`, then the activation (ReLU inline); the
/// residual may be `ep.out` itself, so each element reads it before the
/// store.
inline void store_panel(const ConvEpilogue& ep, size_t rows, size_t plane,
                        const float* v, size_t ldv, size_t j0, size_t cols) {
  const bool relu = ep.act == Act::kRelu;
  // One run per image the panel's columns touch: a panel that straddles
  // two images splits its store.
  for (size_t t = 0; t < cols;) {
    const size_t j = j0 + t, p = j % plane;
    const size_t seg = std::min(cols - t, plane - p);
    const size_t base = (j / plane) * rows * plane + p;
    for (size_t r = 0; r < rows; ++r) {
      const float* src = v + r * ldv + t;
      float* dst = ep.out + base + r * plane;
      const float* res =
          ep.residual != nullptr ? ep.residual + base + r * plane : nullptr;
      const float b = ep.bias != nullptr ? ep.bias[r] : 0.0f;
      for (size_t i = 0; i < seg; ++i) {
        float x = src[i];
        if (ep.bias != nullptr) x = x + b;
        if (res != nullptr) x = x + res[i];
        if (relu) x = x > 0.0f ? x : 0.0f;
        dst[i] = x;
      }
      if (!relu && ep.act != Act::kNone) act_inplace(ep.act, dst, seg);
    }
    t += seg;
  }
}

#if defined(ALF_STORE_VEC)
/// store_panel on two 8-lane halves: each row segment (at most one
/// panel, 16 columns) is loaded, gets the bias and residual adds and
/// max(v, +0) for ReLU, and is stored, in store_panel's order; masked
/// loads and stores (vmaskmovps) for a segment narrower than a panel,
/// plain ones for a whole one. maxps returns its second operand unless the
/// first is greater, so a NaN or -0 sum stores +0, exactly as `v > 0 ? v
/// : 0` does; other activations run act_inplace over the stored segment,
/// as there.
inline void store_panel_avx2(const ConvEpilogue& ep, size_t rows,
                             size_t plane, const float* v, size_t ldv,
                             size_t j0, size_t cols) {
  const Act act = ep.act;
  const float* const bias = ep.bias;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 zero = _mm256_setzero_ps();
  for (size_t t = 0; t < cols;) {
    const size_t j = j0 + t, img = j / plane, p = j - img * plane;
    const size_t seg = std::min(cols - t, plane - p);
    const bool whole = seg == 2 * 8;
    const auto n = static_cast<int>(seg);
    const __m256i m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(n), lane);
    const __m256i m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(n - 8), lane);
    const auto load = [&](const float* q, __m256& lo, __m256& hi) {
      lo = whole ? _mm256_loadu_ps(q) : _mm256_maskload_ps(q, m0);
      hi = whole ? _mm256_loadu_ps(q + 8) : _mm256_maskload_ps(q + 8, m1);
    };
    const size_t base = img * rows * plane + p;
    float* dst = ep.out + base;
    const float* res = ep.residual != nullptr ? ep.residual + base : nullptr;
    const float* src = v + t;
    for (size_t r = 0; r < rows; ++r, src += ldv, dst += plane) {
      __m256 x0, x1;
      load(src, x0, x1);
      if (bias != nullptr) {
        const __m256 b = _mm256_set1_ps(bias[r]);
        x0 = _mm256_add_ps(x0, b);
        x1 = _mm256_add_ps(x1, b);
      }
      if (res != nullptr) {
        __m256 r0, r1;
        load(res, r0, r1);
        x0 = _mm256_add_ps(x0, r0);
        x1 = _mm256_add_ps(x1, r1);
        res += plane;
      }
      if (act == Act::kRelu) {
        x0 = _mm256_max_ps(x0, zero);
        x1 = _mm256_max_ps(x1, zero);
      }
      if (whole) {
        _mm256_storeu_ps(dst, x0);
        _mm256_storeu_ps(dst + 8, x1);
      } else {
        _mm256_maskstore_ps(dst, m0, x0);
        _mm256_maskstore_ps(dst + 8, m1, x1);
      }
      if (act != Act::kRelu && act != Act::kNone) act_inplace(act, dst, seg);
    }
    t += seg;
  }
}
#endif

/// The epilogue store of a vector conv entry: store_panel_avx2, or the
/// scalar store_panel in a build without AVX2.
inline void store_panel_isa(const ConvEpilogue& ep, size_t rows,
                            size_t plane, const float* v, size_t ldv,
                            size_t j0, size_t cols) {
#if defined(ALF_STORE_VEC)
  store_panel_avx2(ep, rows, plane, v, ldv, j0, cols);
#else
  store_panel(ep, rows, plane, v, ldv, j0, cols);
#endif
}

/// Row stride of a folded int8 expansion's weights over m code rows:
/// the 1x1 step's qconv A, ceil(m/4)*4 bytes per row (ConvEpilogue).
inline size_t exp_qw_stride(size_t m) { return (m + 3) / 4 * 4; }

/// The int8 expansion of one panel in its reference form: dst[o][j] (row
/// stride ldd) = the fmaf chain over r in order, from +0, of
/// (qw[o][r] * scale[o]) * v[r][j]. The vectorized drivers compute the
/// same chain with vector FMA.
inline void expand_fmaf(const ConvEpilogue& ep, size_t m, const float* v,
                        size_t ldv, size_t cols, float* dst, size_t ldd) {
  const size_t ldq = exp_qw_stride(m);
  for (size_t o = 0; o < ep.co; ++o, dst += ldd) {
    std::fill(dst, dst + cols, 0.0f);
    for (size_t r = 0; r < m; ++r) {
      const float w = static_cast<float>(ep.exp_qw[o * ldq + r]) *
                      ep.exp_scales[o];
      const float* vr = v + r * ldv;
      for (size_t j = 0; j < cols; ++j) dst[j] = std::fmaf(w, vr[j], dst[j]);
    }
  }
}

/// Applies `ep` to a finished [m, s.n()] product at `c`, panel by panel:
/// the epilogue of the conv entries that compute the whole product into
/// their own scratch before storing it (scalar's conv, qconv_unfold).
/// `c` is consumed (the inner activation runs in place). A float
/// expansion runs `gemm` over each panel's column slice, which equals the
/// full-width gemm when `gemm` orders each element's sum independently of
/// n (gemm_scalar does); an int8 one runs expand_fmaf.
inline void finish_result(float* c, size_t ldc, size_t m, const ConvShape& s,
                          const ConvEpilogue& ep, GemmFn gemm) {
  const size_t n = s.n(), plane = s.out_h() * s.out_w();
  thread_local std::vector<float> exp_tls;
  exp_tls.resize(ep.co * kPanelCols);
  float* const exp = exp_tls.data();
  for (size_t j0 = 0; j0 < n; j0 += kPanelCols) {
    const size_t cols = std::min(kPanelCols, n - j0);
    float* v = c + j0;
    if (ep.co == 0) {
      store_panel(ep, m, plane, v, ldc, j0, cols);
      continue;
    }
    act_rows(ep.inner_act, v, ldc, m, cols);
    if (ep.exp_qw != nullptr)
      expand_fmaf(ep, m, v, ldc, cols, exp, kPanelCols);
    else
      gemm(ep.exp_w, m, false, v, ldc, false, exp, kPanelCols, ep.co, m,
           cols, 1.0f, 0.0f);
    store_panel(ep, ep.co, plane, exp, kPanelCols, j0, cols);
  }
}

}  // namespace

}  // namespace alf::kernels::detail
