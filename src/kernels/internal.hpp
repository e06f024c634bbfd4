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

namespace alf::kernels::detail {

/// The int8 GEMM kernel entry shared by every built-in backend: k-blocked,
/// int32 accumulation, requantize-to-float store. Defined in int8.cpp at
/// the baseline ISA; simd.cpp compiles the same body (qgemm_int8_body
/// below) with wider vector flags and the int8 backend picks the fastest
/// usable variant at registration. Integer accumulation is exact, so every
/// variant produces bit-identical floats for any thread count.
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
/// qgemm and qconv variants + best float forward). Called by
/// set_cpu_feature_mask so dispatch re-resolves under the new mask.
/// Defined in int8.cpp.
void reset_int8_dispatch_cache();

/// The vectorized int8 qgemm kernels (defined in int8_dot.cpp, compiled
/// with wide vector-ISA flags; both are bit-identical to qgemm_int8_body —
/// integer accumulation is exact, and the requantizing store replicates
/// the oracle's float expression order). Null on hosts or builds without
/// the ISA; backed by the "int8-avx2" / "int8-vnni" backends.
using QgemmFn = void (*)(const int8_t*, size_t, const int8_t*, size_t,
                         float*, size_t, size_t, size_t, size_t,
                         const QgemmParams&);
using QconvFn = void (*)(const int8_t*, size_t, const int8_t*,
                         const ConvShape&, float*, size_t, size_t,
                         const QgemmParams&, const ConvEpilogue*);
using GemmFn = void (*)(const float*, size_t, bool, const float*, size_t,
                        bool, float*, size_t, size_t, size_t, size_t, float,
                        float);

/// The unfolding qconv (defined in int8.cpp): copies the unfold of the
/// padded images `x` into kernel-local scratch as a row-major
/// [s.k(), s.n()] panel, then runs `qgemm` over it (and the epilogue over
/// the result, when `ep` is set). The generic int8 backend's qconv when no
/// gathering kernel is allowed, and the oracle the gathering ones are
/// tested against.
void qconv_unfold(QgemmFn qgemm, const int8_t* a, size_t lda,
                  const int8_t* x, const ConvShape& s, float* c, size_t ldc,
                  size_t m, const QgemmParams& p, const ConvEpilogue* ep);

/// Vectorized bodies of the public quantize_row_i8 / quantize_pad_i8 /
/// max_abs_f32 helpers. Defined in int8_dot.cpp (the -mavx2 TU);
/// the getters return nullptr when the build or the detected CPU lacks
/// AVX2, and int8.cpp substitutes its baseline loops — same expressions,
/// so both paths agree bit for bit.
using QuantizeRowFn = void (*)(const float*, int8_t*, size_t, float,
                               int32_t, int32_t);
using QuantizePadFn = void (*)(const float*, size_t, size_t, size_t, size_t,
                               float, int32_t, int32_t, int8_t*);
using MaxAbsFn = float (*)(const float*, size_t);
QuantizeRowFn quantize_row_i8_vec();
QuantizePadFn quantize_pad_i8_vec();
MaxAbsFn max_abs_f32_vec();

namespace {

/// Columns of one B panel of a conv's implicit unfold: the 16-column
/// register tile both gathering kernels (simd's conv, the int8 qconv
/// driver) sweep.
constexpr size_t kPanelCols = 16;

/// Multiply-adds a worker must receive before a kernel splits its work
/// over the pool: the per-worker floor every backend partitions by.
constexpr size_t kMaddsPerWorker = size_t{1} << 16;

/// The register-tile pick of `simd`'s float kernel and `int8-vnni`'s
/// vpdpbusd kernel: true when the feature mask allows AVX-512F plus
/// `extra` (AVX512-VNNI for int8), which runs the 8x16 zmm tile; false
/// keeps the 4x16 ymm tile. Both tiles give every C element the same
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
/// stride 2 (the int8 gather has a shuffle for it), or column by column.
enum class PanelMode { kGather, kContiguous, kHalves, kStride2 };

/// Column map of one B panel: off[t] is the element offset (into the
/// padded images) of column t's (c, kh, kw) = (0, 0, 0) tap; row kk adds
/// the tap offset koff[kk] (conv_tap_offsets) to every column.
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

/// Border loop of every padded image copy: `planes` [h, w] float planes
/// into [planes, h + 2*pad, w + 2*pad] elements of T, where
/// `row(src, dst, w)` converts one image row (a copy for pad_f32, a
/// quantization for quantize_pad_i8) and every border element is `fill`.
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

/// The int8 expansion of one panel in its reference form: dst[o][j] (row
/// stride ldd) = the fmaf chain over r in order, from +0, of
/// (qw[o][r] * scale[o]) * v[r][j]. The vectorized drivers compute the
/// same chain with vector FMA.
inline void expand_fmaf(const ConvEpilogue& ep, size_t m, const float* v,
                        size_t ldv, size_t cols, float* dst, size_t ldd) {
  for (size_t o = 0; o < ep.co; ++o, dst += ldd) {
    std::fill(dst, dst + cols, 0.0f);
    for (size_t r = 0; r < m; ++r) {
      const float w = static_cast<float>(ep.exp_qw[o * m + r]) *
                      ep.exp_scales[o];
      const float* vr = v + r * ldv;
      for (size_t j = 0; j < cols; ++j) dst[j] = std::fmaf(w, vr[j], dst[j]);
    }
  }
}

/// Applies `ep` to a finished [m, s.n()] product at `c`, panel by panel:
/// the epilogue of the conv entries that compute the whole product before
/// storing it (scalar's conv, qconv_unfold). `c` is consumed (the inner
/// activation runs in place). A float expansion runs `gemm` over each
/// panel's column slice, which equals the full-width gemm when `gemm`
/// orders each element's sum independently of n (gemm_scalar does); an
/// int8 one runs expand_fmaf.
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

/// Body of the int8 GEMM, compiled into each backend TU that uses it under
/// that TU's ISA flags (internal linkage, see the rule at the top).
/// Row-parallel (same per-worker floor as the float backends); per-thread
/// int32 accumulator row reused across calls.
///
/// Zero points use the classic decomposition so the inner loop is always
/// the pure sum of raw products:
///   sum_k (a-azp)(b-bzp)
///     = sum_k a*b - bzp*rowsum(a)[i] - azp*colsum(b)[j] + k*azp*bzp,
/// with the row/column sums O(mk + kn) side passes folded into the store.
inline void qgemm_int8_body(const int8_t* a, size_t lda, const int8_t* b,
                            size_t ldb, float* c, size_t ldc, size_t m,
                            size_t k, size_t n, const QgemmParams& p) {
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

}  // namespace

}  // namespace alf::kernels::detail
