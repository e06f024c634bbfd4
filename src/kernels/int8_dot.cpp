// Register-tiled int8 conv kernels over x86 dot-product instructions:
//
//   int8-avx2 — widens both operands to int16 pairs and uses vpmaddwd (exact: s8 x u8 products can never saturate the
//               32-bit lanes, unlike vpmaddubsw whose 16-bit intermediate
//               overflows at 255*127*2).
//   int8-vnni — vpdpbusd, u8 x s8 in four-byte groups, in the VEX
//               (AVX-VNNI) or EVEX (AVX512-VNNI) encoding, picked per call
//               from the feature mask.
//
// Both run qconv, the product of every conv and of the linear head (a 1x1
// conv over 1x1 images), with B the implicit unfold of the u8 channel-quad
// images (backend.hpp ConvShape): one k group — four channels of one tap —
// of 16 output columns is 16 dwords, so the images are vpdpbusd's
// unsigned operand as they lie and the weights its signed one. A, the
// weights, comes in the same order: Plan::compile stores it in the
// images' k order (c/4, kh, kw, c%4) with zero weights on the pad lanes
// (kPanelLayoutVersion 4), so row i's four weights of k group g are the
// dword at a + i * lda + 4g and no call reorders it. int8-vnni reads it in
// place; int8-avx2 sign-extends its rows to int16 once per call
// (widen_rows), since widening in the tile cost more than that pass. With
// a_zp == 0 the zero-point correction is one constant per row, sum_k a*(b
// - b_zp) = sum_k a*(b + 128) - (128 + b_zp)*rowsum(a), the row sums a
// vector reduction per call (qconv_rowsums), so no column sum exists. The
// column panels are the parallel axis. int8-vnni reads each k group in
// place: one 64-byte load for a contiguous panel, two 32-byte loads for a
// two-half panel, two loads and a dword permute at stride 2; only a panel
// of another shape is gathered, dword by dword, into an L1 block. Its zmm
// tile runs 1-8 rows against up to three panels (up to 24 accumulators,
// the shape of simd's tile_zmm), else a 4x16 ymm tile reads one panel at a
// time. int8-avx2 builds its pair pack of each panel from the same loads.
// A short 4x16 tile repeats row 0 for its missing rows, so no tile reads a
// row past m. The 4x16 tiles store through store_tile, the zmm tile
// through a 16-lane copy of its expressions. With an epilogue each panel's
// rows land in an L1 buffer and are finished there: inner activation, the
// int8 expansion (FMA on zmm or ymm), the vector epilogue store
// (detail::store_panel_isa). A qconv with a_zp != 0 runs the unfold. Their
// qgemm entry is the portable detail::qgemm_int8.
//
// Bit-identity with the scalar oracle (detail::qgemm_int8) is structural:
// integer accumulation is exact in any order, zero-point corrections are
// integer, and every store replicates the oracle's float expressions
// operation for operation. That also makes results independent of the
// thread partition for free.
//
// This TU is compiled with -mavx2 when CMake's ALF_SIMD is ON (see
// set_source_files_properties); the VNNI and AVX-512 kernels carry
// per-function target attributes. Without it — or on non-x86 hosts — the
// factories return nullptr and the generic int8 backend's qconv stays on
// the unfold.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "kernels/internal.hpp"

#if defined(__AVX2__) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define ALF_INT8_DOT 1
// vpdpbusd needs per-function target support and the avxvnni intrinsic
// header; both arrived in GCC 11 / clang 12. Older compilers still build
// the AVX2 kernel.
#if (defined(__clang__) && __clang_major__ >= 12) || \
    (!defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 11)
#define ALF_INT8_VNNI 1
#endif
#endif

#if defined(ALF_INT8_DOT)
#include <immintrin.h>
#endif

namespace alf::kernels {

#if defined(ALF_INT8_DOT)

namespace {

using detail::ConvPanel;
using detail::PanelMode;
using detail::partition;

constexpr size_t kMr = 4;   // register-tile rows
constexpr size_t kNr = 16;  // register-tile columns (two ymm of int32)
constexpr size_t kGroup = 3;  // B panels one zmm qconv sweep covers
static_assert(kNr == detail::kPanelCols, "qconv reads whole B panels");

inline int32_t load_i32(const void* p) {
  int32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// --- qconv over channel-quad images ----------------------------------------

/// B of one qconv sweep: `np` consecutive 16-column panels of the
/// implicit unfold read in `mode`. k group g of panel p — 16 columns x 4
/// channel bytes, 64 bytes — starts at base[p] + off[g] (quad_tap_offsets,
/// bytes); a two-half panel's columns 8-15 sit half[p] bytes after its
/// columns 0-7. kGather stands for a gathered [kg][16]-dword block, group
/// g at g * 64.
struct QPanels {
  PanelMode mode = PanelMode::kGather;
  size_t np = 1;
  const size_t* off = nullptr;
  const uint8_t* base[kGroup] = {};
  size_t half[kGroup] = {};
};

/// Where k group g of a B panel starts, relative to its base (QPanels).
template <PanelMode Mode>
inline size_t qrow_offset(const size_t* off, size_t g) {
  return Mode == PanelMode::kGather ? g * 4 * kNr : off[g];
}

/// C of one qconv sweep: row i of panel p at c + i * ldc + p * pstep, of
/// which the first `cols` columns are written; panel 0 is the product's
/// columns from j0 on (their B scales). Per element v = acc - (128 + b_zp)
/// * rowsum[i], the row's whole zero-point correction, then store_tile's
/// float expressions.
struct QStore {
  float* c = nullptr;
  size_t ldc = 0, pstep = 0, j0 = 0, cols = kNr;
  const int32_t* rowsum = nullptr;  ///< A's row sums
  QgemmParams p;
};

/// Stores one 4x16 tile of raw sums ([4 rows][16 cols] at `acc`), C rows
/// [i0, i0 + pr) of panel 0, with QStore's correction. The float
/// expressions below must stay operation-for-operation identical to
/// detail::qgemm_int8's store loop — that is what makes every backend
/// bit-identical.
inline void store_tile(const QStore& st, size_t i0, size_t pr,
                       const int32_t* acc) {
  const QgemmParams& p = st.p;
  const int32_t bzp = 128 + p.b_zp;
  if (st.cols == kNr) {
    // Full tile: the whole epilogue in two ymm per row. The integer
    // correction is exact either way and the float ops below pair up 1:1
    // (same association) with the narrow branch, so both store
    // bit-identical values.
    __m256 bs0 = _mm256_setzero_ps(), bs1 = _mm256_setzero_ps();
    if (p.b_scales != nullptr) {
      bs0 = _mm256_loadu_ps(p.b_scales + st.j0);
      bs1 = _mm256_loadu_ps(p.b_scales + st.j0 + 8);
    }
    for (size_t r = 0; r < pr; ++r) {
      const size_t i = i0 + r;
      const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
      const int32_t* arow = acc + r * kNr;
      const __m256i rc = _mm256_set1_epi32(-bzp * st.rowsum[i]);
      const __m256i v0 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow)), rc);
      const __m256i v1 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + 8)),
          rc);
      __m256 s0, s1;
      if (p.b_scales == nullptr) {
        s0 = s1 = _mm256_set1_ps(sa * p.b_scale);
      } else {
        const __m256 sav = _mm256_set1_ps(sa);
        s0 = _mm256_mul_ps(sav, bs0);
        s1 = _mm256_mul_ps(sav, bs1);
      }
      float* crow = st.c + i * st.ldc;
      _mm256_storeu_ps(crow, _mm256_mul_ps(s0, _mm256_cvtepi32_ps(v0)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_mul_ps(s1, _mm256_cvtepi32_ps(v1)));
    }
    return;
  }
  for (size_t r = 0; r < pr; ++r) {
    const size_t i = i0 + r;
    const int32_t row_corr = -bzp * st.rowsum[i];
    const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
    const float scale = sa * p.b_scale;
    float* crow = st.c + i * st.ldc;
    const int32_t* arow = acc + r * kNr;
    for (size_t j = 0; j < st.cols; ++j) {
      const int32_t v = arow[j] + row_corr;
      crow[j] = p.b_scales == nullptr
                    ? scale * static_cast<float>(v)
                    : sa * p.b_scales[st.j0 + j] * static_cast<float>(v);
    }
  }
}

/// Runs `f(std::integral_constant<PanelMode, mode>)`: the one switch from a
/// panel's runtime mode to the tiles' compile-time one.
template <typename F>
inline void with_mode(PanelMode mode, const F& f) {
  using M = PanelMode;
  switch (mode) {
    case M::kGather:
      return f(std::integral_constant<M, M::kGather>{});
    case M::kContiguous:
      return f(std::integral_constant<M, M::kContiguous>{});
    case M::kHalves:
      return f(std::integral_constant<M, M::kHalves>{});
    case M::kStride2:
      return f(std::integral_constant<M, M::kStride2>{});
  }
}

inline __m256i load32(const uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// One k group of a B panel, whose column 0 is at p, as two ymm of 8
/// columns each (dword t = column t's four channel bytes). Every load
/// stays inside the bytes the panel's columns address.
template <PanelMode Mode>
inline void load_qrow(const uint8_t* p, size_t half, __m256i& lo,
                      __m256i& hi) {
  if constexpr (Mode == PanelMode::kHalves) {
    lo = load32(p);
    hi = load32(p + half);
  } else if constexpr (Mode == PanelMode::kStride2) {
    // Columns at dwords 2t: the even dwords of [0, 16), then those of
    // [16, 31) read as [16, 24) and [23, 31), so nothing past the last
    // column (dword 30) is loaded.
    const __m256i even = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
    const __m256i odd = _mm256_setr_epi32(1, 3, 5, 7, 0, 2, 4, 6);
    const __m256i a = _mm256_permutevar8x32_epi32(load32(p), even);
    const __m256i b = _mm256_permutevar8x32_epi32(load32(p + 32), even);
    const __m256i c = _mm256_permutevar8x32_epi32(load32(p + 64), even);
    const __m256i d = _mm256_permutevar8x32_epi32(load32(p + 92), odd);
    lo = _mm256_permute2x128_si256(a, b, 0x20);
    hi = _mm256_permute2x128_si256(c, d, 0x20);
  } else {
    lo = load32(p);
    hi = load32(p + 32);
  }
}

/// Gathers one B panel the tiles cannot read in place, dword by dword,
/// into `dst` ([kg][16] dwords, zero past the panel's last column).
void gather_qblock(const uint8_t* x, const ConvPanel& pn, const size_t* koff,
                   size_t kg, uint8_t* dst) {
  size_t col[kNr] = {};
  for (size_t t = 0; t < pn.cols; ++t) col[t] = 4 * pn.off[t];
  for (size_t g = 0; g < kg; ++g, dst += 4 * kNr) {
    const uint8_t* p = x + koff[g];
    size_t t = 0;
    for (; t < pn.cols; ++t) std::memcpy(dst + 4 * t, p + col[t], 4);
    for (; t < kNr; ++t) std::memset(dst + 4 * t, 0, 4);
  }
}

/// rowsum[i] = the sum of row i's `len` int8 weights at a + i * lda
/// (len a multiple of 4: whole k groups): the zero-point correction's
/// factor (QStore). A vector reduction, 32 weights per step and the last
/// whole dwords through a masked load; vpmaddubsw against ones cannot
/// saturate (two s8 per word).
void qconv_rowsums(const int8_t* a, size_t lda, size_t m, size_t len,
                   int32_t* rowsum) {
  const __m256i ones8 = _mm256_set1_epi8(1), ones16 = _mm256_set1_epi16(1);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const auto sum4 = [&](__m256i v) {
    return _mm256_madd_epi16(_mm256_maddubs_epi16(ones8, v), ones16);
  };
  for (size_t i = 0; i < m; ++i) {
    const int8_t* row = a + i * lda;
    __m256i acc = _mm256_setzero_si256();
    size_t kk = 0;
    for (; kk + 32 <= len; kk += 32)
      acc = _mm256_add_epi32(
          acc, sum4(_mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(row + kk))));
    if (kk < len) {
      const __m256i live = _mm256_cmpgt_epi32(
          _mm256_set1_epi32(static_cast<int>((len - kk) / 4)), lane);
      acc = _mm256_add_epi32(
          acc, sum4(_mm256_maskload_epi32(
                   reinterpret_cast<const int*>(row + kk), live)));
    }
    __m128i h = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
    h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0x4E));
    h = _mm_add_epi32(h, _mm_shuffle_epi32(h, 0xB1));
    rowsum[i] = _mm_cvtsi128_si32(h);
  }
}

/// The int8 expansion of one panel (backend.hpp ConvEpilogue): exp[o][j]
/// = the FMA chain over r in order, from +0, of wdeq[o][r] * v[r][j], for
/// all co rows and 16 columns ([m][kNr] in, [co][kNr] out). Four output
/// rows run side by side; every element keeps expand_fmaf's chain, and a
/// vector FMA rounds once like std::fmaf, so the two agree bit for bit.
__attribute__((target("avx2,fma"))) void expand_panel(const float* wdeq,
                                                      size_t co, size_t m,
                                                      const float* v,
                                                      float* exp) {
  size_t o = 0;
  for (; o + kMr <= co; o += kMr) {
    __m256 acc[kMr][2];
    for (size_t i = 0; i < kMr; ++i)
      acc[i][0] = acc[i][1] = _mm256_setzero_ps();
    for (size_t r = 0; r < m; ++r) {
      const __m256 v0 = _mm256_loadu_ps(v + r * kNr);
      const __m256 v1 = _mm256_loadu_ps(v + r * kNr + 8);
      for (size_t i = 0; i < kMr; ++i) {
        const __m256 w = _mm256_set1_ps(wdeq[(o + i) * m + r]);
        acc[i][0] = _mm256_fmadd_ps(w, v0, acc[i][0]);
        acc[i][1] = _mm256_fmadd_ps(w, v1, acc[i][1]);
      }
    }
    for (size_t i = 0; i < kMr; ++i) {
      _mm256_storeu_ps(exp + (o + i) * kNr, acc[i][0]);
      _mm256_storeu_ps(exp + (o + i) * kNr + 8, acc[i][1]);
    }
  }
  for (; o < co; ++o) {
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    for (size_t r = 0; r < m; ++r) {
      const __m256 w = _mm256_set1_ps(wdeq[o * m + r]);
      a0 = _mm256_fmadd_ps(w, _mm256_loadu_ps(v + r * kNr), a0);
      a1 = _mm256_fmadd_ps(w, _mm256_loadu_ps(v + r * kNr + 8), a1);
    }
    _mm256_storeu_ps(exp + o * kNr, a0);
    _mm256_storeu_ps(exp + o * kNr + 8, a1);
  }
}

/// The expansion of `np` panels (v's [m][kNr] results m * kNr floats
/// apart, exp's [co][kNr] ones co * kNr apart), one at a time.
void expand_fma(const float* wdeq, size_t co, size_t m, size_t np,
                const float* v, float* exp) {
  for (size_t q = 0; q < np; ++q)
    expand_panel(wdeq, co, m, v + q * m * kNr, exp + q * co * kNr);
}

/// What a kernel's qconv hands qconv_run besides its sweep: the
/// panels one sweep may cover and the expansion.
struct QconvTiles {
  size_t group = 1;
  void (*expand)(const float*, size_t, size_t, size_t, const float*,
                 float*) = nullptr;
};

/// The qconv loop shared by both kernels (a_zp == 0). The caller has
/// summed A's rows into `rowsum`; `sweep(b, st)` runs all m rows against
/// B's panels into st. Column
/// panels are the parallel axis: each worker walks its panels, joins up
/// to `tiles.group` consecutive ones read in place the same way, gathers
/// any other panel into an L1 block and — with an epilogue — finishes
/// each panel's [m][kNr] result in L1: the inner activation, the
/// expansion when there is one, then the epilogue store. Every C
/// element's integer sum is exact, so neither the partition nor the
/// grouping shows.
template <typename Sweep>
void qconv_run(const uint8_t* x, const ConvShape& s, float* c, size_t ldc,
               size_t m, const QgemmParams& p, const int32_t* rowsum,
               const ConvEpilogue* ep, const QconvTiles& tiles,
               const Sweep& sweep) {
  const size_t group = tiles.group;
  const size_t kg = detail::quad_groups(s), n = s.n();
  const size_t plane = s.out_h() * s.out_w();
  // The images in channel-quad pixels: map_panel's offsets count those.
  ConvShape px = s;
  px.in_c = s.quads();
  // Caller-thread scratch reached by the workers through plain pointers
  // (see detail::qgemm_int8); the caller blocks until they finish.
  thread_local std::vector<size_t> koff_tls;
  thread_local std::vector<float> wdeq_tls;
  koff_tls.resize(kg);
  size_t* const koff = koff_tls.data();
  detail::quad_tap_offsets(s, koff);
  // The expansion's dequantized weights, the same float(qw) * scale
  // product expand_fmaf forms.
  const size_t co = ep != nullptr ? ep->co : 0;
  const size_t ldq = detail::exp_qw_stride(m);
  wdeq_tls.resize(co * m);
  float* const wdeq = wdeq_tls.data();
  for (size_t o = 0; o < co; ++o)
    for (size_t r = 0; r < m; ++r)
      wdeq[o * m + r] =
          static_cast<float>(ep->exp_qw[o * ldq + r]) * ep->exp_scales[o];

  const auto process_panels = [=, &sweep](size_t p0, size_t p1) {
    thread_local std::vector<uint8_t> block_tls;
    thread_local std::vector<float> buf_tls;
    block_tls.resize(kg * 4 * kNr);
    uint8_t* const block = block_tls.data();
    float* buf = nullptr;
    if (ep != nullptr) {
      buf_tls.resize(group * (m + co) * kNr);
      buf = buf_tls.data();
    }
    for (size_t jp = p0; jp < p1;) {
      const size_t j0 = jp * kNr;
      const ConvPanel pn = detail::map_panel(px, j0, n);
      QPanels b;
      b.off = koff;
      if (pn.mode == PanelMode::kGather) {
        gather_qblock(x, pn, koff, kg, block);
        b.base[0] = block;
      } else {
        // In place, the panel joins the next ones read the same way.
        b.mode = pn.mode;
        for (ConvPanel q = pn;;) {
          b.base[b.np - 1] = x + 4 * q.off[0];
          b.half[b.np - 1] = 4 * (q.off[kNr / 2] - q.off[0]);
          if (b.np == group || jp + b.np == p1) break;
          q = detail::map_panel(px, j0 + b.np * kNr, n);
          if (q.mode != pn.mode) break;
          ++b.np;
        }
      }
      QStore st;
      st.c = buf != nullptr ? buf : c + j0;
      st.ldc = buf != nullptr ? kNr : ldc;
      st.pstep = buf != nullptr ? m * kNr : kNr;
      st.j0 = j0;
      st.cols = pn.cols;
      st.rowsum = rowsum;
      st.p = p;
      sweep(b, st);
      if (buf != nullptr) {
        // The group's results [np][m][kNr], expanded to [np][co][kNr]
        // after them.
        const float* out = buf;
        size_t rows = m;
        if (co != 0) {
          for (size_t q = 0; q < b.np; ++q)
            detail::act_rows(ep->inner_act, buf + q * m * kNr, kNr, m,
                             pn.cols);
          float* const e = buf + group * m * kNr;
          tiles.expand(wdeq, co, m, b.np, buf, e);
          out = e;
          rows = co;
        }
        for (size_t q = 0; q < b.np; ++q)
          detail::store_panel_isa(*ep, rows, plane, out + q * rows * kNr, kNr,
                                  j0 + q * kNr, pn.cols);
      }
      jp += b.np;
    }
  };
  partition((n + kNr - 1) / kNr, m * s.k() * kNr, process_panels);
}

// --- AVX2 vpmaddwd kernel --------------------------------------------------

/// A's rows as int16: row i's len weights at a + i * lda, sign-extended
/// in their own order into dst + i * len (len a multiple of 4). Pair step
/// q of a row — k group q/2's lanes (0, 1) for even q, (2, 3) for odd —
/// is then the dword at row + 2q, what qconv_tile_avx2 broadcasts.
void widen_rows(const int8_t* a, size_t lda, size_t m, size_t len,
                int16_t* dst) {
  for (size_t i = 0; i < m; ++i, dst += len) {
    const int8_t* row = a + i * lda;
    size_t kk = 0;
    for (; kk + 16 <= len; kk += 16)
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(dst + kk),
          _mm256_cvtepi8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + kk))));
    for (; kk < len; ++kk) dst[kk] = row[kk];
  }
}

/// 4x16 tile over int16 pairs: `a` is A's rows widened (widen_rows, lda
/// int16 apart; a row past pr repeats row 0), `bp` is [kp][16 cols][2]
/// int16 (pack_qpanel_pairs, 64 bytes — a cache line — per pair step).
/// vpmaddwd multiplies each row's pair against each column's matching
/// pair and adds horizontally into the int32 lane; s8 weights against u8
/// image bytes keep every intermediate far from the lane limits, so
/// accumulation is exact. Raw sums go to `acc` as [4 rows][16 cols]
/// (store_tile's layout).
void qconv_tile_avx2(const int16_t* a, size_t lda, size_t pr,
                     const int16_t* bp, size_t kp, int32_t* acc) {
  const int16_t* const a0 = a;
  const int16_t* const a1 = pr > 1 ? a + lda : a;
  const int16_t* const a2 = pr > 2 ? a + 2 * lda : a;
  const int16_t* const a3 = pr > 3 ? a + 3 * lda : a;
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  for (size_t q = 0; q < kp; ++q, bp += 32) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
    __m256i va = _mm256_set1_epi32(load_i32(a0 + 2 * q));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(va, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(a1 + 2 * q));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(va, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(a2 + 2 * q));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(va, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(a3 + 2 * q));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(va, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(va, b1));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 0), c00);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 8), c01);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 16), c10);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 24), c11);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 32), c20);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 40), c21);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 48), c30);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + 56), c31);
}

/// Packs one qconv B panel into the pair layout of qconv_tile_avx2: each
/// k group's channel lanes (0, 1) and (2, 3) become two [16 cols][2]
/// int16 pair steps, zero-extended from the images' u8 bytes.
template <PanelMode Mode>
void pack_qpanel_pairs(const QPanels& b, size_t kg, int16_t* dst) {
  // Per 128-bit lane (four columns): lanes 0, 1 / 2, 3 of each dword as
  // two zero-extended words.
  const __m256i p01 = _mm256_setr_epi8(0, -1, 1, -1, 4, -1, 5, -1, 8, -1, 9,
                                       -1, 12, -1, 13, -1, 0, -1, 1, -1, 4,
                                       -1, 5, -1, 8, -1, 9, -1, 12, -1, 13,
                                       -1);
  const __m256i p23 = _mm256_setr_epi8(2, -1, 3, -1, 6, -1, 7, -1, 10, -1,
                                       11, -1, 14, -1, 15, -1, 2, -1, 3, -1,
                                       6, -1, 7, -1, 10, -1, 11, -1, 14, -1,
                                       15, -1);
  __m256i* out = reinterpret_cast<__m256i*>(dst);
  for (size_t g = 0; g < kg; ++g, out += 4) {
    __m256i lo, hi;
    load_qrow<Mode>(b.base[0] + qrow_offset<Mode>(b.off, g), b.half[0], lo,
                    hi);
    _mm256_storeu_si256(out, _mm256_shuffle_epi8(lo, p01));
    _mm256_storeu_si256(out + 1, _mm256_shuffle_epi8(hi, p01));
    _mm256_storeu_si256(out + 2, _mm256_shuffle_epi8(lo, p23));
    _mm256_storeu_si256(out + 3, _mm256_shuffle_epi8(hi, p23));
  }
}

void qconv_avx2(const int8_t* a, size_t lda, const uint8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, const ConvEpilogue* ep) {
  if (p.a_zp != 0) {
    detail::qconv_unfold(a, lda, x, s, c, ldc, m, p, ep);
    return;
  }
  // A's rows widened once per call, in their own order (one pair step per
  // two channel lanes of a k group): vpmaddwd needs int16 weights, and
  // widening them in the tile cost the int8 models 5-21%.
  const size_t qk = s.qk(), kp = 2 * detail::quad_groups(s);
  thread_local std::vector<int16_t> wide_tls;
  thread_local std::vector<int32_t> rowsum_tls;
  wide_tls.resize(m * qk);
  rowsum_tls.resize(m);
  const int16_t* const wide = wide_tls.data();
  widen_rows(a, lda, m, qk, wide_tls.data());
  qconv_rowsums(a, lda, m, qk, rowsum_tls.data());
  qconv_run(x, s, c, ldc, m, p, rowsum_tls.data(), ep,
            {.group = 1, .expand = &expand_fma},
            [=](const QPanels& b, const QStore& st) {
              thread_local std::vector<int16_t> bpanel_tls;
              bpanel_tls.resize(kp * 2 * kNr);
              int16_t* const bpanel = bpanel_tls.data();
              with_mode(b.mode, [&](auto mode) {
                pack_qpanel_pairs<decltype(mode)::value>(b, kp / 2, bpanel);
              });
              alignas(32) int32_t acc[kMr * kNr];
              for (size_t i = 0; i < m; i += kMr) {
                const size_t pr = std::min(kMr, m - i);
                qconv_tile_avx2(wide + i * qk, qk, pr, bpanel, kp, acc);
                store_tile(st, i, pr, acc);
              }
            });
}

// --- Quantize helpers ------------------------------------------------------

inline __m256i quant_8(__m256 v, __m256 vinv, __m256i vzp, __m256i vlo,
                       __m256i vhi) {
  // cvtps_epi32 rounds per MXCSR — nearest-even, exactly the scalar
  // tail's rintf. Inputs are bounded by the caller's max-abs scaling, so
  // the out-of-range indefinite result can't occur.
  __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, vinv));
  q = _mm256_add_epi32(q, vzp);
  return _mm256_min_epi32(_mm256_max_epi32(q, vlo), vhi);
}

void quantize_pad_i8_avx2(const float* src, size_t planes, size_t h,
                          size_t w, size_t pad, float inv, int32_t zp,
                          int32_t levels, uint8_t* dst) {
  // quant_8 on the u8 grid: zp + 128, clamped to 128 +- levels, is the
  // int8 value + 128 (every result fits one byte lane of a dword).
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vzp = _mm256_set1_epi32(zp + 128);
  const __m256i vlo = _mm256_set1_epi32(128 - levels);
  const __m256i vhi = _mm256_set1_epi32(128 + levels);
  const auto fill = static_cast<uint8_t>(zp + 128);
  if (h * w == 1 && pad == 0) {
    // 1x1 images (the int8 head's rows): the planes are contiguous floats
    // and their quads contiguous dwords, so eight planes — two quads —
    // quantize as one vector, narrowed by two packs (the values lie in
    // [128 - levels, 128 + levels], so neither saturates).
    size_t c = 0;
    for (; c + 8 <= planes; c += 8) {
      __m256i q = quant_8(_mm256_loadu_ps(src + c), vinv, vzp, vlo, vhi);
      q = _mm256_packus_epi16(_mm256_packus_epi32(q, q), q);
      const int32_t lo = _mm256_cvtsi256_si32(q);
      const int32_t hi = _mm_cvtsi128_si32(_mm256_extracti128_si256(q, 1));
      std::memcpy(dst + c, &lo, 4);
      std::memcpy(dst + c + 4, &hi, 4);
    }
    for (; c < planes; c += 4)
      detail::quantize_quad_pixel(src + c, 1, std::min<size_t>(4, planes - c),
                                  inv, zp, levels, fill, dst + c);
    return;
  }
  const __m256i vfill = _mm256_set1_epi32(fill);
  detail::pad_quads(
      src, planes, h, w, pad, fill, dst,
      [&](const float* s, size_t plane, size_t lanes, uint8_t* d, size_t n) {
        size_t x = 0;
        for (; x + 8 <= n; x += 8, d += 32) {
          // Eight pixels of the quad: lane l of each dword from plane l.
          const auto lane = [&](size_t l) {
            return l < lanes ? quant_8(_mm256_loadu_ps(s + l * plane + x),
                                       vinv, vzp, vlo, vhi)
                             : vfill;
          };
          __m256i v = _mm256_or_si256(lane(0), _mm256_slli_epi32(lane(1), 8));
          v = _mm256_or_si256(v, _mm256_slli_epi32(lane(2), 16));
          v = _mm256_or_si256(v, _mm256_slli_epi32(lane(3), 24));
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(d), v);
        }
        for (; x < n; ++x, d += 4)
          detail::quantize_quad_pixel(s + x, plane, lanes, inv, zp, levels,
                                      fill, d);
      });
}

float max_abs_f32_avx2(const float* src, size_t n) {
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const auto abs8 = [&](size_t i) {
    return _mm256_and_ps(_mm256_loadu_ps(src + i), absmask);
  };
  // Four independent max chains: max is order-independent, so splitting
  // the reduction only shortens its dependency chain.
  __m256 m0 = _mm256_setzero_ps(), m1 = m0, m2 = m0, m3 = m0;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    m0 = _mm256_max_ps(m0, abs8(i));
    m1 = _mm256_max_ps(m1, abs8(i + 8));
    m2 = _mm256_max_ps(m2, abs8(i + 16));
    m3 = _mm256_max_ps(m3, abs8(i + 24));
  }
  for (; i + 8 <= n; i += 8) m0 = _mm256_max_ps(m0, abs8(i));
  m0 = _mm256_max_ps(_mm256_max_ps(m0, m1), _mm256_max_ps(m2, m3));
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(m0),
                        _mm256_extractf128_ps(m0, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float r = _mm_cvtss_f32(m);
  for (; i < n; ++i) r = std::max(r, std::fabs(src[i]));
  return r;
}

// --- VNNI vpdpbusd kernel --------------------------------------------------

#if defined(ALF_INT8_VNNI)

#define ALF_VNNI_QFN qconv_tile_vnni_vex
#define ALF_VNNI_TARGET "avx2,avxvnni"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_avx_epi32
#include "kernels/int8_dot_vnni.inc"

#define ALF_VNNI_QFN qconv_tile_vnni_evex
#define ALF_VNNI_TARGET "avx2,avx512vnni,avx512vl"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_epi32
#include "kernels/int8_dot_vnni.inc"

/// The 256-bit encoding to run, picked per call like detail::zmm_tile:
/// VEX (no EVEX prefix cost, and what AVX512-less client cores ship) when
/// the feature mask allows AVX-VNNI or the host lacks the EVEX form, else
/// EVEX-256. So ALF_CPU_DISABLE=avxvnni runs the EVEX tiles on a host that
/// has both.
bool vnni_vex() {
  return (allowed_cpu_features() & kCpuAvxVnni) != 0 ||
         (detected_cpu_features() & kCpuAvx512Vnni) == 0;
}

// --- int8-vnni qconv ------------------------------------------------------

/// One k group of a B panel, whose column 0 is at p, as one zmm of 16
/// columns (see load_qrow).
template <PanelMode Mode>
__attribute__((target("avx512f"), always_inline)) inline __m512i load_qrow16(
    const uint8_t* p, size_t half) {
  if constexpr (Mode == PanelMode::kHalves) {
    // The masked form: GCC 12's plain insert reads an undefined source.
    const __m512i lo = _mm512_castsi256_si512(load32(p));
    return _mm512_mask_inserti64x4(lo, 0xFF, lo, load32(p + half), 1);
  } else if constexpr (Mode == PanelMode::kStride2) {
    // The even dwords of [0, 16) and the odd ones of [15, 31): both loads
    // stay inside the span the columns cover.
    const __m512i idx = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 17, 19,
                                          21, 23, 25, 27, 29, 31);
    return _mm512_permutex2var_epi32(_mm512_loadu_si512(p), idx,
                                     _mm512_loadu_si512(p + 60));
  } else {
    return _mm512_loadu_si512(p);
  }
}

/// acc += u8 lanes of b . s8 lanes of w, four per dword (vpdpbusd). One
/// instruction with the accumulator tied in place: with the intrinsic,
/// GCC 12 copied each of the zmm tile's 24 accumulators to a scratch
/// register and spilled it to the stack on every k group.
__attribute__((target("avx512f,avx512vnni"), always_inline)) inline void
dpbusd(__m512i& acc, const __m512i& b, const __m512i& w) {
  asm("vpdpbusd %2, %1, %0" : "+v"(acc) : "v"(b), "v"(w));
}

/// acc[p] += image row b[p] (u8) . one row's four weights (s8) for the
/// tile's P panels.
template <size_t P>
__attribute__((target("avx512f,avx512vnni"), always_inline)) inline void
dp_row(const int8_t* a, const __m512i& b0, const __m512i& b1,
       const __m512i& b2, __m512i& x0, __m512i& x1, __m512i& x2) {
  const __m512i w = _mm512_set1_epi32(load_i32(a));
  dpbusd(x0, b0, w);
  if constexpr (P > 1) dpbusd(x1, b1, w);
  if constexpr (P > 2) dpbusd(x2, b2, w);
}

/// Stores row i of panel p from its zmm of raw sums (QStore), with
/// store_tile's expressions: `corr` is the row's correction, `sa` its A
/// scale. A narrow panel masks its loads of B scales and its store.
__attribute__((target("avx512f"), always_inline)) inline void store_qrow16(
    const QStore& st, size_t i, size_t p, const __m512i& acc,
    const __m512i& corr, float sa) {
  const auto live = static_cast<__mmask16>((1u << st.cols) - 1);
  const __m512 s =
      st.p.b_scales == nullptr
          ? _mm512_set1_ps(sa * st.p.b_scale)
          : _mm512_mul_ps(_mm512_set1_ps(sa),
                          _mm512_maskz_loadu_ps(
                              live, st.p.b_scales + st.j0 + p * kNr));
  // The maskz form: GCC 12's plain conversion reads an undefined source
  // and warns; dead lanes are never stored either way.
  _mm512_mask_storeu_ps(
      st.c + i * st.ldc + p * st.pstep, live,
      _mm512_mul_ps(s, _mm512_maskz_cvtepi32_ps(
                           live, _mm512_sub_epi32(acc, corr))));
}

/// Stores one row's accumulators of the tile's P panels, reading the
/// row's correction and A scale once: C's masked stores may alias them.
template <size_t P>
__attribute__((target("avx512f"), always_inline)) inline void store_qrows16(
    const QStore& st, size_t i, const __m512i& x0, const __m512i& x1,
    const __m512i& x2) {
  const __m512i corr = _mm512_set1_epi32((128 + st.p.b_zp) * st.rowsum[i]);
  const float sa =
      st.p.a_scales != nullptr ? st.p.a_scales[i] : st.p.a_scale;
  store_qrow16(st, i, 0, x0, corr, sa);
  if constexpr (P > 1) store_qrow16(st, i, 1, x1, corr, sa);
  if constexpr (P > 2) store_qrow16(st, i, 2, x2, corr, sa);
}

/// The zmm qconv tile: C rows [i0, i0 + R) of P consecutive B panels, A's
/// rows read in place (row r's k group g is the dword at a + r * lda +
/// 4g). Per k group one B load per panel and one weight broadcast per row
/// feed R * P accumulators (at most 24). Named accumulators keep the sums
/// in registers through the store.
template <size_t R, size_t P, PanelMode Mode>
__attribute__((target("avx512f,avx512vnni"))) void qtile_zmm(
    const int8_t* a, size_t lda, size_t kg, const QPanels& b,
    const QStore& st, size_t i0) {
  static_assert(R >= 1 && R <= 2 * kMr && P >= 1 && P <= kGroup);
  // Row r of A; row 0 stands in for the rows past R, which are never read.
  const int8_t* const a0 = a;
  const int8_t* const a1 = R > 1 ? a + lda : a;
  const int8_t* const a2 = R > 2 ? a + 2 * lda : a;
  const int8_t* const a3 = R > 3 ? a + 3 * lda : a;
  const int8_t* const a4 = R > 4 ? a + 4 * lda : a;
  const int8_t* const a5 = R > 5 ? a + 5 * lda : a;
  const int8_t* const a6 = R > 6 ? a + 6 * lda : a;
  const int8_t* const a7 = R > 7 ? a + 7 * lda : a;
  const size_t* off = b.off;
  const uint8_t* const s0 = b.base[0];
  const uint8_t* const s1 = b.base[P > 1 ? 1 : 0];
  const uint8_t* const s2 = b.base[P > 2 ? 2 : 0];
  const size_t h0 = b.half[0], h1 = b.half[P > 1 ? 1 : 0],
               h2 = b.half[P > 2 ? 2 : 0];
  const __m512i z = _mm512_setzero_si512();
  __m512i c00 = z, c01 = z, c02 = z, c10 = z, c11 = z, c12 = z;
  __m512i c20 = z, c21 = z, c22 = z, c30 = z, c31 = z, c32 = z;
  __m512i c40 = z, c41 = z, c42 = z, c50 = z, c51 = z, c52 = z;
  __m512i c60 = z, c61 = z, c62 = z, c70 = z, c71 = z, c72 = z;
  for (size_t g = 0; g < kg; ++g) {
    const size_t o = qrow_offset<Mode>(off, g), w = 4 * g;
    const __m512i b0 = load_qrow16<Mode>(s0 + o, h0);
    __m512i b1 = b0, b2 = b0;  // unread below P = 2, 3
    if constexpr (P > 1) b1 = load_qrow16<Mode>(s1 + o, h1);
    if constexpr (P > 2) b2 = load_qrow16<Mode>(s2 + o, h2);
    dp_row<P>(a0 + w, b0, b1, b2, c00, c01, c02);
    if constexpr (R > 1) dp_row<P>(a1 + w, b0, b1, b2, c10, c11, c12);
    if constexpr (R > 2) dp_row<P>(a2 + w, b0, b1, b2, c20, c21, c22);
    if constexpr (R > 3) dp_row<P>(a3 + w, b0, b1, b2, c30, c31, c32);
    if constexpr (R > 4) dp_row<P>(a4 + w, b0, b1, b2, c40, c41, c42);
    if constexpr (R > 5) dp_row<P>(a5 + w, b0, b1, b2, c50, c51, c52);
    if constexpr (R > 6) dp_row<P>(a6 + w, b0, b1, b2, c60, c61, c62);
    if constexpr (R > 7) dp_row<P>(a7 + w, b0, b1, b2, c70, c71, c72);
  }
  const QStore out = st;  // a local copy: C's stores cannot alias it
  store_qrows16<P>(out, i0, c00, c01, c02);
  if constexpr (R > 1) store_qrows16<P>(out, i0 + 1, c10, c11, c12);
  if constexpr (R > 2) store_qrows16<P>(out, i0 + 2, c20, c21, c22);
  if constexpr (R > 3) store_qrows16<P>(out, i0 + 3, c30, c31, c32);
  if constexpr (R > 4) store_qrows16<P>(out, i0 + 4, c40, c41, c42);
  if constexpr (R > 5) store_qrows16<P>(out, i0 + 5, c50, c51, c52);
  if constexpr (R > 6) store_qrows16<P>(out, i0 + 6, c60, c61, c62);
  if constexpr (R > 7) store_qrows16<P>(out, i0 + 7, c70, c71, c72);
}

using QTileFn = void (*)(const int8_t*, size_t, size_t, const QPanels&,
                         const QStore&, size_t);

/// qtile_zmm by row count: entry h runs exactly h rows (entry 0 unused).
template <size_t P, PanelMode Mode>
constexpr QTileFn kQTiles[2 * kMr + 1] = {
    nullptr,
    &qtile_zmm<1, P, Mode>,
    &qtile_zmm<2, P, Mode>,
    &qtile_zmm<3, P, Mode>,
    &qtile_zmm<4, P, Mode>,
    &qtile_zmm<5, P, Mode>,
    &qtile_zmm<6, P, Mode>,
    &qtile_zmm<7, P, Mode>,
    &qtile_zmm<8, P, Mode>};

/// 8-row tiles over the m rows of A (row i at a + i * lda), then one tile
/// of exactly the remaining 1-7.
template <size_t P, PanelMode Mode>
void qsweep_zmm(const int8_t* a, size_t lda, size_t m, size_t kg,
                const QPanels& b, const QStore& st) {
  size_t i = 0;
  for (; i + 2 * kMr <= m; i += 2 * kMr)
    qtile_zmm<2 * kMr, P, Mode>(a + i * lda, lda, kg, b, st, i);
  if (i < m) kQTiles<P, Mode>[m - i](a + i * lda, lda, kg, b, st, i);
}

/// expand_panel on 512-bit registers over P panels at once: eight output
/// rows side by side, one zmm of 16 columns per row and panel (up to 24
/// accumulators), so each weight broadcast feeds P FMAs. Every element
/// keeps expand_fmaf's chain.
template <size_t P>
__attribute__((target("avx512f"))) void expand_zmm(const float* wdeq,
                                                  size_t co, size_t m,
                                                  const float* v,
                                                  float* exp) {
  constexpr size_t kRows = 2 * kMr;
  const size_t vs = m * kNr, es = co * kNr;
  size_t o = 0;
  for (; o + kRows <= co; o += kRows) {
    __m512 acc[kRows][P];
    for (size_t i = 0; i < kRows; ++i)
      for (size_t q = 0; q < P; ++q) acc[i][q] = _mm512_setzero_ps();
    for (size_t r = 0; r < m; ++r) {
      __m512 vr[P];
      for (size_t q = 0; q < P; ++q)
        vr[q] = _mm512_loadu_ps(v + q * vs + r * kNr);
      for (size_t i = 0; i < kRows; ++i) {
        const __m512 w = _mm512_set1_ps(wdeq[(o + i) * m + r]);
        for (size_t q = 0; q < P; ++q)
          acc[i][q] = _mm512_fmadd_ps(w, vr[q], acc[i][q]);
      }
    }
    for (size_t i = 0; i < kRows; ++i)
      for (size_t q = 0; q < P; ++q)
        _mm512_storeu_ps(exp + q * es + (o + i) * kNr, acc[i][q]);
  }
  for (; o < co; ++o) {
    __m512 acc[P];
    for (size_t q = 0; q < P; ++q) acc[q] = _mm512_setzero_ps();
    for (size_t r = 0; r < m; ++r) {
      const __m512 w = _mm512_set1_ps(wdeq[o * m + r]);
      for (size_t q = 0; q < P; ++q)
        acc[q] = _mm512_fmadd_ps(w, _mm512_loadu_ps(v + q * vs + r * kNr),
                                 acc[q]);
    }
    for (size_t q = 0; q < P; ++q)
      _mm512_storeu_ps(exp + q * es + o * kNr, acc[q]);
  }
}

void expand_fma_zmm(const float* wdeq, size_t co, size_t m, size_t np,
                    const float* v, float* exp) {
  if (np == 1)
    expand_zmm<1>(wdeq, co, m, v, exp);
  else if (np == 2)
    expand_zmm<2>(wdeq, co, m, v, exp);
  else
    expand_zmm<3>(wdeq, co, m, v, exp);
}

void qconv_vnni(const int8_t* a, size_t lda, const uint8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, const ConvEpilogue* ep) {
  if (p.a_zp != 0) {
    detail::qconv_unfold(a, lda, x, s, c, ldc, m, p, ep);
    return;
  }
  const size_t kg = detail::quad_groups(s);
  thread_local std::vector<int32_t> rowsum_tls;
  rowsum_tls.resize(m);
  qconv_rowsums(a, lda, m, s.qk(), rowsum_tls.data());
  if (detail::zmm_tile(kCpuAvx512Vnni)) {
    qconv_run(x, s, c, ldc, m, p, rowsum_tls.data(), ep,
              {.group = kGroup, .expand = &expand_fma_zmm},
              [=](const QPanels& b, const QStore& st) {
                with_mode(b.mode, [&](auto mode) {
                  constexpr PanelMode M = decltype(mode)::value;
                  if (b.np == 1)
                    qsweep_zmm<1, M>(a, lda, m, kg, b, st);
                  else if (b.np == 2)
                    qsweep_zmm<2, M>(a, lda, m, kg, b, st);
                  else
                    qsweep_zmm<3, M>(a, lda, m, kg, b, st);
                });
              });
    return;
  }
  const bool vex = vnni_vex();
  qconv_run(x, s, c, ldc, m, p, rowsum_tls.data(), ep,
            {.group = 1, .expand = &expand_fma},
            [=](const QPanels& b, const QStore& st) {
              with_mode(b.mode, [&](auto mode) {
                constexpr PanelMode M = decltype(mode)::value;
                const auto tile =
                    vex ? &qconv_tile_vnni_vex<M> : &qconv_tile_vnni_evex<M>;
                alignas(32) int32_t acc[kMr * kNr];
                for (size_t i = 0; i < m; i += kMr) {
                  const size_t pr = std::min(kMr, m - i);
                  tile(a + i * lda, lda, pr, kg, b.base[0], b.half[0], b.off,
                       acc);
                  store_tile(st, i, pr, acc);
                }
              });
            });
}

#endif  // ALF_INT8_VNNI

}  // namespace

#endif  // ALF_INT8_DOT

namespace detail {

StorePanelFn store_panel_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0) return &store_panel_avx2;
#endif
  return nullptr;
}

QuantizePadFn quantize_pad_i8_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &quantize_pad_i8_avx2;
#endif
  return nullptr;
}

MaxAbsFn max_abs_f32_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &max_abs_f32_avx2;
#endif
  return nullptr;
}

}  // namespace detail

const KernelBackend* int8_avx2_backend() {
#if defined(ALF_INT8_DOT)
  // FMA too: the qconv epilogue's expansion (expand_fma) executes it.
  constexpr uint32_t kNeeds = kCpuAvx2 | kCpuFma;
  if ((detected_cpu_features() & kNeeds) == kNeeds) {
    static const KernelBackend be{
        .name = "int8-avx2",
        .quantized_datapath = true,
        .required_features = kNeeds,
        .gemm = &detail::gemm_forward_best_float,
        .qgemm = &detail::qgemm_int8,
        .qconv = &qconv_avx2,
    };
    return &be;
  }
#endif
  return nullptr;
}

const KernelBackend* int8_vnni_backend() {
#if defined(ALF_INT8_VNNI)
  const uint32_t det = detected_cpu_features();
  if ((det & (kCpuAvxVnni | kCpuAvx512Vnni)) != 0) {
    static const KernelBackend be{
        .name = "int8-vnni",
        .quantized_datapath = true,
        .required_features = (detected_cpu_features() & kCpuAvxVnni) != 0
                                 ? static_cast<uint32_t>(kCpuAvxVnni)
                                 : static_cast<uint32_t>(kCpuAvx512Vnni),
        .gemm = &detail::gemm_forward_best_float,
        .qgemm = &detail::qgemm_int8,
        .qconv = &qconv_vnni,
    };
    return &be;
  }
#endif
  return nullptr;
}

}  // namespace alf::kernels
