// Register-tiled int8 qgemm kernels over x86 dot-product instructions:
//
//   int8-avx2 — sign-extends A/B to int16 pairs at pack time and uses
//               vpmaddwd (exact: s8-ranged products can never saturate the
//               32-bit lanes, unlike vpmaddubsw whose 16-bit intermediate
//               overflows at 255*127*2).
//   int8-vnni — vpdpbusd, VEX (AVX-VNNI) or EVEX-256 (AVX512-VNNI+VL)
//               encoding, whichever the CPU has. vpdpbusd is u8*s8, so A
//               is packed as u8 = s8 + 128 (a byte XOR 0x80) and the shift
//               is folded into the zero-point decomposition by using
//               azp_eff = a_zp + 128 against the unsigned row sums.
//
// Both kernels share one structure: B is packed once per call (serially,
// by the calling thread) into kNr-column-interleaved panels whose k groups
// match the instruction's step (int16 pairs / byte quads), then the row
// range is partitioned exactly like every other backend (rows are the only
// parallel axis) and each worker packs its own A rows into kMr-row panels
// and sweeps all B panels with an 8-accumulator 4x16 register tile.
// int8-vnni also has an 8x16 tile over 512-bit vpdpbusd, which reads two
// consecutive A panels against one B panel with one zmm accumulator per
// row; it runs when the feature mask allows AVX-512F and AVX512-VNNI
// (detail::zmm_tile), a trailing odd panel keeps the 4x16 tile, and both
// store through store_tile. The packed layouts are the same for both.
//
// Both also implement qconv, the same product with B the implicit unfold
// of zero-point-padded int8 images: A is packed once, then the column
// panels are the parallel axis — each worker gathers one B panel (and its
// column sums) straight from the images into an L1-resident buffer and
// sweeps every A panel against it, so the unfold never exists in memory.
// The gather (one shared 16-column row loader) takes a single 16-byte load
// when the panel's columns are consecutive bytes — stride 1 inside one
// output row — two 8-byte loads for two such half-rows, one shuffle pair
// for stride 2 inside one row, and a per-column byte gather otherwise
// (which also covers panels straddling two images).
//
// Bit-identity with the scalar oracle (qgemm_int8_body) is structural:
// integer accumulation is exact in any order, zero-point corrections are
// integer, and store_tile() replicates the oracle's float expressions
// operation for operation. That also makes results independent of the
// thread partition for free.
//
// This TU is compiled with -mavx2 when CMake's ALF_SIMD is ON (see
// set_source_files_properties); the VNNI and AVX-512 kernels carry
// per-function target attributes. Without it — or on non-x86 hosts — the
// factories return nullptr and the generic int8 backend stays on the
// portable body.
#include <cmath>
#include <cstdint>

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
static_assert(kNr == detail::kPanelCols, "qconv gathers whole B panels");
/// Below this madd count the pack/correction overhead loses to the plain
/// body; delegate there (bit-identical, so the cutoff is invisible).
constexpr size_t kScalarCutoffMadds = size_t{1} << 12;

inline int32_t load_i32(const void* p) {
  int32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Applies the zero-point corrections to one kMr x kNr integer tile and
/// requantizes into C. The float expressions below must stay operation-
/// for-operation identical to qgemm_int8_body's store loop — that is what
/// makes every backend bit-identical.
///
/// `acc` holds the raw dot products Σ_k a'[i,k]*b[k,j] (a' being whatever
/// encoding the kernel packed: signed for avx2, +128-shifted unsigned for
/// vnni). `azp_eff` is the zero point in that same encoding and `rowsum`
/// (nullable when bzp == 0) the per-row sums of a', indexed from the tile's
/// first row. `colsum` (nullable when azp_eff == 0) likewise, indexed from
/// the tile's first column. `ctile` is where the tile's element (i0, j0)
/// goes; its rows are ldc floats apart.
inline void store_tile(const int32_t* acc, size_t i0, size_t pr, size_t j0,
                       size_t cols, size_t k, const int32_t* colsum,
                       const int32_t* rowsum, int32_t azp_eff, int32_t bzp,
                       const QgemmParams& p, float* ctile, size_t ldc) {
  const int32_t kzz = static_cast<int32_t>(k) * azp_eff * bzp;
  if (cols == kNr) {
    // Full tile: the whole epilogue in two ymm per row. The integer
    // corrections are exact either way and the float ops below pair up
    // 1:1 (same association) with the scalar branch, so both store
    // bit-identical values.
    __m256i corr0 = _mm256_setzero_si256();
    __m256i corr1 = _mm256_setzero_si256();
    if (azp_eff != 0) {
      const __m256i az = _mm256_set1_epi32(azp_eff);
      corr0 = _mm256_mullo_epi32(
          az, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum)));
      corr1 = _mm256_mullo_epi32(
          az,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum + 8)));
    }
    __m256 bs0 = _mm256_setzero_ps(), bs1 = _mm256_setzero_ps();
    if (p.b_scales != nullptr) {
      bs0 = _mm256_loadu_ps(p.b_scales + j0);
      bs1 = _mm256_loadu_ps(p.b_scales + j0 + 8);
    }
    for (size_t r = 0; r < pr; ++r) {
      const size_t i = i0 + r;
      const int32_t row_corr =
          kzz - (rowsum != nullptr ? bzp * rowsum[r] : 0);
      const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
      const int32_t* arow = acc + r * kNr;
      const __m256i rc = _mm256_set1_epi32(row_corr);
      __m256i v0 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow)), rc);
      __m256i v1 = _mm256_add_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + 8)),
          rc);
      v0 = _mm256_sub_epi32(v0, corr0);
      v1 = _mm256_sub_epi32(v1, corr1);
      __m256 s0, s1;
      if (p.b_scales == nullptr) {
        s0 = s1 = _mm256_set1_ps(sa * p.b_scale);
      } else {
        const __m256 sav = _mm256_set1_ps(sa);
        s0 = _mm256_mul_ps(sav, bs0);
        s1 = _mm256_mul_ps(sav, bs1);
      }
      float* crow = ctile + r * ldc;
      _mm256_storeu_ps(crow, _mm256_mul_ps(s0, _mm256_cvtepi32_ps(v0)));
      _mm256_storeu_ps(crow + 8,
                       _mm256_mul_ps(s1, _mm256_cvtepi32_ps(v1)));
    }
    return;
  }
  for (size_t r = 0; r < pr; ++r) {
    const size_t i = i0 + r;
    const int32_t row_corr = kzz - (rowsum != nullptr ? bzp * rowsum[r] : 0);
    const float sa = p.a_scales != nullptr ? p.a_scales[i] : p.a_scale;
    const float scale = sa * p.b_scale;
    float* crow = ctile + r * ldc;
    const int32_t* arow = acc + r * kNr;
    for (size_t j = 0; j < cols; ++j) {
      int32_t v = arow[j] + row_corr;
      if (azp_eff != 0) v -= azp_eff * colsum[j];
      crow[j] = p.b_scales == nullptr
                    ? scale * static_cast<float>(v)
                    : sa * p.b_scales[j0 + j] * static_cast<float>(v);
    }
  }
}

/// An 8x16 register tile over two consecutive kMr-row panels of an A pack:
/// (panel, panel stride, B panel, k groups, acc). It writes the two 4x16
/// int32 tiles the 4x16 kernel would produce for those panels, back to back
/// (integer sums are exact, so the order inside the tile never shows).
template <typename TA, typename TB>
using WideMicroFn = void (*)(const TA*, size_t, const TB*, size_t, int32_t*);

/// Runs `rpan` packed A row panels (`a_panel` elements apart) against one
/// B panel over `kg` k groups and hands each 4x16 int32 tile to
/// `store(rp, tile)`. With `wide` non-null, panel pairs run the 8x16 tile
/// and a trailing odd panel runs `micro`.
template <typename TA, typename TB, typename Micro, typename Store>
inline void sweep_panels(const TA* apack, size_t a_panel, size_t rpan,
                         const TB* bpanel, size_t kg, const Micro& micro,
                         WideMicroFn<TA, TB> wide, const Store& store) {
  alignas(64) int32_t acc[2 * kMr * kNr];
  size_t rp = 0;
  if (wide != nullptr)
    for (; rp + 1 < rpan; rp += 2) {
      wide(apack + rp * a_panel, a_panel, bpanel, kg, acc);
      store(rp, acc);
      store(rp + 1, acc + kMr * kNr);
    }
  for (; rp < rpan; ++rp) {
    micro(apack + rp * a_panel, bpanel, kg, acc);
    store(rp, acc);
  }
}

// --- qconv B gather ----------------------------------------------------------

/// The shared 16-column gather: row `x` (images + the row's tap offset) of
/// one panel as 16 bytes, zero past the panel's last column. Every load
/// stays inside the bytes the panel's columns address.
template <PanelMode Mode>
inline __m128i gather_row16(const int8_t* x, const ConvPanel& pn) {
  if constexpr (Mode == PanelMode::kContiguous) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + pn.off[0]));
  } else if constexpr (Mode == PanelMode::kHalves) {
    return _mm_unpacklo_epi64(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + pn.off[0])),
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + pn.off[8])));
  } else if constexpr (Mode == PanelMode::kStride2) {
    // Columns at off0 + 2t, t < 16: the even bytes of [off0, off0 + 16)
    // and the odd bytes of [off0 + 15, off0 + 31) — both inside the
    // 31-byte span the columns cover.
    const int8_t* p = x + pn.off[0];
    const __m128i even = _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1,
                                       -1, -1, -1, -1, -1);
    const __m128i odd = _mm_setr_epi8(1, 3, 5, 7, 9, 11, 13, 15, -1, -1, -1,
                                      -1, -1, -1, -1, -1);
    const __m128i lo = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), even);
    const __m128i hi = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 15)), odd);
    return _mm_unpacklo_epi64(lo, hi);
  } else {
    alignas(16) int8_t tmp[kNr] = {};
    for (size_t t = 0; t < pn.cols; ++t) tmp[t] = x[pn.off[t]];
    return _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
  }
}

/// Packs one B panel of G-row groups from the padded images: `emit` turns
/// G gathered rows into the kernel's interleaved group layout at `dst`
/// (G * kNr elements per group; rows past k are zero). When `colsum` is
/// non-null it receives the panel's 16 column sums, accumulated from the
/// same gathered rows (int16 lanes, widened every 256 rows — 256 int8
/// values always fit an int16).
template <PanelMode Mode, size_t G, typename T, typename Emit>
void pack_conv_panel_mode(const int8_t* x, const ConvPanel& pn,
                          const size_t* koff, size_t k, const Emit& emit,
                          T* dst, int32_t* colsum) {
  const size_t kg = (k + G - 1) / G;
  __m256i s16 = _mm256_setzero_si256();
  __m256i lo = _mm256_setzero_si256(), hi = _mm256_setzero_si256();
  const auto flush = [&] {
    lo = _mm256_add_epi32(lo,
                          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(s16)));
    hi = _mm256_add_epi32(
        hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(s16, 1)));
    s16 = _mm256_setzero_si256();
  };
  for (size_t q = 0; q < kg; ++q) {
    __m128i rows[G];
    for (size_t g = 0; g < G; ++g) {
      const size_t kk = q * G + g;
      rows[g] = kk < k ? gather_row16<Mode>(x + koff[kk], pn)
                       : _mm_setzero_si128();
      if (colsum != nullptr)
        s16 = _mm256_add_epi16(s16, _mm256_cvtepi8_epi16(rows[g]));
    }
    emit(rows, dst + q * G * kNr);
    if (colsum != nullptr && (q + 1) % (256 / G) == 0) flush();
  }
  if (colsum != nullptr) {
    flush();
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + 8), hi);
  }
}

template <size_t G, typename T, typename Emit>
void pack_conv_panel(const int8_t* x, const ConvPanel& pn, const size_t* koff,
                     size_t k, const Emit& emit, T* dst, int32_t* colsum) {
  switch (pn.mode) {
    case PanelMode::kContiguous:
      pack_conv_panel_mode<PanelMode::kContiguous, G>(x, pn, koff, k, emit,
                                                      dst, colsum);
      return;
    case PanelMode::kHalves:
      pack_conv_panel_mode<PanelMode::kHalves, G>(x, pn, koff, k, emit, dst,
                                                  colsum);
      return;
    case PanelMode::kStride2:
      pack_conv_panel_mode<PanelMode::kStride2, G>(x, pn, koff, k, emit, dst,
                                                   colsum);
      return;
    case PanelMode::kGather:
      pack_conv_panel_mode<PanelMode::kGather, G>(x, pn, koff, k, emit, dst,
                                                  colsum);
      return;
  }
}

/// The int8 expansion of one panel (backend.hpp ConvEpilogue): exp[o][j]
/// = the FMA chain over r in order, from +0, of wdeq[o][r] * v[r][j], for
/// all co rows and 16 columns ([m][kNr] in, [co][kNr] out). Four output
/// rows run side by side; every element keeps expand_fmaf's chain, and a
/// vector FMA rounds once like std::fmaf, so the two agree bit for bit.
__attribute__((target("avx2,fma"))) void expand_fma(const float* wdeq,
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

/// The qconv driver shared by both kernels. `pack_a(r0, r1, dst, rowsum)`
/// packs A rows into the kernel's kMr-row panels (row sums in the kernel's
/// A encoding, when bzp != 0), `emit` one B group, and `micro` / `wide`
/// (nullable) run the register tiles over `kg` groups (see sweep_panels).
/// A is packed once by the caller; column panels are then partitioned
/// across workers, each gathering its panel into a private buffer — the
/// integer result of every C element is exact, so the partition never
/// shows in the output. With an epilogue, store_tile writes each panel's
/// rows to a private [m][kNr] buffer instead of C, which is then finished
/// in L1: the inner activation and the FMA expansion when there is one,
/// then the epilogue store.
template <size_t G, typename TA, typename TB, typename PackA, typename Emit,
          typename Micro>
void qconv_driver(const int8_t* x, const ConvShape& s, float* c, size_t ldc,
                  size_t m, const QgemmParams& p, int32_t azp_eff,
                  const PackA& pack_a, const Emit& emit, const Micro& micro,
                  WideMicroFn<TA, TB> wide, const ConvEpilogue* ep) {
  const size_t k = s.k(), n = s.n(), plane = s.out_h() * s.out_w();
  const int32_t bzp = p.b_zp;
  const size_t kg = (k + G - 1) / G;
  const size_t rpan = (m + kMr - 1) / kMr;
  const size_t a_panel = kg * G * kMr;
  const size_t b_panel = kg * G * kNr;
  // Caller-thread scratch reached by the workers through plain pointers
  // (see qgemm_int8_body); the caller blocks until they finish.
  thread_local std::vector<TA> apack_tls;
  thread_local std::vector<int32_t> rowsum_tls;
  thread_local std::vector<size_t> koff_tls;
  thread_local std::vector<float> wdeq_tls;
  apack_tls.resize(rpan * a_panel);
  TA* const apack = apack_tls.data();
  int32_t* rowsum = nullptr;
  if (bzp != 0) {
    rowsum_tls.resize(m);
    rowsum = rowsum_tls.data();
  }
  pack_a(size_t{0}, m, apack, rowsum);
  koff_tls.resize(k);
  size_t* const koff = koff_tls.data();
  detail::conv_tap_offsets(s, koff);
  // The expansion's dequantized weights, the same float(qw) * scale
  // product expand_fmaf forms.
  const size_t co = ep != nullptr ? ep->co : 0;
  wdeq_tls.resize(co * m);
  float* const wdeq = wdeq_tls.data();
  for (size_t o = 0; o < co; ++o)
    for (size_t r = 0; r < m; ++r)
      wdeq[o * m + r] =
          static_cast<float>(ep->exp_qw[o * m + r]) * ep->exp_scales[o];

  const auto process_panels = [=, &emit, &micro](size_t p0, size_t p1) {
    thread_local std::vector<TB> bpanel_tls;
    thread_local std::vector<float> out_tls;
    bpanel_tls.resize(b_panel);
    TB* const bpanel = bpanel_tls.data();
    float* buf = nullptr;
    if (ep != nullptr) {
      out_tls.resize((m + co) * kNr);
      buf = out_tls.data();
    }
    alignas(32) int32_t colsum[kNr] = {};
    for (size_t jp = p0; jp < p1; ++jp) {
      const size_t j0 = jp * kNr;
      const ConvPanel pn = detail::map_panel(s, j0, n);
      pack_conv_panel<G>(x, pn, koff, k, emit, bpanel,
                         azp_eff != 0 ? colsum : nullptr);
      sweep_panels(apack, a_panel, rpan, bpanel, kg, micro, wide,
                   [&](size_t rp, const int32_t* acc) {
                     const size_t i0 = rp * kMr;
                     store_tile(acc, i0, std::min(kMr, m - i0), j0, pn.cols,
                                k, colsum,
                                rowsum != nullptr ? rowsum + i0 : nullptr,
                                azp_eff, bzp, p,
                                buf != nullptr ? buf + i0 * kNr
                                               : c + i0 * ldc + j0,
                                buf != nullptr ? kNr : ldc);
                   });
      if (buf == nullptr) continue;
      if (co == 0) {
        detail::store_panel(*ep, m, plane, buf, kNr, j0, pn.cols);
        continue;
      }
      detail::act_rows(ep->inner_act, buf, kNr, m, pn.cols);
      expand_fma(wdeq, co, m, buf, buf + m * kNr);
      detail::store_panel(*ep, co, plane, buf + m * kNr, kNr, j0, pn.cols);
    }
  };
  partition((n + kNr - 1) / kNr, m * k * kNr, process_panels);
}

// --- AVX2 vpmaddwd kernel --------------------------------------------------

/// 4x16 tile over int16 pairs: `ap` is [k/2][4 rows][2 k] int16, `bp` is
/// [k/2][16 cols][2 k] int16 (64 bytes — a cache line — per pair step).
/// vpmaddwd multiplies the (k0,k1) pair against each column's matching pair
/// and adds horizontally into the int32 lane; s8-ranged operands keep
/// every intermediate far from the lane limits, so accumulation is exact.
void qgemm_micro_avx2(const int16_t* ap, const int16_t* bp, size_t kp,
                      int32_t* acc) {
  __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
  for (size_t q = 0; q < kp; ++q) {
    const __m256i b0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bp + 16));
    bp += 32;
    __m256i va = _mm256_set1_epi32(load_i32(ap));
    c00 = _mm256_add_epi32(c00, _mm256_madd_epi16(va, b0));
    c01 = _mm256_add_epi32(c01, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 2));
    c10 = _mm256_add_epi32(c10, _mm256_madd_epi16(va, b0));
    c11 = _mm256_add_epi32(c11, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 4));
    c20 = _mm256_add_epi32(c20, _mm256_madd_epi16(va, b0));
    c21 = _mm256_add_epi32(c21, _mm256_madd_epi16(va, b1));
    va = _mm256_set1_epi32(load_i32(ap + 6));
    c30 = _mm256_add_epi32(c30, _mm256_madd_epi16(va, b0));
    c31 = _mm256_add_epi32(c31, _mm256_madd_epi16(va, b1));
    ap += 8;
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

/// colsum[j] = sum over k of B[kk][j], vectorized 16 columns at a time
/// with the accumulators held in registers across the whole k sweep.
inline void colsum_s8(const int8_t* b, size_t ldb, size_t k, size_t n,
                      int32_t* colsum) {
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256i lo = _mm256_setzero_si256();
    __m256i hi = _mm256_setzero_si256();
    for (size_t kk = 0; kk < k; ++kk) {
      const __m256i v16 = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(b + kk * ldb + j)));
      lo = _mm256_add_epi32(
          lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(v16)));
      hi = _mm256_add_epi32(
          hi, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(v16, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + j), lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + j + 8), hi);
  }
  for (; j < n; ++j) {
    int32_t s = 0;
    for (size_t kk = 0; kk < k; ++kk)
      s += static_cast<int32_t>(b[kk * ldb + j]);
    colsum[j] = s;
  }
}

inline __m128i load16(const int8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Packs one full 2-k x 16-col B tile into the [16 cols][2 k] int16 pair
/// layout: sign-extend both rows, interleave words, then fix the lane
/// order (unpack interleaves per 128-bit lane).
inline void pack_b_pair16(__m128i r0, __m128i r1, int16_t* dst) {
  const __m256i a = _mm256_cvtepi8_epi16(r0);
  const __m256i b = _mm256_cvtepi8_epi16(r1);
  const __m256i lo = _mm256_unpacklo_epi16(a, b);
  const __m256i hi = _mm256_unpackhi_epi16(a, b);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permute2x128_si256(lo, hi, 0x20));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 16),
                      _mm256_permute2x128_si256(lo, hi, 0x31));
}

/// Packs one full 4-k x 16-col B tile into the [16 cols][4 k] byte-quad
/// layout — a 4x16 byte transpose in two unpack stages.
inline void pack_b_quad16(__m128i a, __m128i b, __m128i c, __m128i d,
                          int8_t* dst) {
  const __m128i ab_lo = _mm_unpacklo_epi8(a, b);  // a0 b0 a1 b1 .. (cols 0-7)
  const __m128i ab_hi = _mm_unpackhi_epi8(a, b);  // cols 8-15
  const __m128i cd_lo = _mm_unpacklo_epi8(c, d);
  const __m128i cd_hi = _mm_unpackhi_epi8(c, d);
  __m128i* out = reinterpret_cast<__m128i*>(dst);
  _mm_storeu_si128(out + 0, _mm_unpacklo_epi16(ab_lo, cd_lo));  // cols 0-3
  _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(ab_lo, cd_lo));  // cols 4-7
  _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(ab_hi, cd_hi));  // cols 8-11
  _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(ab_hi, cd_hi));  // 12-15
}

/// Packs A rows [r0, r1) into kMr-row panels of [k/2][kMr rows][2 k]
/// int16 (zero-padded past k and past r1), and — when `rowsum` is
/// non-null — their signed row sums, indexed from r0.
void pack_a_pairs(const int8_t* a, size_t lda, size_t r0, size_t r1,
                  size_t k, int16_t* apack, int32_t* rowsum) {
  const size_t kp = (k + 1) / 2;
  const size_t rpan = (r1 - r0 + kMr - 1) / kMr;
  for (size_t rp = 0; rp < rpan; ++rp) {
    int16_t* panel = apack + rp * kp * 2 * kMr;
    const size_t i0 = r0 + rp * kMr;
    const size_t pr = std::min(kMr, r1 - i0);
    for (size_t q = 0; q < kp; ++q) {
      const size_t k0 = 2 * q;
      const size_t ks = std::min<size_t>(2, k - k0);
      int16_t* dst = panel + q * (2 * kMr);
      std::memset(dst, 0, 2 * kMr * sizeof(int16_t));
      for (size_t r = 0; r < pr; ++r) {
        const int8_t* arow = a + (i0 + r) * lda + k0;
        for (size_t s = 0; s < ks; ++s)
          dst[r * 2 + s] = static_cast<int16_t>(arow[s]);
      }
    }
    if (rowsum != nullptr) {
      for (size_t r = 0; r < pr; ++r) {
        const int8_t* arow = a + (i0 + r) * lda;
        int32_t s = 0;
        for (size_t kk = 0; kk < k; ++kk) s += static_cast<int32_t>(arow[kk]);
        rowsum[i0 - r0 + r] = s;
      }
    }
  }
}

void qgemm_avx2(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  if (m * k * n < kScalarCutoffMadds) {
    detail::qgemm_int8(a, lda, b, ldb, c, ldc, m, k, n, p);
    return;
  }
  const int32_t azp = p.a_zp, bzp = p.b_zp;
  const size_t kp = (k + 1) / 2;
  const size_t npan = (n + kNr - 1) / kNr;
  const size_t b_panel_words = kp * 2 * kNr;
  // Pack op-ready B panels once, shared read-only across the row
  // partition (the caller blocks in parallel_for_chunked, so the
  // thread_local buffers outlive every worker's use of them).
  thread_local std::vector<int16_t> bpack_tls;
  thread_local std::vector<int32_t> colsum_tls;
  bpack_tls.resize(npan * b_panel_words);
  int16_t* const bpack = bpack_tls.data();
  int32_t* colsum = nullptr;
  if (azp != 0) {
    colsum_tls.resize(n);
    colsum = colsum_tls.data();
    colsum_s8(b, ldb, k, n, colsum);
  }
  for (size_t jp = 0; jp < npan; ++jp) {
    int16_t* panel = bpack + jp * b_panel_words;
    const size_t j0 = jp * kNr;
    const size_t cols = std::min(kNr, n - j0);
    for (size_t q = 0; q < kp; ++q) {
      const size_t k0 = 2 * q;
      const size_t ks = std::min<size_t>(2, k - k0);
      int16_t* dst = panel + q * (2 * kNr);
      if (cols == kNr && ks == 2) {
        // Full tile: vector transpose (16-byte loads stay in bounds —
        // j0 + kNr <= n <= ldb).
        const int8_t* brow = b + k0 * ldb + j0;
        pack_b_pair16(load16(brow), load16(brow + ldb), dst);
        continue;
      }
      std::memset(dst, 0, 2 * kNr * sizeof(int16_t));
      for (size_t s = 0; s < ks; ++s) {
        const int8_t* brow = b + (k0 + s) * ldb + j0;
        for (size_t cc = 0; cc < cols; ++cc)
          dst[cc * 2 + s] = static_cast<int16_t>(brow[cc]);
      }
    }
  }

  const auto process_rows = [=](size_t r0, size_t r1) {
    thread_local std::vector<int16_t> apack_tls;
    thread_local std::vector<int32_t> rowsum_tls;
    const size_t rows = r1 - r0;
    const size_t rpan = (rows + kMr - 1) / kMr;
    const size_t a_panel_words = kp * 2 * kMr;
    apack_tls.resize(rpan * a_panel_words);
    int16_t* const apack = apack_tls.data();
    int32_t* rowsum = nullptr;
    if (bzp != 0) {
      rowsum_tls.resize(rows);
      rowsum = rowsum_tls.data();
    }
    pack_a_pairs(a, lda, r0, r1, k, apack, rowsum);
    alignas(32) int32_t acc[kMr * kNr];
    for (size_t jp = 0; jp < npan; ++jp) {
      const size_t j0 = jp * kNr;
      const size_t cols = std::min(kNr, n - j0);
      const int16_t* bpanel = bpack + jp * b_panel_words;
      for (size_t rp = 0; rp < rpan; ++rp) {
        const size_t i0 = r0 + rp * kMr;
        const size_t pr = std::min(kMr, r1 - i0);
        qgemm_micro_avx2(apack + rp * a_panel_words, bpanel, kp, acc);
        store_tile(acc, i0, pr, j0, cols, k,
                   colsum != nullptr ? colsum + j0 : nullptr,
                   rowsum != nullptr ? rowsum + (i0 - r0) : nullptr, azp, bzp,
                   p, c + i0 * ldc + j0, ldc);
      }
    }
  };
  partition(m, k * n, process_rows);
}

void qconv_avx2(const int8_t* a, size_t lda, const int8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, int8_t* /*scratch*/,
                const ConvEpilogue* ep) {
  const size_t k = s.k();
  qconv_driver<2, int16_t, int16_t>(
      x, s, c, ldc, m, p, p.a_zp,
      [&](size_t r0, size_t r1, int16_t* dst, int32_t* rowsum) {
        pack_a_pairs(a, lda, r0, r1, k, dst, rowsum);
      },
      [](const __m128i* rows, int16_t* dst) {
        pack_b_pair16(rows[0], rows[1], dst);
      },
      &qgemm_micro_avx2, WideMicroFn<int16_t, int16_t>{nullptr}, ep);
}

// --- Quantize helpers ------------------------------------------------------

/// Narrows two ymm of clamped int32 (16 lanes, in order) to 16 int8.
/// packs_epi32/16 interleave per 128-bit lane, hence the qword shuffle;
/// saturation never fires — the inputs are pre-clamped to ±levels.
inline void store_16xi8(__m256i a, __m256i b, int8_t* dst) {
  __m256i w = _mm256_packs_epi32(a, b);   // [a0-3 b0-3 | a4-7 b4-7] words
  w = _mm256_permute4x64_epi64(w, 0xD8);  // [a0-7 | b0-7] words
  const __m256i bytes = _mm256_packs_epi16(w, w);
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst),
                   _mm256_castsi256_si128(bytes));
  _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 8),
                   _mm256_extracti128_si256(bytes, 1));
}

inline __m256i quant_8(__m256 v, __m256 vinv, __m256i vzp, __m256i vlo,
                       __m256i vhi) {
  // cvtps_epi32 rounds per MXCSR — nearest-even, exactly the scalar
  // tail's rintf. Inputs are bounded by the caller's max-abs scaling, so
  // the out-of-range indefinite result can't occur.
  __m256i q = _mm256_cvtps_epi32(_mm256_mul_ps(v, vinv));
  q = _mm256_add_epi32(q, vzp);
  return _mm256_min_epi32(_mm256_max_epi32(q, vlo), vhi);
}

void quantize_row_i8_avx2(const float* src, int8_t* dst, size_t n, float inv,
                          int32_t zp, int32_t levels) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i vzp = _mm256_set1_epi32(zp);
  const __m256i vlo = _mm256_set1_epi32(-levels);
  const __m256i vhi = _mm256_set1_epi32(levels);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i a =
        quant_8(_mm256_loadu_ps(src + i), vinv, vzp, vlo, vhi);
    const __m256i b =
        quant_8(_mm256_loadu_ps(src + i + 8), vinv, vzp, vlo, vhi);
    store_16xi8(a, b, dst + i);
  }
  if (i + 8 <= n) {
    // Half step: the engine quantizes image rows, and 8-wide maps would
    // otherwise fall entirely to the scalar tail.
    const __m256i a =
        quant_8(_mm256_loadu_ps(src + i), vinv, vzp, vlo, vhi);
    __m256i w = _mm256_packs_epi32(a, a);
    w = _mm256_permute4x64_epi64(w, 0xD8);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i),
                     _mm256_castsi256_si128(_mm256_packs_epi16(w, w)));
    i += 8;
  }
  for (; i < n; ++i) {
    int32_t v = static_cast<int32_t>(std::rintf(src[i] * inv)) + zp;
    v = std::min(levels, std::max(-levels, v));
    dst[i] = static_cast<int8_t>(v);
  }
}

void quantize_pad_i8_avx2(const float* src, size_t planes, size_t h,
                          size_t w, size_t pad, float inv, int32_t zp,
                          int32_t levels, int8_t* dst) {
  detail::pad_planes(
      src, planes, h, w, pad, static_cast<int8_t>(zp), dst,
      [&](const float* s, int8_t* d, size_t n) {
        quantize_row_i8_avx2(s, d, n, inv, zp, levels);
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

using VnniMicroFn = void (*)(const uint8_t*, const int8_t*, size_t, int32_t*);

#define ALF_VNNI_FN qgemm_micro_vnni_vex
#define ALF_VNNI_TARGET "avx2,avxvnni"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_avx_epi32
#include "kernels/int8_dot_vnni.inc"

#define ALF_VNNI_FN qgemm_micro_vnni_evex
#define ALF_VNNI_TARGET "avx2,avx512vnni,avx512vl"
#define ALF_VNNI_DPBUSD _mm256_dpbusd_epi32
#include "kernels/int8_dot_vnni.inc"

/// The flavor the host can execute; VEX preferred (no EVEX prefix cost,
/// and it is what AVX512-less client cores ship). Resolved once.
VnniMicroFn vnni_micro() {
  static const VnniMicroFn fn =
      (detected_cpu_features() & kCpuAvxVnni) != 0 ? &qgemm_micro_vnni_vex
                                                   : &qgemm_micro_vnni_evex;
  return fn;
}

/// The 8x16 tile over 512-bit vpdpbusd: one zmm accumulator per row, the
/// two ymm of a 4x16 row in one register. `ap` is the first of two
/// consecutive A panels (`a_panel` bytes apart), `bp` the same packed B
/// panel the 4x16 kernels read — each 64-byte quad group is one zmm of
/// 16 columns x 4 k. `acc` receives rows 0-3 then rows 4-7, each in the
/// 4x16 kernels' [4 rows][16 cols] layout.
__attribute__((target("avx512f,avx512vnni"))) void qgemm_micro_vnni_zmm(
    const uint8_t* ap, size_t a_panel, const int8_t* bp, size_t kq,
    int32_t* acc) {
  const uint8_t* ap1 = ap + a_panel;
  __m512i c0 = _mm512_setzero_si512(), c1 = _mm512_setzero_si512();
  __m512i c2 = _mm512_setzero_si512(), c3 = _mm512_setzero_si512();
  __m512i c4 = _mm512_setzero_si512(), c5 = _mm512_setzero_si512();
  __m512i c6 = _mm512_setzero_si512(), c7 = _mm512_setzero_si512();
  for (size_t q = 0; q < kq; ++q) {
    const __m512i b = _mm512_loadu_si512(bp);
    bp += 64;
    c0 = _mm512_dpbusd_epi32(c0, _mm512_set1_epi32(load_i32(ap)), b);
    c1 = _mm512_dpbusd_epi32(c1, _mm512_set1_epi32(load_i32(ap + 4)), b);
    c2 = _mm512_dpbusd_epi32(c2, _mm512_set1_epi32(load_i32(ap + 8)), b);
    c3 = _mm512_dpbusd_epi32(c3, _mm512_set1_epi32(load_i32(ap + 12)), b);
    c4 = _mm512_dpbusd_epi32(c4, _mm512_set1_epi32(load_i32(ap1)), b);
    c5 = _mm512_dpbusd_epi32(c5, _mm512_set1_epi32(load_i32(ap1 + 4)), b);
    c6 = _mm512_dpbusd_epi32(c6, _mm512_set1_epi32(load_i32(ap1 + 8)), b);
    c7 = _mm512_dpbusd_epi32(c7, _mm512_set1_epi32(load_i32(ap1 + 12)), b);
    ap += 16;
    ap1 += 16;
  }
  _mm512_storeu_si512(acc + 0, c0);
  _mm512_storeu_si512(acc + 16, c1);
  _mm512_storeu_si512(acc + 32, c2);
  _mm512_storeu_si512(acc + 48, c3);
  _mm512_storeu_si512(acc + 64, c4);
  _mm512_storeu_si512(acc + 80, c5);
  _mm512_storeu_si512(acc + 96, c6);
  _mm512_storeu_si512(acc + 112, c7);
}

/// The 8x16 tile when the feature mask allows it (detail::zmm_tile, read
/// per call), else null: the 4x16 kernel alone.
WideMicroFn<uint8_t, int8_t> vnni_wide() {
  return detail::zmm_tile(kCpuAvx512Vnni) ? &qgemm_micro_vnni_zmm : nullptr;
}

/// Packs A rows [r0, r1) into kMr-row panels of [k/4][kMr rows][4 k]
/// unsigned bytes (s8 + 128, zero-padded past k and past r1), and — when
/// `rowsum` is non-null — the row sums of that unsigned encoding, indexed
/// from r0.
void pack_a_quads(const int8_t* a, size_t lda, size_t r0, size_t r1,
                  size_t k, uint8_t* apack, int32_t* rowsum) {
  const size_t kq = (k + 3) / 4;
  const size_t rpan = (r1 - r0 + kMr - 1) / kMr;
  for (size_t rp = 0; rp < rpan; ++rp) {
    uint8_t* panel = apack + rp * kq * 4 * kMr;
    const size_t i0 = r0 + rp * kMr;
    const size_t pr = std::min(kMr, r1 - i0);
    for (size_t q = 0; q < kq; ++q) {
      const size_t k0 = 4 * q;
      const size_t ks = std::min<size_t>(4, k - k0);
      uint8_t* dst = panel + q * (4 * kMr);
      std::memset(dst, 0, 4 * kMr);
      for (size_t r = 0; r < pr; ++r) {
        const int8_t* arow = a + (i0 + r) * lda + k0;
        for (size_t s = 0; s < ks; ++s)
          dst[r * 4 + s] =
              static_cast<uint8_t>(static_cast<uint8_t>(arow[s]) ^ 0x80u);
      }
    }
    if (rowsum != nullptr) {
      for (size_t r = 0; r < pr; ++r) {
        const int8_t* arow = a + (i0 + r) * lda;
        int32_t s = 0;
        for (size_t kk = 0; kk < k; ++kk) s += static_cast<int32_t>(arow[kk]);
        // Row sum of the *unsigned* packed row: signed sum + 128k.
        rowsum[i0 - r0 + r] = s + 128 * static_cast<int32_t>(k);
      }
    }
  }
}

void qgemm_vnni(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  if (m * k * n < kScalarCutoffMadds) {
    detail::qgemm_int8(a, lda, b, ldb, c, ldc, m, k, n, p);
    return;
  }
  const VnniMicroFn micro = vnni_micro();
  const WideMicroFn<uint8_t, int8_t> wide = vnni_wide();
  // A is packed unsigned (s8 + 128 == byte XOR 0x80), so the effective A
  // zero point is a_zp + 128 — never zero, so the column-sum correction is
  // always on. B stays signed; padding bytes are 0 on both sides, so
  // padded k positions contribute 0 to every accumulator.
  const int32_t azp_eff = p.a_zp + 128;
  const int32_t bzp = p.b_zp;
  const size_t kq = (k + 3) / 4;
  const size_t npan = (n + kNr - 1) / kNr;
  const size_t b_panel_bytes = kq * 4 * kNr;
  thread_local std::vector<int8_t> bpack_tls;
  thread_local std::vector<int32_t> colsum_tls;
  bpack_tls.resize(npan * b_panel_bytes);
  colsum_tls.resize(n);
  int8_t* const bpack = bpack_tls.data();
  int32_t* const colsum = colsum_tls.data();
  colsum_s8(b, ldb, k, n, colsum);
  for (size_t jp = 0; jp < npan; ++jp) {
    int8_t* panel = bpack + jp * b_panel_bytes;
    const size_t j0 = jp * kNr;
    const size_t cols = std::min(kNr, n - j0);
    for (size_t q = 0; q < kq; ++q) {
      const size_t k0 = 4 * q;
      const size_t ks = std::min<size_t>(4, k - k0);
      int8_t* dst = panel + q * (4 * kNr);
      if (cols == kNr && ks == 4) {
        // Full tile: 4x16 byte transpose (16-byte loads stay in bounds —
        // j0 + kNr <= n <= ldb).
        const int8_t* brow = b + k0 * ldb + j0;
        pack_b_quad16(load16(brow), load16(brow + ldb), load16(brow + 2 * ldb),
                      load16(brow + 3 * ldb), dst);
        continue;
      }
      std::memset(dst, 0, 4 * kNr);
      for (size_t s = 0; s < ks; ++s) {
        const int8_t* brow = b + (k0 + s) * ldb + j0;
        for (size_t cc = 0; cc < cols; ++cc) dst[cc * 4 + s] = brow[cc];
      }
    }
  }

  const auto process_rows = [=](size_t r0, size_t r1) {
    thread_local std::vector<uint8_t> apack_tls;
    thread_local std::vector<int32_t> rowsum_tls;
    const size_t rows = r1 - r0;
    const size_t rpan = (rows + kMr - 1) / kMr;
    const size_t a_panel_bytes = kq * 4 * kMr;
    apack_tls.resize(rpan * a_panel_bytes);
    uint8_t* const apack = apack_tls.data();
    int32_t* rowsum = nullptr;
    if (bzp != 0) {
      rowsum_tls.resize(rows);
      rowsum = rowsum_tls.data();
    }
    pack_a_quads(a, lda, r0, r1, k, apack, rowsum);
    for (size_t jp = 0; jp < npan; ++jp) {
      const size_t j0 = jp * kNr;
      const size_t cols = std::min(kNr, n - j0);
      sweep_panels(apack, a_panel_bytes, rpan, bpack + jp * b_panel_bytes, kq,
                   micro, wide, [&](size_t rp, const int32_t* acc) {
                     const size_t i0 = r0 + rp * kMr;
                     store_tile(acc, i0, std::min(kMr, r1 - i0), j0, cols, k,
                                colsum + j0,
                                rowsum != nullptr ? rowsum + (i0 - r0)
                                                  : nullptr,
                                azp_eff, bzp, p, c + i0 * ldc + j0, ldc);
                   });
    }
  };
  partition(m, k * n, process_rows);
}

void qconv_vnni(const int8_t* a, size_t lda, const int8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, int8_t* /*scratch*/,
                const ConvEpilogue* ep) {
  const size_t k = s.k();
  // Same +128 A encoding as qgemm_vnni: azp_eff is never zero, so the
  // gather always accumulates column sums.
  qconv_driver<4, uint8_t, int8_t>(
      x, s, c, ldc, m, p, p.a_zp + 128,
      [&](size_t r0, size_t r1, uint8_t* dst, int32_t* rowsum) {
        pack_a_quads(a, lda, r0, r1, k, dst, rowsum);
      },
      [](const __m128i* rows, int8_t* dst) {
        pack_b_quad16(rows[0], rows[1], rows[2], rows[3], dst);
      },
      vnni_micro(), vnni_wide(), ep);
}

#endif  // ALF_INT8_VNNI

}  // namespace

#endif  // ALF_INT8_DOT

namespace detail {

QuantizeRowFn quantize_row_i8_vec() {
#if defined(ALF_INT8_DOT)
  if ((detected_cpu_features() & kCpuAvx2) != 0)
    return &quantize_row_i8_avx2;
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
        .qgemm = &qgemm_avx2,
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
        .qgemm = &qgemm_vnni,
        .qconv = &qconv_vnni,
    };
    return &be;
  }
#endif
  return nullptr;
}

}  // namespace alf::kernels
