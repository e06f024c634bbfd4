// The "simd" backend: explicitly vectorized GEMM and conv over one family
// of register tiles.
//
// The tiles are portable GCC/Clang vector extensions (no intrinsics; the
// epilogue store, detail::store_panel_isa, uses them). The 4x16 tile holds four
// C rows times two 8-float vectors: the k-loop broadcasts one A element per row
// and FMAs it against two B vectors, keeping 8 vector accumulators live. When
// the feature mask allows AVX-512F (detail::zmm_tile), a zmm tile runs instead:
// up to 8 rows against up to three 16-column B panels, one zmm of B per panel
// and one zmm accumulator per row and panel (at most 24). The tiles read A in
// one of two layouts (a_row): the conv's [m, k] weight rows in place, or
// gemm's kMr-row packed panels. The zmm tile is the same vector-extension
// code at twice the width, compiled under a per-function target attribute, so
// each C element gets the same fused multiply-adds in the same order — +0, then
// `acc += a * b` per k step, then `c + alpha * acc` — and the two tiles agree
// byte for byte (test_kernels checks both).
//
// Every tile reads B one way: row kk of panel p at base[p] + off[kk], as
// one 16-float run, two 8-float runs (a two-half panel) or 31 floats at
// stride 2 (two loads inside the span the columns cover, then a shuffle).
// Packed B panels, gathered blocks and the conv's panel buffers are
// 16-float runs with off[kk] = kk * 16, computed in the tile rather than
// loaded (PanelMode::kGather in BPanels below).
//
// gemm packs both operands. op(B) is packed once per call (by the calling
// thread, before the row partition) into kNr-column-interleaved panels —
// each k step of a panel is one contiguous 64-byte line — which also
// absorbs trans_b at pack time. A panels are packed per (row-block,
// k-block) into kMr-interleaved strips, so both orientations of A (and in
// particular the strided trans_a reads of the backward pass) stream
// contiguously through the kernel. The sweep is blocked over columns
// (kNc) and k (kKc) so the resident set — one kKc x kNc B block plus one
// kMc x kKc A block — fits in L2 and each B panel is reused across the
// full M sweep. (The conv reads its weights in place instead; reading
// gemm's A in place measured 4-14% slower on 256^3-512^3 products, 35%
// with trans_a.)
//
// Blocking mirrors the scalar backend: a global k-block grid fixes the
// accumulation order of every C element independent of the thread
// partition, so results are bit-identical for any thread count. The row
// range is the only parallel axis.
//
// The conv entry runs the same product with B the implicit im2col unfold of
// zero-padded images (kernels/backend.hpp ConvShape), without ever
// materializing it: the tiles read the [m, k] weight rows in place (no row past
// m: a short 4x16 tile repeats row 0 and discards it) and the column panels are
// the parallel axis. A panel whose columns form one run, two half runs or one
// stride-2 run (detail::map_panel) is read in place: row kk starts at the
// panel's first column plus the tap offset koff[kk], and no load leaves the
// floats the panel's columns address. On the zmm tile one sweep covers up to
// three consecutive panels read the same way, so a 6-row ALF code conv keeps 18
// accumulators in flight, not 6. Any other panel (one straddling output rows at
// stride 2 or two images, or the last, narrower one) is gathered column by
// column, one kKc-deep block at a time, into an L1 buffer and read from there.
// Per C element that is exactly gemm_simd's order (a register sum per kKc
// block, added into zeroed C block by block), so conv equals gemm over the
// materialized unfold byte for byte. A folded 1x1 expansion runs the same tiles
// over the conv's panel buffers, reading its [co, m] weights in place, and the
// epilogue stores each panel through the vector store.
//
// Build/ISA: CMake's ALF_SIMD=ON compiles this file with wider vector
// flags (-mavx2 -mfma) when the compiler supports them; simd_backend()
// then gates registration on runtime CPU support, so a binary built on a
// new machine still boots on an old one (the registry falls back to
// "scalar"). The zmm tile exists only in that build, and only its
// functions carry AVX-512 (a target attribute, never a TU flag). Without
// vector extensions (non-GCC/Clang) the backend is absent entirely. The
// helpers pass vectors by reference: at the baseline ISA a 256-bit vector
// passed or returned by value changes the ABI (-Wpsabi).
#include <algorithm>
#include <cstring>
#include <type_traits>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

#if defined(__GNUC__) || defined(__clang__)

namespace {

typedef float v8 __attribute__((vector_size(32)));

constexpr size_t kMr = 4;     // C rows per 4x16 tile (one packed A panel)
constexpr size_t kNr = 16;    // C cols per B panel (two v8, one zmm)
constexpr size_t kMc = 64;    // rows packed per A block (~64KB with kKc)
constexpr size_t kKc = 256;   // k extent of one block (global grid)
constexpr size_t kNc = 256;   // cols per B block (kKc x kNc = 256KB in L2)
constexpr size_t kGroup = 3;  // B panels one zmm sweep covers

using detail::kMaddsPerWorker;
using detail::PanelMode;
static_assert(kNr == detail::kPanelCols, "conv reads whole B panels");

inline void loadu(v8& v, const float* p) { __builtin_memcpy(&v, p, sizeof(v)); }

inline void storeu(float* p, const v8& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// B of one sweep: `np` consecutive 16-column panels read in `mode`; row
/// kk of panel p starts at base[p] + row_offset(kk). kGather stands for a
/// packed [kb][kNr] block (gemm's packed panels, the conv's gathered block
/// and its panel buffers); kContiguous, kHalves and kStride2 for a panel
/// read in place from the images through the tap offsets `off`, a
/// two-half panel's columns 8-15 sitting half[p] floats after its
/// columns 0-7.
struct BPanels {
  PanelMode mode = PanelMode::kGather;
  size_t np = 1;
  const size_t* off = nullptr;
  const float* base[kGroup] = {};
  size_t half[kGroup] = {};
};

/// Where row kk of a B panel starts, relative to its base (see BPanels).
template <PanelMode Mode>
inline size_t row_offset(const size_t* off, size_t kk) {
  return Mode == PanelMode::kGather ? kk * kNr : off[kk];
}

/// Where row r of an A block starts; its element kk is at [kk * Step].
/// Step 1: the rows in place, row r at a + r * lda (the conv's weights).
/// Step kMr: gemm's packed block, kMr-row panels lda floats apart, each
/// laid out [kk][kMr] (row r at a + (r / kMr) * lda + r % kMr).
template <size_t Step>
inline const float* a_row(const float* a, size_t lda, size_t r) {
  return a + (r / Step) * lda + r % Step;
}

/// C of one sweep: row r of panel p at c + p * pstep + r * ldc, of which
/// the first `cols` columns are updated to c + alpha * acc. C holds its
/// start value before the first k block (gemm: beta * C; the conv zeroes
/// it). Every tile store is that one expression, with no branch on the
/// block: the compiler then contracts it into one FMA on every tile,
/// where with a second expression (a +0.0 first block) it may hoist
/// `alpha * acc` out of both and round twice.
struct CPanels {
  float* c = nullptr;
  size_t ldc = 0, pstep = 0, cols = kNr;
  float alpha = 1.0f;
};

/// Loads one 16-column B row whose first column is at p, as two v8.
template <PanelMode Mode>
inline void load_row(const float* p, size_t half, v8& lo, v8& hi) {
  if constexpr (Mode == PanelMode::kHalves) {
    loadu(lo, p);
    loadu(hi, p + half);
  } else if constexpr (Mode == PanelMode::kStride2) {
    // Columns at p + 2t: the even floats of [p, p + 16), then those of
    // [p + 16, p + 31) read as [p + 16, p + 24) and [p + 23, p + 31), so
    // nothing past the last column (p + 30) is loaded.
    v8 a, b, c, d;
    loadu(a, p);
    loadu(b, p + 8);
    loadu(c, p + 16);
    loadu(d, p + 23);
    lo = __builtin_shufflevector(a, b, 0, 2, 4, 6, 8, 10, 12, 14);
    hi = __builtin_shufflevector(c, d, 0, 2, 4, 6, 9, 11, 13, 15);
  } else {
    loadu(lo, p);
    loadu(hi, p + 8);
  }
}

/// The column-tail store of one C row (cp.cols < kNr), from the row's
/// sums spilled to `acc`. Out of line: only the last panel of a product
/// can be narrower than kNr.
__attribute__((noinline)) void store_tail(float* crow, const float* acc,
                                          size_t cols, float alpha) {
  for (size_t j = 0; j < cols; ++j) crow[j] = crow[j] + alpha * acc[j];
}

/// Stores one C row of a tile: crow = c + alpha * acc over the first
/// `cols` columns (see CPanels).
inline void store_row(float* crow, const v8& lo, const v8& hi,
                      const CPanels& cp) {
  if (cp.cols != kNr) {
    float tmp[kNr];
    storeu(tmp, lo);
    storeu(tmp + 8, hi);
    store_tail(crow, tmp, cp.cols, cp.alpha);
    return;
  }
  v8 c0, c1;
  loadu(c0, crow);
  loadu(c1, crow + 8);
  storeu(crow, c0 + cp.alpha * lo);
  storeu(crow + 8, c1 + cp.alpha * hi);
}

/// The 4x16 tile: C rows [0, pr) of one B panel (base, half) += alpha *
/// A * B over kb k steps, A's rows per a_row<Step>. Computes four rows
/// and stores the live ones; a row past pr repeats row 0, so no read
/// leaves A's pr rows. Named accumulators, as in tile_zmm: an array
/// indexed by the store's row count stays in memory through the k loop.
template <PanelMode Mode, size_t Step>
void tile_4x16(const float* a, size_t lda, size_t kb, const float* base,
               size_t half, const size_t* off, const CPanels& cp, float* c,
               size_t pr) {
  const float* const a0 = a;
  const float* const a1 = pr > 1 ? a_row<Step>(a, lda, 1) : a;
  const float* const a2 = pr > 2 ? a_row<Step>(a, lda, 2) : a;
  const float* const a3 = pr > 3 ? a_row<Step>(a, lda, 3) : a;
  v8 c00 = {}, c01 = {}, c10 = {}, c11 = {}, c20 = {}, c21 = {}, c30 = {},
     c31 = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    v8 b0, b1;
    load_row<Mode>(base + row_offset<Mode>(off, kk), half, b0, b1);
    const size_t ka = kk * Step;
    c00 += a0[ka] * b0;
    c01 += a0[ka] * b1;
    c10 += a1[ka] * b0;
    c11 += a1[ka] * b1;
    c20 += a2[ka] * b0;
    c21 += a2[ka] * b1;
    c30 += a3[ka] * b0;
    c31 += a3[ka] * b1;
  }
  const CPanels out = cp;  // a local copy: C's stores cannot alias it
  store_row(c, c00, c01, out);
  if (pr > 1) store_row(c + out.ldc, c10, c11, out);
  if (pr > 2) store_row(c + 2 * out.ldc, c20, c21, out);
  if (pr > 3) store_row(c + 3 * out.ldc, c30, c31, out);
}

#if defined(__AVX2__) && defined(__x86_64__)
#define ALF_ZMM_TILE 1

typedef float v16 __attribute__((vector_size(64)));

/// Loads one 16-column B row whose first column is at p (see load_row).
template <PanelMode Mode>
__attribute__((target("avx512f"), always_inline)) inline void load_row16(
    const float* p, size_t half, v16& b) {
  if constexpr (Mode == PanelMode::kHalves) {
    v8 lo, hi;
    loadu(lo, p);
    loadu(hi, p + half);
    b = __builtin_shufflevector(lo, hi, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                12, 13, 14, 15);
  } else if constexpr (Mode == PanelMode::kStride2) {
    // The even floats of [p, p + 16) and the odd ones of [p + 15, p + 31):
    // both loads stay inside the span the columns cover.
    v16 a, d;
    __builtin_memcpy(&a, p, sizeof(a));
    __builtin_memcpy(&d, p + 15, sizeof(d));
    b = __builtin_shufflevector(a, d, 0, 2, 4, 6, 8, 10, 12, 14, 17, 19, 21,
                                23, 25, 27, 29, 31);
  } else {
    __builtin_memcpy(&b, p, sizeof(b));
  }
}

/// acc[p] += a * b[p] for the tile's P panels.
template <size_t P>
__attribute__((target("avx512f"), always_inline)) inline void fma_row(
    float a, const v16& b0, const v16& b1, const v16& b2, v16& x0, v16& x1,
    v16& x2) {
  x0 += a * b0;
  if constexpr (P > 1) x1 += a * b1;
  if constexpr (P > 2) x2 += a * b2;
}

/// Stores one C row of the zmm tile (see store_row).
__attribute__((target("avx512f"), always_inline)) inline void store_row16(
    float* crow, const v16& acc, const CPanels& cp) {
  if (cp.cols != kNr) {
    float tmp[kNr];
    __builtin_memcpy(tmp, &acc, sizeof(tmp));
    store_tail(crow, tmp, cp.cols, cp.alpha);
    return;
  }
  v16 c0;
  __builtin_memcpy(&c0, crow, sizeof(c0));
  const v16 out = c0 + cp.alpha * acc;
  __builtin_memcpy(crow, &out, sizeof(out));
}

/// Stores one C row's accumulators of the tile's P panels (panel p at
/// crow + p * cp.pstep).
template <size_t P>
__attribute__((target("avx512f"), always_inline)) inline void store_rows16(
    float* crow, const CPanels& cp, const v16& x0, const v16& x1,
    const v16& x2) {
  store_row16(crow, x0, cp);
  if constexpr (P > 1) store_row16(crow + cp.pstep, x1, cp);
  if constexpr (P > 2) store_row16(crow + 2 * cp.pstep, x2, cp);
}

/// The zmm tile: C rows [0, R) of P consecutive B panels += alpha * A * B
/// over kb k steps, A's rows per a_row<Step>. Per k step one B load per
/// panel and one A broadcast per row feed R * P accumulators — one per
/// row and panel, each holding what tile_4x16 keeps in two ymm, with the
/// same expressions in the same order, so the two tiles are bit-equal.
/// Named accumulators keep the sums in registers through the store; an
/// array went to the stack, zeroed there on every call.
template <size_t R, size_t P, PanelMode Mode, size_t Step>
__attribute__((target("avx512f"))) void tile_zmm(const float* a, size_t lda,
                                                 size_t kb, const BPanels& b,
                                                 const CPanels& cp,
                                                 float* c) {
  static_assert(R >= 1 && R <= 2 * kMr && P >= 1 && P <= kGroup);
  // Row r of A; row 0 stands in for the rows past R, which are never read.
  const float* const a0 = a;
  const float* const a1 = R > 1 ? a_row<Step>(a, lda, 1) : a;
  const float* const a2 = R > 2 ? a_row<Step>(a, lda, 2) : a;
  const float* const a3 = R > 3 ? a_row<Step>(a, lda, 3) : a;
  const float* const a4 = R > 4 ? a_row<Step>(a, lda, 4) : a;
  const float* const a5 = R > 5 ? a_row<Step>(a, lda, 5) : a;
  const float* const a6 = R > 6 ? a_row<Step>(a, lda, 6) : a;
  const float* const a7 = R > 7 ? a_row<Step>(a, lda, 7) : a;
  const size_t* off = b.off;
  const float* const s0 = b.base[0];
  const float* const s1 = b.base[P > 1 ? 1 : 0];
  const float* const s2 = b.base[P > 2 ? 2 : 0];
  const size_t h0 = b.half[0], h1 = b.half[P > 1 ? 1 : 0],
               h2 = b.half[P > 2 ? 2 : 0];
  v16 c00 = {}, c01 = {}, c02 = {}, c10 = {}, c11 = {}, c12 = {};
  v16 c20 = {}, c21 = {}, c22 = {}, c30 = {}, c31 = {}, c32 = {};
  v16 c40 = {}, c41 = {}, c42 = {}, c50 = {}, c51 = {}, c52 = {};
  v16 c60 = {}, c61 = {}, c62 = {}, c70 = {}, c71 = {}, c72 = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const size_t o = row_offset<Mode>(off, kk), ka = kk * Step;
    v16 b0, b1 = {}, b2 = {};  // b1, b2 unread below P = 2, 3
    load_row16<Mode>(s0 + o, h0, b0);
    if constexpr (P > 1) load_row16<Mode>(s1 + o, h1, b1);
    if constexpr (P > 2) load_row16<Mode>(s2 + o, h2, b2);
    fma_row<P>(a0[ka], b0, b1, b2, c00, c01, c02);
    if constexpr (R > 1) fma_row<P>(a1[ka], b0, b1, b2, c10, c11, c12);
    if constexpr (R > 2) fma_row<P>(a2[ka], b0, b1, b2, c20, c21, c22);
    if constexpr (R > 3) fma_row<P>(a3[ka], b0, b1, b2, c30, c31, c32);
    if constexpr (R > 4) fma_row<P>(a4[ka], b0, b1, b2, c40, c41, c42);
    if constexpr (R > 5) fma_row<P>(a5[ka], b0, b1, b2, c50, c51, c52);
    if constexpr (R > 6) fma_row<P>(a6[ka], b0, b1, b2, c60, c61, c62);
    if constexpr (R > 7) fma_row<P>(a7[ka], b0, b1, b2, c70, c71, c72);
  }
  const CPanels out = cp;  // a local copy: C's stores cannot alias it
  const size_t ldc = out.ldc;
  store_rows16<P>(c, out, c00, c01, c02);
  if constexpr (R > 1) store_rows16<P>(c + ldc, out, c10, c11, c12);
  if constexpr (R > 2) store_rows16<P>(c + 2 * ldc, out, c20, c21, c22);
  if constexpr (R > 3) store_rows16<P>(c + 3 * ldc, out, c30, c31, c32);
  if constexpr (R > 4) store_rows16<P>(c + 4 * ldc, out, c40, c41, c42);
  if constexpr (R > 5) store_rows16<P>(c + 5 * ldc, out, c50, c51, c52);
  if constexpr (R > 6) store_rows16<P>(c + 6 * ldc, out, c60, c61, c62);
  if constexpr (R > 7) store_rows16<P>(c + 7 * ldc, out, c70, c71, c72);
}

using ZmmTileFn = void (*)(const float*, size_t, size_t, const BPanels&,
                           const CPanels&, float*);

/// tile_zmm by row count: entry h runs exactly h rows (entry 0 unused).
template <size_t P, PanelMode Mode, size_t Step>
constexpr ZmmTileFn kZmmTiles[2 * kMr + 1] = {
    nullptr,
    &tile_zmm<1, P, Mode, Step>,
    &tile_zmm<2, P, Mode, Step>,
    &tile_zmm<3, P, Mode, Step>,
    &tile_zmm<4, P, Mode, Step>,
    &tile_zmm<5, P, Mode, Step>,
    &tile_zmm<6, P, Mode, Step>,
    &tile_zmm<7, P, Mode, Step>,
    &tile_zmm<8, P, Mode, Step>};

/// 8-row tiles over the rows, then one tile of exactly the remaining 1-7.
template <size_t P, PanelMode Mode, size_t Step>
void sweep_zmm(const float* a, size_t lda, size_t rows, size_t kb,
               const BPanels& b, const CPanels& cp) {
  size_t i = 0;
  for (; i + 2 * kMr <= rows; i += 2 * kMr)
    tile_zmm<2 * kMr, P, Mode, Step>(a_row<Step>(a, lda, i), lda, kb, b, cp,
                                     cp.c + i * cp.ldc);
  if (i < rows)
    kZmmTiles<P, Mode, Step>[rows - i](a_row<Step>(a, lda, i), lda, kb, b,
                                       cp, cp.c + i * cp.ldc);
}
#endif

/// Runs B's panels against the A rows [0, rows) (a_row<Step>) over kb k
/// steps into C: with `zmm`, one zmm sweep over all of B's panels; else
/// 4x16 tiles, one panel at a time.
template <size_t Step, PanelMode M>
void sweep_mode(const float* a, size_t lda, size_t rows, size_t kb,
                const BPanels& b, const CPanels& cp,
                [[maybe_unused]] bool zmm) {
#if defined(ALF_ZMM_TILE)
  if (zmm) {
    if (b.np == 1)
      sweep_zmm<1, M, Step>(a, lda, rows, kb, b, cp);
    else if (b.np == 2)
      sweep_zmm<2, M, Step>(a, lda, rows, kb, b, cp);
    else
      sweep_zmm<3, M, Step>(a, lda, rows, kb, b, cp);
    return;
  }
#endif
  for (size_t p = 0; p < b.np; ++p)
    for (size_t i = 0; i < rows; i += kMr)
      tile_4x16<M, Step>(a_row<Step>(a, lda, i), lda, kb, b.base[p],
                         b.half[p], b.off, cp,
                         cp.c + p * cp.pstep + i * cp.ldc,
                         std::min(kMr, rows - i));
}

/// sweep_mode over the conv's A rows in place (row r at a + r * lda), in
/// B's panel mode.
void sweep(const float* a, size_t lda, size_t rows, size_t kb,
           const BPanels& b, const CPanels& cp, bool zmm) {
  const auto run = [&](auto mode) {
    sweep_mode<1, decltype(mode)::value>(a, lda, rows, kb, b, cp, zmm);
  };
  using M = PanelMode;
  switch (b.mode) {
    case M::kGather:
      return run(std::integral_constant<M, M::kGather>{});
    case M::kContiguous:
      return run(std::integral_constant<M, M::kContiguous>{});
    case M::kHalves:
      return run(std::integral_constant<M, M::kHalves>{});
    case M::kStride2:
      return run(std::integral_constant<M, M::kStride2>{});
  }
}

/// Packs rows [i0, i0+rows) x k-range [k0, k0+kb) of op(A) into kMr-wide
/// panels: dst panel p holds rows i0+p*kMr.., laid out [kk][r] so the
/// microkernel reads one contiguous kMr group per k step (a_row<kMr>).
/// Short panels are zero-padded (the padded lanes are computed and
/// discarded).
void pack_a(const float* a, size_t lda, bool trans_a, size_t i0, size_t rows,
            size_t k0, size_t kb, float* dst) {
  for (size_t p = 0; p < rows; p += kMr) {
    const size_t pr = std::min(kMr, rows - p);
    float* panel = dst + p * kb;  // each panel is kb * kMr floats
    for (size_t kk = 0; kk < kb; ++kk) {
      for (size_t r = 0; r < kMr; ++r) {
        const size_t i = i0 + p + r;
        panel[kk * kMr + r] =
            r < pr ? (trans_a ? a[(k0 + kk) * lda + i] : a[i * lda + k0 + kk])
                   : 0.0f;
      }
    }
  }
}

/// Runs one packed B panel (`cols` live columns) against the A rows [0,
/// rows) packed at `apack` (pack_a) into the C rows at `c`: gemm's sweep.
inline void sweep_panel(const float* apack, size_t rows, size_t kb,
                        const float* bpanel, size_t cols, float alpha,
                        float* c, size_t ldc, bool zmm) {
  BPanels b;
  b.base[0] = bpanel;
  CPanels cp;
  cp.c = c;
  cp.ldc = ldc;
  cp.cols = cols;
  cp.alpha = alpha;
  sweep_mode<kMr, PanelMode::kGather>(apack, kb * kMr, rows, kb, b, cp, zmm);
}

/// The packed kernel: B packed once by the caller, rows partitioned over
/// the workers, (kMc, kKc, kNc) cache blocking. The k-block grid is
/// global, so results are bit-stable across thread counts. Every shape,
/// however small, runs this path: a C element's bits then depend only on
/// its row of A, its column of B and k (backend.hpp), so a row computes
/// the same whatever rows share its product.
void gemm_simd(const float* pa, size_t lda, bool trans_a, const float* pb,
               size_t ldb, bool trans_b, float* pc, size_t ldc, size_t m,
               size_t k, size_t n, float alpha, float beta) {
  const size_t madds_per_row = std::max<size_t>(1, k * n);
  const size_t min_rows = std::max<size_t>(1, kMaddsPerWorker / madds_per_row);
  const bool inline_run =
      in_parallel_region() || m <= min_rows || parallel_threads() <= 1;

  // Pack op(B) once into kNr-column panels: panel jp holds columns
  // [jp*16, jp*16+16) laid out [kk][16] (zero-padded past n), so every k
  // step of the microkernel is one contiguous cache line and trans_b costs
  // nothing downstream. Packed by the calling thread, then shared
  // read-only across the row partition (the caller blocks in
  // parallel_for_chunked, so the buffer outlives every worker's use).
  const size_t npan = (n + kNr - 1) / kNr;
  const size_t panel_stride = k * kNr;
  thread_local std::vector<float> bpack_tls;
  bpack_tls.resize(npan * panel_stride);
  float* const bp = bpack_tls.data();
  if (!trans_b) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* brow = pb + kk * ldb;
      for (size_t jp = 0; jp < npan; ++jp) {
        const size_t j0 = jp * kNr;
        const size_t cols = std::min(kNr, n - j0);
        float* dst = bp + jp * panel_stride + kk * kNr;
        size_t jj = 0;
        for (; jj < cols; ++jj) dst[jj] = brow[j0 + jj];
        for (; jj < kNr; ++jj) dst[jj] = 0.0f;
      }
    }
  } else {
    // B is stored [N, K]: each source row is one output column, read
    // contiguously and scattered down its panel.
    for (size_t jp = 0; jp < npan; ++jp) {
      float* panel = bp + jp * panel_stride;
      for (size_t jj = 0; jj < kNr; ++jj) {
        const size_t j = jp * kNr + jj;
        if (j < n) {
          const float* bcol = pb + j * ldb;
          for (size_t kk = 0; kk < k; ++kk) panel[kk * kNr + jj] = bcol[kk];
        } else {
          for (size_t kk = 0; kk < k; ++kk) panel[kk * kNr + jj] = 0.0f;
        }
      }
    }
  }

  constexpr size_t pan_per_block = kNc / kNr;  // B panels per column block
  const bool zmm = detail::zmm_tile();
  const auto process_rows = [=](size_t r0, size_t r1) {
    // Per-thread A packing scratch, persistent across calls (pool workers
    // live for the process).
    thread_local std::vector<float> apack_tls;
    apack_tls.resize(kMc * kKc);
    float* const apack = apack_tls.data();

    for (size_t i = r0; i < r1; ++i) {
      float* crow = pc + i * ldc;
      if (beta == 0.0f) {
        std::memset(crow, 0, n * sizeof(float));
      } else if (beta != 1.0f) {
        for (size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    for (size_t bj = 0; bj < npan; bj += pan_per_block) {
      const size_t pe = std::min(npan, bj + pan_per_block);
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        const size_t kb = std::min(k, k0 + kKc) - k0;
        for (size_t i0 = r0; i0 < r1; i0 += kMc) {
          const size_t rows = std::min(r1, i0 + kMc) - i0;
          pack_a(pa, lda, trans_a, i0, rows, k0, kb, apack);
          for (size_t jp = bj; jp < pe; ++jp) {
            const size_t j0 = jp * kNr;
            sweep_panel(apack, rows, kb, bp + jp * panel_stride + k0 * kNr,
                        std::min(kNr, n - j0), alpha, pc + i0 * ldc + j0, ldc,
                        zmm);
          }
        }
      }
    }
  };

  if (inline_run) {
    process_rows(0, m);
    return;
  }
  parallel_for_chunked(0, m, process_rows, min_rows);
}

/// Gathers rows [k0, k0 + kb) of one B panel of a conv's implicit unfold
/// column by column into `dst` ([kb][kNr], zero past the panel's last
/// column): the panels the tiles cannot read in place.
void gather_block(const float* x, const detail::ConvPanel& pn,
                  const size_t* koff, size_t kb, float* dst) {
  for (size_t kk = 0; kk < kb; ++kk, dst += kNr) {
    const float* p = x + koff[kk];
    size_t t = 0;
    for (; t < pn.cols; ++t) dst[t] = p[pn.off[t]];
    for (; t < kNr; ++t) dst[t] = 0.0f;
  }
}

/// f32 conv over the implicit unfold of zero-padded images: byte for byte
/// gemm_simd(a, lda, false, unfold(x), n, false, c, ldc, m, k, n, 1, 0),
/// A's rows read in place. With an epilogue, each panel's [m x 16] result
/// lands in an L1 buffer instead of C and is finished there (finish
/// below).
void conv_simd(const float* a, size_t lda, const float* x, const ConvShape& s,
               float* c, size_t ldc, size_t m, const ConvEpilogue* ep) {
  const size_t k = s.k(), n = s.n(), plane = s.out_h() * s.out_w();
  const bool zmm = detail::zmm_tile();
  const size_t group = zmm ? kGroup : 1;  // panels per sweep
  // The expansion computes what a separate 1x1 conv step over these same
  // images would: the tiles over the [co, m] expansion weights in place.
  const size_t co = ep != nullptr ? ep->co : 0;
  // Finishes `np` panels from column j0 whose conv results sit at `v`
  // (panel p's [m][kNr] at v + p * m * kNr): inner activation and
  // expansion into the buffers after the group's conv results, then the
  // epilogue store.
  const auto finish = [=](float* v, size_t np, size_t j0, size_t cols) {
    const float* out = v;
    size_t rows = m;
    if (co != 0) {
      float* const exp = v + group * m * kNr;
      for (size_t p = 0; p < np; ++p)
        detail::act_rows(ep->inner_act, v + p * m * kNr, kNr, m, cols);
      BPanels b;
      b.np = np;
      CPanels cp;
      cp.c = exp;
      cp.ldc = kNr;
      cp.pstep = co * kNr;
      cp.cols = cols;
      std::fill_n(exp, np * co * kNr, 0.0f);
      for (size_t k0 = 0; k0 < m; k0 += kKc) {
        for (size_t p = 0; p < np; ++p) b.base[p] = v + (p * m + k0) * kNr;
        sweep(ep->exp_w + k0, m, co, std::min(m, k0 + kKc) - k0, b, cp, zmm);
      }
      out = exp;
      rows = co;
    }
    for (size_t p = 0; p < np; ++p)
      detail::store_panel_isa(*ep, rows, plane, out + p * rows * kNr, kNr,
                              j0 + p * kNr, cols);
  };
  // Per-worker panel buffers of the epilogue: the group's conv results,
  // then its expansion results.
  const auto panel_buffers = [=] {
    thread_local std::vector<float> buf_tls;
    buf_tls.resize(group * (m + co) * kNr);
    return buf_tls.data();
  };

  // Workers reach the caller's thread_local tap offsets through a plain
  // pointer (see detail::qgemm_int8).
  thread_local std::vector<size_t> koff_tls;
  koff_tls.resize(k);
  size_t* const koff = koff_tls.data();
  detail::conv_tap_offsets(s, koff);

  const auto process_panels = [=](size_t p0, size_t p1) {
    alignas(64) float bblock[kKc * kNr];
    float* const buf = ep != nullptr ? panel_buffers() : nullptr;
    for (size_t jp = p0; jp < p1;) {
      const size_t j0 = jp * kNr;
      const detail::ConvPanel pn = detail::map_panel(s, j0, n);
      const bool gather = pn.mode == PanelMode::kGather;
      // In place, the panel joins the next ones read the same way.
      BPanels b;
      if (gather) {
        b.base[0] = bblock;
      } else {
        b.mode = pn.mode;
        for (detail::ConvPanel q = pn;;) {
          b.base[b.np - 1] = x + q.off[0];
          b.half[b.np - 1] = q.off[kNr / 2] - q.off[0];
          if (b.np == group || jp + b.np == p1) break;
          q = detail::map_panel(s, j0 + b.np * kNr, n);
          if (q.mode != pn.mode) break;
          ++b.np;
        }
      }
      CPanels cp;
      cp.c = ep != nullptr ? buf : c + j0;
      cp.ldc = ep != nullptr ? kNr : ldc;
      cp.pstep = ep != nullptr ? m * kNr : kNr;
      cp.cols = pn.cols;
      // Zero the panels' C, then add one k block of them against every A
      // panel at a time (see CPanels).
      if (ep != nullptr)
        std::fill_n(buf, b.np * m * kNr, 0.0f);
      else
        for (size_t r = 0; r < m; ++r)
          std::fill_n(c + r * ldc + j0, (b.np - 1) * kNr + pn.cols, 0.0f);
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        const size_t kb = std::min(k, k0 + kKc) - k0;
        if (gather)
          gather_block(x, pn, koff + k0, kb, bblock);
        else
          b.off = koff + k0;
        sweep(a + k0, lda, m, kb, b, cp, zmm);
      }
      if (ep != nullptr) finish(buf, b.np, j0, pn.cols);
      jp += b.np;
    }
  };
  detail::partition((n + kNr - 1) / kNr, m * k * kNr, process_panels);
}

/// True when the host CPU can execute the ISA this file was compiled for.
bool cpu_supported() {
#if defined(__AVX2__) && defined(__x86_64__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;  // baseline vector extensions only
#endif
}

}  // namespace

const KernelBackend* simd_backend() {
  if (!cpu_supported()) return nullptr;
  static const KernelBackend be{.name = "simd",
#if defined(__AVX2__) && defined(__x86_64__)
                                .required_features = kCpuAvx2 | kCpuFma,
#endif
                                .gemm = &gemm_simd,
                                .qgemm = &detail::qgemm_int8,
                                .conv = &conv_simd};
  return &be;
}

#else  // !(__GNUC__ || __clang__)

const KernelBackend* simd_backend() { return nullptr; }

#endif

}  // namespace alf::kernels
