// The "simd" backend: explicitly vectorized GEMM with panel packing.
//
// The inner kernel is a 4x16 register tile — four C rows times two 8-float
// vectors — expressed in portable GCC/Clang vector extensions (no
// intrinsics): the k-loop broadcasts one packed A element per row and FMAs
// it against two B vectors, keeping 8 vector accumulators live. When the
// feature mask allows AVX-512F (detail::zmm_tile), full-width panels run
// an 8x16 tile instead: two consecutive 4-row A panels against one 16-float
// zmm of B, one zmm accumulator per row. It is the same vector-extension
// code at twice the width, compiled under a per-function target attribute,
// so each C element gets the same fused multiply-adds in the same order
// and the two tiles agree byte for byte (test_kernels checks both).
//
// Both operands are packed. op(B) is packed once per call (by the calling
// thread, before the row partition) into kNr-column-interleaved panels —
// each k step of a panel is one contiguous 64-byte line — which also
// absorbs trans_b at pack time. A panels are packed per (row-block,
// k-block) into kMr-interleaved strips, so both orientations of A (and in
// particular the strided trans_a reads of the backward pass) stream
// contiguously through the kernel. The sweep is blocked over columns
// (kNc) and k (kKc) so the resident set — one kKc x kNc B block plus one
// kMc x kKc A block — fits in L2 and each B panel is reused across the
// full M sweep; without the column blocking, im2col conv shapes (n in the
// thousands) re-stream all of B from memory once per row panel.
//
// Blocking mirrors the scalar backend: a global k-block grid fixes the
// accumulation order of every C element independent of the thread
// partition, so results are bit-identical for any thread count. The row
// range is the only parallel axis.
//
// The conv entry runs the same product with B the implicit im2col unfold
// of zero-padded images (kernels/backend.hpp ConvShape), without ever
// materializing it: A is packed once per call, the column panels are the
// parallel axis, and each worker gathers one kKc-deep block of one B panel
// at a time straight from the images into an L1 buffer — a contiguous or
// two-half load per row where the panel's columns allow, a per-column
// gather otherwise (which also covers panels straddling two images) — and
// sweeps every A panel against it with the same micro-kernel. Per C
// element that is exactly gemm_simd's order (a register sum per kKc block,
// added into zeroed C block by block — the first block adds to a +0.0
// held in registers instead of a zeroed C), so conv equals gemm over the
// materialized unfold byte for byte.
//
// Build/ISA: CMake's ALF_SIMD=ON compiles this file with wider vector
// flags (-mavx2 -mfma) when the compiler supports them; simd_backend()
// then gates registration on runtime CPU support, so a binary built on a
// new machine still boots on an old one (the registry falls back to
// "scalar"). The 8x16 tile exists only in that build, and only its
// function carries AVX-512 (a target attribute, never a TU flag). Without
// vector extensions (non-GCC/Clang) the backend is absent entirely.
#include <algorithm>
#include <cstring>
#include <vector>

#include "core/parallel.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

#if defined(__GNUC__) || defined(__clang__)

namespace {

typedef float v8 __attribute__((vector_size(32)));

constexpr size_t kMr = 4;    // C rows per register tile
constexpr size_t kNr = 16;   // C cols per register tile (two v8)
constexpr size_t kMc = 64;   // rows packed per A block (~64KB with kKc)
constexpr size_t kKc = 256;  // k extent of one block (global grid)
constexpr size_t kNc = 256;  // cols per B block (kKc x kNc = 256KB in L2)

using detail::kMaddsPerWorker;
static_assert(kNr == detail::kPanelCols, "conv gathers whole B panels");

inline v8 loadu(const float* p) {
  v8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void storeu(float* p, v8 v) { __builtin_memcpy(p, &v, sizeof(v)); }

inline v8 splat(float s) { return v8{s, s, s, s, s, s, s, s}; }

/// Packs rows [i0, i0+rows) x k-range [k0, k0+kb) of op(A) into kMr-wide
/// panels: dst panel p holds rows i0+p*kMr.., laid out [kk][r] so the
/// microkernel reads one contiguous kMr group per k step. Short panels are
/// zero-padded (the padded lanes are computed and discarded).
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

/// The register tile over packed panels: C[0:pr, 16 cols] += alpha *
/// apanel * bpanel. `bpanel` walks one packed B panel — 16 contiguous
/// floats (one cache line) per k step. kFirst marks C's first k block of
/// a beta == 0 product: C is taken as +0.0 instead of loaded, the same
/// `0.0f + alpha * acc` a zeroed C would give (the add is not folded away:
/// the build honors signed zeros), so the conv entry skips zeroing C.
template <bool kFirst = false>
inline void micro_4x16p(const float* apanel, size_t kb, const float* bpanel,
                        float alpha, float* c, size_t ldc, size_t pr) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  const v8 va = splat(alpha);
  for (size_t r = 0; r < pr; ++r) {
    float* crow = c + r * ldc;
    const v8 c0 = kFirst ? v8{} : loadu(crow);
    const v8 c1 = kFirst ? v8{} : loadu(crow + 8);
    storeu(crow, c0 + va * acc[r][0]);
    storeu(crow + 8, c1 + va * acc[r][1]);
  }
}

/// Column tail (n % 16): same vector accumulation over the zero-padded
/// last panel, spilled to a stack row so only the live columns store.
template <bool kFirst = false>
inline void micro_4x16p_partial(const float* apanel, size_t kb,
                                const float* bpanel, float alpha, float* c,
                                size_t ldc, size_t pr, size_t cols) {
  v8 acc[kMr][2] = {};
  for (size_t kk = 0; kk < kb; ++kk) {
    const v8 b0 = loadu(bpanel);
    const v8 b1 = loadu(bpanel + 8);
    bpanel += kNr;
    const float* ap = apanel + kk * kMr;
    for (size_t r = 0; r < kMr; ++r) {
      const v8 av = splat(ap[r]);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  float tmp[kNr];
  for (size_t r = 0; r < pr; ++r) {
    storeu(tmp, acc[r][0]);
    storeu(tmp + 8, acc[r][1]);
    float* crow = c + r * ldc;
    for (size_t j = 0; j < cols; ++j)
      crow[j] = (kFirst ? 0.0f : crow[j]) + alpha * tmp[j];
  }
}

#if defined(__AVX2__) && defined(__x86_64__)
#define ALF_ZMM_TILE 1

typedef float v16 __attribute__((vector_size(64)));

/// Stores one C row of the 512-bit tile: crow = c + alpha * acc, with c
/// taken as +0.0 on the first k block (see micro_4x16p).
template <bool kFirst>
__attribute__((target("avx512f"), always_inline)) inline void store_row16(
    float* crow, float alpha, v16 acc) {
  v16 c0 = {};
  if (!kFirst) __builtin_memcpy(&c0, crow, sizeof(c0));
  const v16 out = c0 + alpha * acc;
  __builtin_memcpy(crow, &out, sizeof(out));
}

/// The 512-bit tile: C[0:R, 16 cols] += alpha * A * bpanel for exactly R
/// <= 8 rows, read from two consecutive 4-row panels of the A pack (the
/// second only when R > 4). One zmm accumulator per row holds what
/// micro_4x16p keeps in two ymm, and every lane sees the same expressions
/// in the same order — `acc += a * b` per k step, then `c + alpha * acc` —
/// so the compiler contracts both tiles into the same fused multiply-adds
/// and the results are bit-equal. Named accumulators keep the sums in
/// registers through the store; an array the k loop indexes went to the
/// stack, zeroed there on every call.
template <size_t R, bool kFirst>
__attribute__((target("avx512f"))) void micro_zmm(const float* apanel,
                                                  size_t kb,
                                                  const float* bpanel,
                                                  float alpha, float* c,
                                                  size_t ldc) {
  static_assert(R >= 1 && R <= 2 * kMr);
  const float* a0 = apanel;  // rows 0-3
  const float* a1 = R > kMr ? apanel + kb * kMr : apanel;  // rows 4-7
  v16 c0 = {}, c1 = {}, c2 = {}, c3 = {}, c4 = {}, c5 = {}, c6 = {}, c7 = {};
  for (size_t kk = 0; kk < kb; ++kk, a0 += kMr, a1 += kMr) {
    v16 b;
    __builtin_memcpy(&b, bpanel, sizeof(b));
    bpanel += kNr;
    c0 += a0[0] * b;
    if constexpr (R > 1) c1 += a0[1] * b;
    if constexpr (R > 2) c2 += a0[2] * b;
    if constexpr (R > 3) c3 += a0[3] * b;
    if constexpr (R > 4) c4 += a1[0] * b;
    if constexpr (R > 5) c5 += a1[1] * b;
    if constexpr (R > 6) c6 += a1[2] * b;
    if constexpr (R > 7) c7 += a1[3] * b;
  }
  const v16 rows[2 * kMr] = {c0, c1, c2, c3, c4, c5, c6, c7};
  for (size_t r = 0; r < R; ++r)
    store_row16<kFirst>(c + r * ldc, alpha, rows[r]);
}

using ZmmTileFn = void (*)(const float*, size_t, const float*, float, float*,
                           size_t);

/// micro_zmm by row count: entry h runs exactly h rows (entry 0 unused).
template <bool kFirst>
constexpr ZmmTileFn kZmmTiles[2 * kMr + 1] = {
    nullptr,
    &micro_zmm<1, kFirst>,
    &micro_zmm<2, kFirst>,
    &micro_zmm<3, kFirst>,
    &micro_zmm<4, kFirst>,
    &micro_zmm<5, kFirst>,
    &micro_zmm<6, kFirst>,
    &micro_zmm<7, kFirst>,
    &micro_zmm<8, kFirst>};
#endif

/// Runs one B panel (`cols` live columns) against the A rows [0, rows)
/// packed at `apack` (kMr-row panels, kb * kMr floats apart), into the C
/// rows at `c`. With `zmm`, full-width panels run 8-row 512-bit tiles and
/// then one tile of exactly the remaining 1-7 rows; column tails run the
/// 4x16 ones.
template <bool kFirst = false>
inline void sweep_panel(const float* apack, size_t rows, size_t kb,
                        const float* bpanel, size_t cols, float alpha,
                        float* c, size_t ldc, [[maybe_unused]] bool zmm) {
  size_t p = 0;
#if defined(ALF_ZMM_TILE)
  if (zmm && cols == kNr) {
    for (; p + 2 * kMr <= rows; p += 2 * kMr)
      micro_zmm<2 * kMr, kFirst>(apack + p * kb, kb, bpanel, alpha,
                                 c + p * ldc, ldc);
    if (p < rows)
      kZmmTiles<kFirst>[rows - p](apack + p * kb, kb, bpanel, alpha,
                                  c + p * ldc, ldc);
    return;
  }
#endif
  for (; p < rows; p += kMr) {
    const size_t pr = std::min(kMr, rows - p);
    if (cols == kNr)
      micro_4x16p<kFirst>(apack + p * kb, kb, bpanel, alpha, c + p * ldc, ldc,
                          pr);
    else
      micro_4x16p_partial<kFirst>(apack + p * kb, kb, bpanel, alpha,
                                  c + p * ldc, ldc, pr, cols);
  }
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
/// into `dst` ([kb][kNr], zero past the panel's last column) — the layout
/// gemm_simd packs its B panels in.
void gather_block(const float* x, const detail::ConvPanel& pn,
                  const size_t* koff, size_t kb, float* dst) {
  using detail::PanelMode;
  switch (pn.mode) {
    case PanelMode::kContiguous:
      for (size_t kk = 0; kk < kb; ++kk, dst += kNr) {
        const float* p = x + koff[kk] + pn.off[0];
        storeu(dst, loadu(p));
        storeu(dst + 8, loadu(p + 8));
      }
      return;
    case PanelMode::kHalves:
      for (size_t kk = 0; kk < kb; ++kk, dst += kNr) {
        storeu(dst, loadu(x + koff[kk] + pn.off[0]));
        storeu(dst + 8, loadu(x + koff[kk] + pn.off[8]));
      }
      return;
    case PanelMode::kStride2:  // no float shuffle: gathered column by column
    case PanelMode::kGather:
      for (size_t kk = 0; kk < kb; ++kk, dst += kNr) {
        const float* p = x + koff[kk];
        size_t t = 0;
        for (; t < pn.cols; ++t) dst[t] = p[pn.off[t]];
        for (; t < kNr; ++t) dst[t] = 0.0f;
      }
      return;
  }
}

/// f32 conv over the implicit unfold of zero-padded images: byte for byte
/// gemm_simd(a, lda, false, unfold(x), n, false, c, ldc, m, k, n, 1, 0).
/// With an epilogue, each panel's [m x 16] result lands in an L1 buffer
/// instead of C and is finished there (finish_panel below).
void conv_simd(const float* a, size_t lda, const float* x, const ConvShape& s,
               float* c, size_t ldc, size_t m, const ConvEpilogue* ep) {
  const size_t k = s.k(), n = s.n(), plane = s.out_h() * s.out_w();
  const bool zmm = detail::zmm_tile();
  // The expansion computes what a separate 1x1 conv step over these same
  // images would: the micro-kernel over the packed expansion weights.
  const size_t co = ep != nullptr ? ep->co : 0;
  const size_t cor = (co + kMr - 1) / kMr * kMr;
  thread_local std::vector<float> epack_tls;
  float* epack = nullptr;
  if (co != 0) {
    epack_tls.resize(cor * m);
    epack = epack_tls.data();
    for (size_t k0 = 0; k0 < m; k0 += kKc)
      pack_a(ep->exp_w, m, false, 0, co, k0, std::min(m, k0 + kKc) - k0,
             epack + k0 * cor);
  }
  // Finishes one panel whose conv result is `v` ([m][kNr], the layout the
  // micro-kernel reads B in): inner activation and expansion into `exp`
  // ([co][kNr]) when there is one, then the epilogue store.
  const auto finish_panel = [=](float* v, float* exp, size_t j0,
                                size_t cols) {
    if (co == 0) {
      detail::store_panel(*ep, m, plane, v, kNr, j0, cols);
      return;
    }
    detail::act_rows(ep->inner_act, v, kNr, m, cols);
    for (size_t k0 = 0; k0 < m; k0 += kKc) {
      const size_t kb = std::min(m, k0 + kKc) - k0;
      if (k0 == 0)
        sweep_panel<true>(epack, co, kb, v, cols, 1.0f, exp, kNr, zmm);
      else
        sweep_panel(epack + k0 * cor, co, kb, v + k0 * kNr, cols, 1.0f, exp,
                    kNr, zmm);
    }
    detail::store_panel(*ep, co, plane, exp, kNr, j0, cols);
  };
  // Per-worker panel buffers of the epilogue: the conv result, then the
  // expansion result.
  const auto panel_buffers = [=] {
    thread_local std::vector<float> buf_tls;
    buf_tls.resize((m + co) * kNr);
    return buf_tls.data();
  };

  // A is packed once, k block by k block (block k0 at apack + k0 * mr);
  // workers reach the caller's thread_local scratch through plain pointers
  // (see qgemm_int8_body).
  const size_t mr = (m + kMr - 1) / kMr * kMr;
  thread_local std::vector<float> apack_tls;
  thread_local std::vector<size_t> koff_tls;
  apack_tls.resize(mr * k);
  koff_tls.resize(k);
  float* const apack = apack_tls.data();
  for (size_t k0 = 0; k0 < k; k0 += kKc)
    pack_a(a, lda, false, 0, m, k0, std::min(k, k0 + kKc) - k0,
           apack + k0 * mr);
  size_t* const koff = koff_tls.data();
  detail::conv_tap_offsets(s, koff);

  const auto process_panels = [=](size_t p0, size_t p1) {
    alignas(64) float bblock[kKc * kNr];
    float* const buf = ep != nullptr ? panel_buffers() : nullptr;
    for (size_t jp = p0; jp < p1; ++jp) {
      const size_t j0 = jp * kNr;
      const detail::ConvPanel pn = detail::map_panel(s, j0, n);
      float* const cp = ep != nullptr ? buf : c + j0;
      const size_t ldcp = ep != nullptr ? kNr : ldc;
      // One k block of the panel against every A panel; the first block
      // stores into C, the later ones add to it (see micro_4x16p).
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        const size_t kb = std::min(k, k0 + kKc) - k0;
        const float* ablock = apack + k0 * mr;
        gather_block(x, pn, koff + k0, kb, bblock);
        if (k0 == 0)
          sweep_panel<true>(ablock, m, kb, bblock, pn.cols, 1.0f, cp, ldcp,
                            zmm);
        else
          sweep_panel(ablock, m, kb, bblock, pn.cols, 1.0f, cp, ldcp, zmm);
      }
      if (ep != nullptr) finish_panel(buf, buf + m * kNr, j0, pn.cols);
    }
  };
  detail::partition((n + kNr - 1) / kNr, m * k * kNr, process_panels);
}

/// The shared int8 body instantiated under this file's (possibly wider)
/// ISA flags — same exact integer math as detail::qgemm_int8, usually
/// auto-vectorized much harder.
void qgemm_simd(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p) {
  detail::qgemm_int8_body(a, lda, b, ldb, c, ldc, m, k, n, p);
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
                                .qgemm = &qgemm_simd,
                                .conv = &conv_simd};
  return &be;
}

#else  // !(__GNUC__ || __clang__)

const KernelBackend* simd_backend() { return nullptr; }

#endif

}  // namespace alf::kernels
