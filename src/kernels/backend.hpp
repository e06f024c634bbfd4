// Dispatchable kernel-backend layer: the compute substrate behind every
// GEMM in the library.
//
// tensor/ops.cpp::gemm/gemm_view, the nn/ layers and the engine's convs
// all route their matrix products through one KernelBackend chosen at
// startup (or, for a compiled model, once at Plan::compile time — the Plan
// pins the backend pointer for its lifetime). A backend bundles the two
// entry points the library needs:
//
//   gemm   — f32 C = alpha * op(A) * op(B) + beta * C over row-major views
//            (the gemm_view shape: lda/ldb/ldc strides, trans flags).
//   qgemm  — real int8 GEMM: pre-quantized A/B int8 panels with symmetric
//            per-tensor scales and zero-points, int32 accumulation,
//            requantized to float on store. One function for every
//            backend (detail::qgemm_int8): the engine issues none, and it
//            is the oracle every qconv equals.
//
// plus one conv entry per datapath, the same product with B the implicit
// im2col unfold of padded images — the only way the engine runs a conv:
//
//   conv   — f32, over zero-padded float images; exactly gemm over the
//            unfold. Required on every float backend.
//   qconv  — int8, over zero-point-padded u8 channel-quad images (see
//            ConvShape); exactly qgemm over the unfold. Required on every
//            quantized backend. The engine's int8 linear head runs
//            through it too, as a 1x1 conv over 1x1 images (one per row).
//
// An entry may read B panels in place from the images (simd, int8-vnni),
// pack them straight from the images (int8-avx2) or materialize the
// unfold in kernel-local scratch first (scalar, the generic int8
// fallback); the result is the same bytes. The vector entries read A,
// the weights, in the order Plan::compile stores them
// (kPanelLayoutVersion), so no conv call reorders them: simd and
// int8-vnni read them in place, int8-avx2 sign-extends them to int16 once
// per call.
// Both entries take an optional ConvEpilogue: each 16-column panel of
// the product is then finished — an optional 1x1 expansion, bias,
// residual add and activation — and stored straight into the NCHW
// activation, so no scatter pass exists and the caller hands no C.
//
// Three implementations ship in-tree (see the matching .cpp files):
//   scalar — the cache-blocked kernel the library grew up with; always
//            registered, the portable fallback and the equivalence oracle.
//            Its conv unfolds, then runs that kernel.
//   simd   — explicitly vectorized 4x16 inner tile over portable GCC/Clang
//            vector extensions (no intrinsics), 8x16 on 512-bit registers
//            when the feature mask allows AVX-512F; gemm packs both
//            operands so the trans_a/trans_b variants read contiguously,
//            and the conv entry reads A's rows and B's panels in place.
//            Compiled with wider vector ISA flags when CMake's ALF_SIMD is
//            ON; selected at runtime only if the CPU supports what was
//            compiled in.
//   int8   — the quantized datapath: its qconv dispatches to the best
//            allowed int8 conv kernel (int8-vnni, int8-avx2) or unfolds;
//            its f32 gemm forwards to the best float backend so
//            non-lowered steps (pool/add epilogues, odd layers) keep
//            working.
//
// Selection: set_default_backend("name") wins, else the ALF_BACKEND
// environment variable, else the best available (simd when usable, scalar
// otherwise). Adding an ISA or dtype is a one-file drop-in: implement the
// two GEMM entry points plus the conv entry of the backend's datapath
// (conv for float, qconv for quantized) and register_backend() it.
//
// Every backend must be deterministic: for a fixed backend the result is
// bit-identical for any thread count (accumulation order per C element
// depends only on the k-block grid, never on the thread partition).
// A float backend must also be shape-invariant: the bits of a C element of
// gemm or conv depend only on its row of A, its column of B and k, never
// on m, n or the thread count. No path may be picked by the product's
// size, because a conv's n and the linear head's m grow with the images
// batched together, and one image's logits must not depend on its
// neighbours. (Int8 sums are exact integers, so an int8 kernel's path
// never shows in its bits.)
//
// Every backend must also be re-entrant: a multi-tenant server runs many
// ExecContexts concurrently from different worker threads, so concurrent
// calls into the same entry point (over disjoint output buffers) must be
// race-free. Keep per-call scratch on the stack or thread_local, as the
// built-ins do — never in shared mutable statics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/activations.hpp"

namespace alf::kernels {

// --- CPU feature gating ----------------------------------------------------
//
// Backends compiled for a wider ISA than the baseline declare what they
// need in KernelBackend::required_features; auto-selection (the process
// default and the int8 datapath's best-kernel pick) only considers a
// backend whose requirements are a subset of allowed_cpu_features().
// Explicit forcing (ALF_BACKEND= / set_default_backend / find_backend)
// deliberately bypasses the mask — the user asked for that backend by
// name — but registration itself is still gated on the *detected* CPU, so
// a forced backend is always executable.

enum CpuFeature : uint32_t {
  kCpuAvx2 = 1u << 0,
  kCpuFma = 1u << 1,
  kCpuAvxVnni = 1u << 2,      ///< VEX-encoded AVX-VNNI (vpdpbusd)
  kCpuAvx512Vnni = 1u << 3,   ///< EVEX AVX512-VNNI (paired with AVX512VL)
  kCpuAvx512f = 1u << 4,      ///< 512-bit registers (the zmm register tiles)
};

/// ABI version of the weight layouts every backend reads in place: float
/// conv weights as [Co, Ci*K*K] rows in unfold order (c, kh, kw); int8
/// conv and linear weights as qconv's A, [Co, ConvShape::qk()] rows in
/// the images' k order (c/4, kh, kw, c%4) with zero weights on the pad
/// lanes past Ci (reorder_qconv_weights). The int8 head's A is [out,
/// ceil(in/4)*4] (a 1x1 conv over 1x1 images), and so is a folded int8
/// expansion's. Version 2 stored the head transposed ([in, out]),
/// version 3 int8 A in (c, kh, kw) order. Plan blobs stamp this
/// (engine/plan_io.cpp); bump it whenever a kernel changes what it
/// expects, so stale blobs are rejected at load with a clear message
/// instead of mis-read by the kernels.
constexpr uint32_t kPanelLayoutVersion = 4;

/// Features the host CPU can actually execute (cached cpuid probe; 0 on
/// non-x86 hosts).
uint32_t detected_cpu_features();

/// detected_cpu_features() minus anything disabled via the ALF_CPU_DISABLE
/// environment variable (comma-separated names: "avx2,fma,avxvnni,
/// avx512vnni,avx512f") or set_cpu_feature_mask(). This — not the raw
/// detection — is what auto-selection consults, so dispatch decisions are
/// testable on hardware that has (or lacks) any given ISA. It also picks
/// the register tile inside `simd` and `int8-vnni`: masking avx512f keeps
/// them on their 4x16 ymm tiles (byte-identical to the 8x16 zmm ones, so
/// no backend's auto-selection depends on it).
uint32_t allowed_cpu_features();

/// Test/benchmark seam: caps allowed_cpu_features() to `detected & mask`
/// (pass ~0u to lift the cap). Masking can only *restrict*, never enable
/// an ISA the CPU lacks. Resets every cached auto-selection (the process
/// default backend and the int8 datapath's kernel pick) so subsequent
/// dispatch re-resolves under the new mask.
void set_cpu_feature_mask(uint32_t mask);

/// "avx2,fma,avxvnni"-style name list for a feature set (bench stamping).
std::string cpu_feature_names(uint32_t features);

/// Quantization metadata of one qgemm or qconv call. Weights are
/// symmetric (a_zp = 0 on every engine call); b_zp is the activation
/// grid's zero point (-levels on post-ReLU inputs). Scales are per-tensor
/// by default; the optional pointer fields refine them — per row of A
/// (how the engine quantizes BN-folded weights, whose rows carry very
/// different ranges) or per column of B (the engine's per-image activation
/// scales). Requantization happens on store, so the integer accumulation
/// never sees scales.
struct QgemmParams {
  float a_scale = 1.0f;  ///< float value of one integer step of A
  float b_scale = 1.0f;  ///< float value of one integer step of B
  int32_t a_zp = 0;      ///< zero-point of A (0 for symmetric)
  int32_t b_zp = 0;      ///< zero-point of B (0 for symmetric)
  /// Optional per-row scales of A (length M); overrides a_scale.
  const float* a_scales = nullptr;
  /// Optional per-column scales of B (length N); overrides b_scale.
  const float* b_scales = nullptr;
};

/// Geometry of one conv/qconv call: `images` images laid out back to
/// back, where in_h/in_w are the *padded* extents (the caller writes the
/// conv's padding explicitly, so a pad tap reads quantize(0.0f) exactly
/// like the float unfold's zero).
///
///   conv:  each image is [in_c][in_h][in_w] floats, 0.0f in the border.
///   qconv: each image is [quads()][in_h][in_w][4] bytes: channel c sits
///          in lane c % 4 of quad c / 4, and every byte is an int8-grid
///          value q stored as the u8 q + 128. Border bytes and the lanes
///          past in_c in the last quad hold b_zp + 128 (quantize(0.0f) on
///          that grid); the pad lanes meet zero weights. qimage_size()
///          bytes per image.
///
/// The implicit B matrix is the im2col unfold of those images side by
/// side, in the int8 grid for qconv (each byte minus 128):
/// B[(c*K + kh)*K + kw][img*out_h*out_w + oh*out_w + ow] =
/// x[img][c][oh*stride + kh][ow*stride + kw].
struct ConvShape {
  size_t in_c = 0;
  size_t in_h = 0, in_w = 0;  ///< padded plane extents
  size_t kernel = 1;
  size_t stride = 1;
  size_t images = 1;

  size_t out_h() const { return (in_h - kernel) / stride + 1; }
  size_t out_w() const { return (in_w - kernel) / stride + 1; }
  /// Floats of one padded conv image.
  size_t image_size() const { return in_c * in_h * in_w; }
  /// Channel quads of one qconv image: in_c rounded up to groups of four.
  size_t quads() const { return (in_c + 3) / 4; }
  /// Bytes of one padded qconv image, [quads()][in_h][in_w][4].
  size_t qimage_size() const { return quads() * in_h * in_w * 4; }
  /// Reduction length (rows of B).
  size_t k() const { return in_c * kernel * kernel; }
  /// Bytes of one row of a qconv's A: the reduction in the images' k
  /// order (c/4, kh, kw, c%4), pad lanes included — four per k group.
  size_t qk() const { return quads() * kernel * kernel * 4; }
  /// Output columns (columns of B and C).
  size_t n() const { return images * out_h() * out_w(); }
};

/// What a conv/qconv entry does with its [m, s.n()] product instead of
/// storing it to C: per output element, in this order,
///   v = C (+ bias[r]) (+ residual), then act(v), stored to
///   out[img][r][oh*out_w + ow]
/// for column j = img*out_h*out_w + oh*out_w + ow — the float ops of a
/// bias/activation epilogue followed by a residual add step, so a plan
/// that folds them computes the same bits. A panel that straddles two
/// images splits its store. `residual` has out's layout and may be out
/// itself (each element is read before it is written). The vector entries
/// (simd, int8-vnni, int8-avx2) store each row segment of a panel with
/// two 8-lane loads, adds, maxes and stores (masked for a segment
/// narrower than the panel); ReLU is max(v, +0) with +0 as the second
/// operand, which gives NaN and -0 exactly what `v > 0 ? v : 0` gives
/// them, so every entry stores the bytes of the scalar loop
/// (detail::store_panel).
///
/// With `co` != 0 the conv's m result rows first pass through `inner_act`
/// and a 1x1 expansion to co rows, and bias/residual/act/out refer to
/// those co rows:
///   - float (`exp_w`, [co, m] row-major): the backend's own GEMM over the
///     activated result, exactly what a separate 1x1 conv step computes;
///   - int8 (`exp_qw` [co, ceil(m/4)*4], row o's weight r at
///     o * ceil(m/4)*4 + r — the 1x1 step's qconv A, whose pad lanes are
///     never read here — with per-row `exp_scales`): the float result
///     (never quantized) times the dequantized weights qw[o][r]*scale[o],
///     summed as an fmaf chain in r order from +0 — bit-identical across
///     every int8 kernel.
struct ConvEpilogue {
  float* out = nullptr;             ///< NCHW [images][rows][out_h*out_w]
  const float* bias = nullptr;      ///< one per output row; null = none
  const float* residual = nullptr;  ///< NCHW like out; null = none
  Act act = Act::kNone;
  size_t co = 0;                    ///< expansion rows; 0 = no expansion
  Act inner_act = Act::kNone;       ///< on the conv result, before expanding
  const float* exp_w = nullptr;     ///< float expansion weights [co, m]
  const int8_t* exp_qw = nullptr;   ///< int8 expansion weights [co, m4]
  const float* exp_scales = nullptr;  ///< their per-row scales [co]
};

/// One kernel backend: a named pair of GEMM entry points plus the conv
/// entry of its datapath. Instances are immutable statics with program
/// lifetime; the registry stores pointers.
struct KernelBackend {
  const char* name;

  /// True when this backend IS a quantized datapath: selecting it asks the
  /// engine to lower conv/linear steps to qconv. Keyed here (not on the
  /// name) so an alternative quantized backend — e.g. a VNNI-class qconv —
  /// registers under its own name and still triggers the lowering.
  bool quantized_datapath = false;

  /// CpuFeature bits this backend's kernels execute. Auto-selection skips
  /// the backend unless required_features ⊆ allowed_cpu_features(); 0
  /// (baseline ISA) is never skipped.
  uint32_t required_features = 0;

  /// f32 GEMM over row-major views — the gemm_view contract: op(A) is
  /// [M, K] with leading dimension lda (of the *stored* matrix), op(B) is
  /// [K, N] with ldb, C is an [M, N] block with ldc >= n.
  /// C = alpha * op(A) * op(B) + beta * C.
  void (*gemm)(const float* a, size_t lda, bool trans_a, const float* b,
               size_t ldb, bool trans_b, float* c, size_t ldc, size_t m,
               size_t k, size_t n, float alpha, float beta);

  /// int8 GEMM: A is an [M, K] row-major int8 panel with leading dimension
  /// lda, B a [K, N] row-major int8 panel with ldb (both pre-quantized by
  /// the caller; see quant/quantize.hpp). Accumulates
  /// sum_k (A[i,k] - a_zp) * (B[k,j] - b_zp) in int32 and stores
  /// C[i,j] = acc * a_scale * b_scale as float (overwriting C). Every
  /// built-in backend registers the one portable kernel,
  /// detail::qgemm_int8 (kernels/internal.hpp): the engine runs every int8
  /// product through qconv, and qgemm is the oracle it equals.
  void (*qgemm)(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p);

  /// Quantized conv, required when quantized_datapath is set: exactly
  /// qgemm(a, lda, unfold(x), s.n(), c, ldc, m, s.qk(), s.n(), p) with the
  /// int8 unfold of the u8 channel-quad images `x` per ConvShape taken in
  /// the images' k order: row (g, l) of k group g = (c/4, kh, kw) reads
  /// lane l. A is [m, s.qk()] in that order (reorder_qconv_weights), with
  /// zero weights on the pad lanes past in_c, and no entry reorders it
  /// (int8-vnni reads it in place, int8-avx2 sign-extends its rows to int16
  /// per call). Since pad lanes and border taps hold b_zp, the product
  /// equals qgemm over the (c, kh, kw) unfold with A in that order. With
  /// p.a_zp == 0 the dot-product kernels take the images as vpdpbusd's
  /// unsigned operand and fold the whole zero-point correction into one
  /// constant per row, -(128 + b_zp) * rowsum(A), the row sums a vector
  /// reduction per call, so they pack no B and sum no columns; a call with
  /// a_zp != 0 (never issued by the engine) runs the unfold
  /// (detail::qconv_unfold). With `ep` non-null the product goes through
  /// the epilogue instead of to C: callers then pass c = nullptr and ldc
  /// = 0, and the entry must not touch them. An entry that finishes the
  /// whole product before the epilogue (scalar's conv, the int8 unfold)
  /// keeps it in its own thread_local scratch.
  void (*qconv)(const int8_t* a, size_t lda, const uint8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, const ConvEpilogue* ep) = nullptr;

  /// f32 conv, the float twin of qconv, required on float backends: byte
  /// for byte gemm(a, lda, false, unfold(x), s.n(), false, c, ldc, m,
  /// s.k(), s.n(), 1, 0) with the unfold of the zero-padded float images
  /// `x` per ConvShape. A is the [m, s.k()] row-major weight matrix, read
  /// in place by the vector entries; no entry reads a row past m. `ep` as
  /// for qconv.
  void (*conv)(const float* a, size_t lda, const float* x,
               const ConvShape& s, float* c, size_t ldc, size_t m,
               const ConvEpilogue* ep) = nullptr;
};

/// Registers a backend under backend->name (program-lifetime pointer).
/// Later registrations of an existing name shadow earlier ones, so a test
/// or plugin can override a built-in. Thread-safe. Throws CheckError for
/// an incomplete backend: no gemm or qgemm, a float backend without conv,
/// or a quantized one without qconv.
void register_backend(const KernelBackend* backend);

/// Looks up a backend by name; nullptr if absent. "scalar" and "int8" are
/// always present; "simd", "int8-avx2" and "int8-vnni" only on hosts whose
/// CPU can execute the instructions they were compiled with.
const KernelBackend* find_backend(const std::string& name);

/// Registered backend names, registration order.
std::vector<std::string> backend_names();

/// The process-wide default used by tensor/ops.cpp and the nn/ layers:
/// set_default_backend() override, else $ALF_BACKEND, else "simd" when
/// available, else "scalar". Resolved once and cached (cheap atomic read
/// afterwards — this sits under every small GEMM the engine issues).
const KernelBackend* default_backend();

/// Overrides the default ("" re-resolves from the environment). Throws
/// CheckError for an unknown name. Intended for tests and benchmarks.
void set_default_backend(const std::string& name);

// --- Built-in backends (defined one per .cpp file) -------------------------

/// The moved cache-blocked scalar kernel; never nullptr.
const KernelBackend* scalar_backend();

/// Packed+vectorized backend; nullptr when the host CPU cannot run the
/// instruction set it was compiled for.
const KernelBackend* simd_backend();

/// Quantized backend, never nullptr: qgemm is the portable
/// detail::qgemm_int8, f32 gemm forwards to the best float backend, and
/// qconv dispatches to the fastest registered quantized kernel the feature
/// mask allows (int8-vnni → int8-avx2 → the unfold over qgemm_int8),
/// resolved once and cached.
const KernelBackend* int8_backend();

/// Register-tiled int8 qconv over AVX2 pmaddwd (16-bit pairs — exact,
/// unlike pmaddubsw, which saturates). nullptr when the host CPU (or the
/// build) lacks AVX2.
const KernelBackend* int8_avx2_backend();

/// Register-tiled int8 qconv over the vpdpbusd dot-product instruction
/// (VEX AVX-VNNI when the feature mask allows it, else EVEX
/// AVX512-VNNI+VL; picked per call). nullptr when the host supports
/// neither encoding.
const KernelBackend* int8_vnni_backend();

/// The quantized backend auto-selection would hand the engine under the
/// current feature mask: best of int8-vnni / int8-avx2 / the generic int8
/// fallback. Exposed so dispatch decisions are testable.
const KernelBackend* best_quantized_backend();

// --- Quantization helpers --------------------------------------------------
//
// The engine's dynamic activation quantization is pure element-wise work
// (scale, round, clamp, narrow) over every input activation of a lowered
// step, so it lives here where a wide-ISA TU can serve it. Rounding is
// round-to-nearest-even (rintf semantics — what float->int conversion
// hardware implements), and the scalar fallback uses the identical
// expression, so results never depend on which path ran.

/// Quantizes `planes` [h, w] float planes into one padded qconv image
/// (ConvShape): q = clamp(rint(v * inv) + zp, -levels, levels), in
/// [ceil(planes / 4)][h + 2*pad][w + 2*pad][4] bytes, plane c in lane
/// c % 4 of quad c / 4, each value stored as the u8 q + 128. Every border
/// byte and every lane past `planes` is zp + 128, i.e. quantize(0.0f) —
/// what a qconv reads for a pad tap. The linear head's rows go through it
/// as 1x1 images of in_features planes.
void quantize_pad_i8(const float* src, size_t planes, size_t h, size_t w,
                     size_t pad, float inv, int32_t zp, int32_t levels,
                     uint8_t* dst);

/// Reorders m rows of int8 conv weights from unfold order (c, kh, kw),
/// row i at src + i * s.k(), into qconv's A (see KernelBackend::qconv):
/// m rows of s.qk() bytes at dst, k order (c/4, kh, kw, c%4), the pad
/// lanes past in_c zero. What Plan::compile stores for every int8 step
/// (a linear step as a 1x1 conv of in_features channels).
void reorder_qconv_weights(const int8_t* src, size_t m, const ConvShape& s,
                           int8_t* dst);

/// Copies `planes` [h, w] float planes into their zero-padded copy
/// [planes, h + 2*pad, w + 2*pad] — the images a conv entry gathers from.
void pad_f32(const float* src, size_t planes, size_t h, size_t w, size_t pad,
             float* dst);

/// max |src[i]| over i < n (0 for n == 0): the engine's per-image
/// dynamic-range scan. max is order-independent, so the vectorized and
/// baseline paths agree exactly.
float max_abs_f32(const float* src, size_t n);

}  // namespace alf::kernels
