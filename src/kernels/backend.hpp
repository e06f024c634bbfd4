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
//            requantized to float on store.
//
// plus one conv entry per datapath, the same product with B the implicit
// im2col unfold of padded images — the only way the engine runs a conv:
//
//   conv   — f32, over zero-padded float images; exactly gemm over the
//            unfold. Required on every float backend.
//   qconv  — int8, over zero-point-padded images; exactly qgemm over the
//            unfold. Required on every quantized backend.
//
// An entry may pack B panels straight from the images (simd, int8-avx2,
// int8-vnni) or materialize the unfold in kernel-local scratch first
// (scalar, the generic int8 fallback); the result is the same bytes.
// Both entries take an optional ConvEpilogue: each 16-column panel of
// the product is then finished — an optional 1x1 expansion, bias,
// residual add and activation — and stored straight into the NCHW
// activation, so no scatter pass exists.
//
// Three implementations ship in-tree (see the matching .cpp files):
//   scalar — the cache-blocked kernel the library grew up with; always
//            registered, the portable fallback and the equivalence oracle.
//            Its conv unfolds, then runs that kernel.
//   simd   — explicitly vectorized 4x16 inner tile over portable GCC/Clang
//            vector extensions (no intrinsics), 8x16 on 512-bit registers
//            when the feature mask allows AVX-512F, with A-panel packing so
//            the trans_a/trans_b variants read contiguously; its conv entry
//            gathers B panels from the padded images. Compiled with
//            wider vector ISA flags when CMake's ALF_SIMD is ON; selected
//            at runtime only if the CPU supports what was compiled in.
//   int8   — the quantized datapath: qgemm is the real kernel; its f32
//            gemm forwards to the best float backend so non-lowered steps
//            (pool/add epilogues, odd layers) keep working.
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

/// ABI version of the packed weight-panel layouts every backend consumes:
/// conv weights (float and int8) as [Co, Ci*K*K] rows, linear int8 panels
/// as the transposed [in, out] B panel. Plan blobs stamp this
/// (engine/plan_io.cpp); bump it whenever a kernel changes what it expects
/// packed, so stale blobs are rejected at load with a clear message
/// instead of mis-read by the kernels.
constexpr uint32_t kPanelLayoutVersion = 2;

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

/// Quantization metadata of one qgemm call. The in-tree scheme is
/// symmetric (zero-points are 0); the zp fields exist so an asymmetric
/// backend drops in without an interface change. Scales are per-tensor by
/// default; the optional pointer fields refine them per output channel —
/// per-row of A (how the engine quantizes BN-folded conv weights, whose
/// rows carry very different ranges) or per-column of B (transposed linear
/// weights). Requantization happens on store, so the integer accumulation
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
/// back, each [in_c, in_h, in_w] where in_h/in_w are the *padded* extents
/// (the caller writes the conv's zero padding explicitly — 0.0f for conv,
/// zero-point bytes for qconv, so a pad tap reads quantize(0.0f) exactly
/// like the float unfold's zero). The implicit B matrix is the im2col
/// unfold of those images side by side:
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
  /// Elements of one padded image (bytes for qconv, floats for conv).
  size_t image_size() const { return in_c * in_h * in_w; }
  /// Reduction length (rows of B).
  size_t k() const { return in_c * kernel * kernel; }
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
/// itself (each element is read before it is written).
///
/// With `co` != 0 the conv's m result rows first pass through `inner_act`
/// and a 1x1 expansion to co rows, and bias/residual/act/out refer to
/// those co rows:
///   - float (`exp_w`, [co, m] row-major): the backend's own GEMM over the
///     activated result, exactly what a separate 1x1 conv step computes;
///   - int8 (`exp_qw` [co, m] with per-row `exp_scales`): the float result
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
  const int8_t* exp_qw = nullptr;   ///< int8 expansion weights [co, m]
  const float* exp_scales = nullptr;  ///< their per-row scales [co]
};

/// One kernel backend: a named pair of GEMM entry points plus the conv
/// entry of its datapath. Instances are immutable statics with program
/// lifetime; the registry stores pointers.
struct KernelBackend {
  const char* name;

  /// True when this backend IS a quantized datapath: selecting it asks the
  /// engine to lower conv/linear steps to qgemm. Keyed here (not on the
  /// name) so an alternative quantized backend — e.g. a VNNI-class qgemm —
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
  /// C[i,j] = acc * a_scale * b_scale as float (overwriting C).
  void (*qgemm)(const int8_t* a, size_t lda, const int8_t* b, size_t ldb,
                float* c, size_t ldc, size_t m, size_t k, size_t n,
                const QgemmParams& p);

  /// Quantized conv, required when quantized_datapath is set: exactly
  /// qgemm(a, lda, unfold(x), s.n(), c, ldc, m, s.k(), s.n(), p) with the
  /// unfold of `x` per ConvShape. With `ep` non-null the product goes
  /// through the epilogue instead of to C, and C ([m, s.n()] at ldc) is
  /// workspace the entry may use.
  void (*qconv)(const int8_t* a, size_t lda, const int8_t* x,
                const ConvShape& s, float* c, size_t ldc, size_t m,
                const QgemmParams& p, const ConvEpilogue* ep) = nullptr;

  /// f32 conv, the float twin of qconv, required on float backends: byte
  /// for byte gemm(a, lda, false, unfold(x), s.n(), false, c, ldc, m,
  /// s.k(), s.n(), 1, 0) with the unfold of the zero-padded float images
  /// `x` per ConvShape. A is the [m, s.k()] row-major weight matrix. `ep`
  /// as for qconv.
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

/// Quantized backend: real int8 qgemm; f32 gemm forwards to the best float
/// backend. Never nullptr. Its qgemm entry dispatches to the fastest
/// registered quantized kernel the feature mask allows (int8-vnni →
/// int8-avx2 → the auto-vectorized portable body), resolved once and
/// cached.
const KernelBackend* int8_backend();

/// Register-tiled int8 qgemm over AVX2 pmaddwd (sign-extended 16-bit
/// pairs — exact, unlike pmaddubsw, which saturates). nullptr when the
/// host CPU (or the build) lacks AVX2.
const KernelBackend* int8_avx2_backend();

/// Register-tiled int8 qgemm over the vpdpbusd dot-product instruction
/// (VEX AVX-VNNI or EVEX AVX512-VNNI+VL, whichever the CPU has). nullptr
/// when the host supports neither encoding.
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

/// dst[i] = clamp(rint(src[i] * inv) + zp, -levels, levels) as int8.
void quantize_row_i8(const float* src, int8_t* dst, size_t n, float inv,
                     int32_t zp, int32_t levels);

/// The same quantization of `planes` [h, w] float planes into their
/// zero-point-padded copy [planes, h + 2*pad, w + 2*pad]: every border
/// byte is zp, i.e. quantize(0.0f) — what a qconv reads for a pad tap.
void quantize_pad_i8(const float* src, size_t planes, size_t h, size_t w,
                     size_t pad, float inv, int32_t zp, int32_t levels,
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
