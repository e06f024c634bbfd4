// Plan: the immutable half of the compiled-model split.
//
// Engine::compile used to weld what was compiled (steps, folded weights,
// packed/int8 weight blobs, pinned backend, arena layout) to what runs
// it (one mutable workspace arena). That limits a compiled model to one
// in-flight batch. The split here mirrors the compiled-blob-vs-execution-
// context separation every serious inference stack converges on:
//
//   Plan        — everything Plan::compile produced. Immutable after
//                 compile and shared via shared_ptr<const Plan>; any
//                 number of ExecContexts (one per server worker) execute
//                 it concurrently, race-free by construction because a
//                 run only ever writes its own context.
//   ExecContext — per-worker storage: arena, padded-image/qgemm scratch
//                 (exec_context.hpp).
//   Engine      — thin compatibility facade owning one Plan + one
//                 context (engine.hpp); pre-split call sites compile
//                 unchanged.
//
// The Plan carries not just the step list but the arena *layout* (slot
// count/stride, scratch offsets, the fixed chunk grid), so every context
// allocates exactly the same geometry and results are bit-identical
// across contexts, workers, and thread counts. One grid serves the whole
// plan: a run splits its batch over it once and each chunk carries its
// images through every per-image step (exec_context.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "tensor/view.hpp"

namespace alf {

namespace kernels {
struct KernelBackend;
}  // namespace kernels

/// Alignment of every weight section inside the plan arena (cache-line,
/// and a multiple of every element type the kernels read).
constexpr size_t kWeightAlign = 64;

/// Alignment of the arena base itself: one page, so a loaded blob can
/// mmap the arena in place and N processes share the page-cache copy.
constexpr size_t kArenaAlign = 4096;

/// Which weight payload of a Step a section carries.
enum class WeightField : uint32_t {
  kW = 0,      ///< float GEMM matrix (rank 2)
  kBias,       ///< folded bias (rank 1)
  kScale,      ///< kScaleShift per-channel scale (rank 1)
  kShift,      ///< kScaleShift per-channel shift (rank 1)
  kQw,         ///< int8 weight panel (rank 2)
  kQwScales,   ///< per-output-channel weight scales (rank 1)
};
constexpr size_t kWeightFieldCount = 6;

/// One row of the plan's section table: where inside the arena one step's
/// weight payload lives, and the shape it must be read as. This is the
/// authority the steps' views are bound from — and exactly what
/// alf::plan::save serializes, so a loaded plan rebinds by fixup alone.
struct WeightSection {
  uint32_t step = 0;                    ///< index into Plan::steps()
  WeightField field = WeightField::kW;
  uint64_t offset = 0;                  ///< bytes from the arena base
  uint64_t bytes = 0;
  uint32_t elem_size = 4;               ///< 4 (float) or 1 (int8)
  uint32_t rank = 0;
  uint64_t dims[TensorView::kMaxRank] = {0, 0, 0};
};

/// The plan's single weight allocation. Exactly one of two modes:
///   - owned: page-aligned zeroed storage a fresh compile packs into;
///   - mapped: an adopted read-only file mapping (plan_io.cpp load path),
///     munmap'd on destruction — the arena bytes are the page cache's,
///     shared across every process that loaded the same blob.
class WeightArena {
 public:
  WeightArena() = default;
  ~WeightArena();

  WeightArena(WeightArena&& o) noexcept;
  WeightArena& operator=(WeightArena&& o) noexcept;
  WeightArena(const WeightArena&) = delete;
  WeightArena& operator=(const WeightArena&) = delete;

  /// Owned mode: zeroed storage of `bytes` aligned to kArenaAlign.
  static WeightArena allocate(size_t bytes);

  /// Mapped mode: adopts [base, base + map_bytes) (munmap'd by the dtor);
  /// the arena data is the `bytes`-long run at base + data_off.
  static WeightArena adopt_mapping(void* base, size_t map_bytes,
                                   size_t data_off, size_t bytes);

  const uint8_t* data() const { return data_; }
  /// Writable base; only valid in owned mode (the compile-time packer).
  uint8_t* mutable_data();
  size_t bytes() const { return bytes_; }
  bool mapped() const { return map_base_ != nullptr; }

 private:
  uint8_t* data_ = nullptr;
  size_t bytes_ = 0;
  void* map_base_ = nullptr;  ///< non-null in mapped mode
  size_t map_bytes_ = 0;
  bool owned_ = false;
};

/// Kernel selector of one compiled step.
enum class OpKind {
  kConv,          ///< conv as one GEMM per chunk, folded-BN bias + act epilogue
  kLinear,        ///< fully-connected, bias + activation epilogue
  kGlobalAvgPool, ///< [N,C,H,W] -> [N,C]
  kMaxPool,       ///< non-overlapping window max
  kAdd,           ///< residual merge: out = act(out + in)
  kScaleShift,    ///< per-channel affine (BatchNorm that could not be folded)
  kActivation,    ///< standalone activation (could not be fused)
};

/// Printable kind tag.
const char* op_kind_name(OpKind kind);

/// What EngineOptions::tune selects. Plans have one way to pick their
/// kernels — the plan backend runs every step — so kHeuristic is the only
/// value; the type stays while the benchmark harness (bench_e2e/e2e.cpp)
/// still assigns it.
enum class TuneMode {
  kHeuristic,
};

/// One stateless kernel invocation. Weight fields are non-owning views
/// into the Plan's weight arena (bound from the section table), with BN
/// already folded in; activations are addressed by arena slot index.
/// Slot 0 is the external input tensor of run() and is never written.
struct Step {
  OpKind kind = OpKind::kConv;
  std::string name;      ///< source layer name(s), for plan dumps
  size_t in = 0;         ///< arena slot holding the input activation
  size_t out = 0;        ///< arena slot receiving the output activation
  Act act = Act::kNone;  ///< fused epilogue activation

  // Per-image element counts of the in/out activations.
  size_t in_sz = 0;
  size_t out_sz = 0;

  // kConv / kMaxPool / kGlobalAvgPool / kScaleShift geometry.
  ConvGeom geom;
  size_t out_c = 0;
  size_t window = 0;  ///< kMaxPool

  // kLinear geometry.
  size_t in_features = 0;
  size_t out_features = 0;

  TensorView w;     ///< [Co, Ci*K*K] (kConv) or [out, in] (kLinear); released
                    ///< (empty) on int8-lowered steps, which read only qw
  TensorView bias;  ///< folded bias [Co]/[out]; empty = no bias
  TensorView scale, shift;  ///< kScaleShift per-channel affine

  /// Retired shift-GEMM strategy: always false and empty (Plan::verify
  /// rejects anything else). Kept declared for code that still reads them.
  /// Every conv computes all images of a batch chunk side by side as one
  /// [Co, G*Ho*Wo] product through the plan backend's conv (float) or
  /// qconv (int8) entry, whose epilogue stores each panel straight to
  /// NCHW.
  bool shift_gemm = false;
  TensorView w9;

  /// int8 lowering (plans compiled with a quantized-datapath backend):
  /// the step runs the backend's qgemm instead of a float GEMM. `qw` is
  /// the pre-quantized weight panel — [Co, Ci*K*K] for kConv, the
  /// transposed [in, out] B panel for kLinear — on the symmetric `qbits`
  /// grid with one step size per output channel (`qw_scales`; BN folding
  /// runs first and leaves rows with very different ranges, so per-tensor
  /// weight calibration would burn most of the grid). Activations are
  /// quantized per run into context scratch with one max-abs scale PER
  /// IMAGE — the scales depend only on image content, never on the chunk
  /// grid, which is what keeps quantized runs bit-identical across thread
  /// counts and batch packings.
  bool quantized = false;
  ConstSpan<int8_t> qw;
  ConstSpan<float> qw_scales;
  int qbits = 8;
  /// Compile-time proof that this step's input activation is non-negative
  /// (produced through a ReLU/sigmoid chain). Quantized steps then use an
  /// asymmetric activation grid (zero-point at the bottom of the int8
  /// range), doubling the resolution the symmetric grid would spend on
  /// values that cannot occur.
  bool in_nonneg = false;

  /// Always Plan::backend() (Plan::verify rejects anything else); the run
  /// loop dispatches through the plan. Kept while the benchmark harness
  /// (bench_e2e/layers.cpp) still reads it.
  const kernels::KernelBackend* be = nullptr;
};

/// What else a step runs (Plan::folds()). A conv finishes its output in
/// its kernel's epilogue (kernels/backend.hpp ConvEpilogue), which can also
/// run the step after it, and the one after that:
///   (a) `exp`: a 1x1/s1/p0 conv that alone reads this conv's output. This
///       conv has no bias; its activation becomes the epilogue's inner
///       activation, the expansion's bias and activation the epilogue's.
///   (b) `add`: the residual add right after this conv (or after its
///       expansion) when that conv's activation is none. If the conv wrote
///       the block's body (add.out), the residual is add.in; if it is the
///       projection (its output add.in, which nothing else reads), it
///       writes add.out in place, with add.out as the residual.
/// Neither fold lets the epilogue write the slot the conv is still reading
/// (a float conv without padding reads its input slot in place).
/// Folded steps keep their place in steps() — the hwmodel, the bench
/// harness and the blob still see every layer — and are marked `folded`:
/// the run loop skips them. The table is derived from the step list by one
/// function at compile and at load, never serialized.
struct StepFold {
  size_t exp = 0;       ///< index of the expansion this conv runs; 0 = none
  size_t add = 0;       ///< index of the add this conv runs; 0 = none
  bool folded = false;  ///< runs inside an earlier conv's epilogue
};

/// Typed error thrown by Plan::verify() when a compiled plan violates one
/// of the invariants the execution layer relies on. The message names the
/// first failing invariant and the step it failed on.
class PlanVerifyError : public std::runtime_error {
 public:
  explicit PlanVerifyError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Compile-time options of a plan.
struct EngineOptions {
  /// Kernel-backend name ("scalar" / "simd" / "int8" / a registered
  /// plugin); "" resolves the process default (ALF_BACKEND env or best
  /// available). The registry is consulted exactly once, at compile: the
  /// plan holds the backend pointer for its lifetime. Selecting "int8"
  /// also lowers every conv/linear step to the quantized datapath, e.g.
  ///   Plan::compile(model, batch, c, h, w, {.backend = "int8"});
  std::string backend;
  /// Quantization grid width for int8-lowered steps (2..8; the paper's
  /// Table 3 bit-width sweeps narrow this while storage stays int8).
  int bits = 8;
  /// Model name stamped into the plan (and into saved blob headers —
  /// plan_io.cpp); "" is fine for plans that are never serialized.
  /// (Existing call sites designated-initialize the fields above by
  /// position; new fields go below this line.)
  std::string name;
  /// No effect: kHeuristic is the only mode. Kept because the benchmark
  /// harness (bench_e2e/e2e.cpp) assigns it.
  TuneMode tune = TuneMode::kHeuristic;
};

/// Compiled model: flat step list, folded/packed weights, the pinned kernel
/// backend every step runs on, and the arena layout every ExecContext
/// allocates.
/// Immutable after compile() and shared by const pointer: concurrent runs
/// on distinct contexts never touch Plan state, so a ModelServer hosts one
/// Plan under many workers with no copies and no locks.
class Plan {
 public:
  /// Compiles `model` for inference at the given maximum batch size and
  /// input geometry. The model is read, not mutated; weights are copied
  /// (with BN folded), so the Plan outlives the model. Layers that cannot
  /// be lowered (e.g. AlfConv with BN_inter) fail with a CheckError.
  static std::shared_ptr<const Plan> compile(const Sequential& model,
                                             size_t batch, size_t in_c,
                                             size_t in_h, size_t in_w,
                                             const EngineOptions& opts = {});

  // Shared immutable object: neither copied nor moved after compile().
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  const std::vector<Step>& steps() const { return steps_; }
  /// One entry per step: what each conv's epilogue also runs, and which
  /// steps it runs (see StepFold).
  const std::vector<StepFold>& folds() const { return folds_; }
  /// Model name (EngineOptions::name at compile, blob header at load).
  const std::string& name() const { return name_; }
  size_t batch() const { return batch_; }
  size_t classes() const { return classes_; }
  size_t in_c() const { return in_c_; }
  size_t in_h() const { return in_h_; }
  size_t in_w() const { return in_w_; }
  /// Floats of one input image (= in_c * in_h * in_w).
  size_t image_floats() const { return in_c_ * in_h_ * in_w_; }
  /// Kernel backend the plan was compiled against.
  const kernels::KernelBackend* backend() const { return backend_; }
  const char* backend_name() const;
  /// True when conv/linear steps were lowered to the int8 qgemm datapath.
  bool quantized() const { return quant_; }

  // --- Arena layout (what one ExecContext allocates) ------------------------
  size_t activation_slots() const { return slots_; }
  /// Floats per activation slot: batch() rows of slot_stride() / batch()
  /// floats, one per image. A chunk starting at image i0 keeps its images
  /// back to back from row i0, whatever size the slot's current
  /// activation has, so no two chunks ever share a float of a slot.
  size_t slot_stride() const { return slot_stride_; }
  /// Total float arena of one context (activation slots + conv scratch).
  size_t workspace_floats() const { return res_off_ + nchunks_ * res_sz_; }
  size_t col_offset() const { return col_off_; }
  /// Per-chunk col scratch: sized by conv_col_floats() over every float
  /// conv (0 on quantized plans, whose padded images are int8).
  size_t col_floats() const { return col_sz_; }
  /// Per-chunk result scratch: workspace for the conv entries that compute
  /// a whole product before the epilogue stores it (scalar's conv, the
  /// int8 unfold, simd's small shapes). Gathering kernels store straight
  /// to the activation slots and leave it untouched.
  size_t result_offset() const { return res_off_; }
  size_t result_floats() const { return res_sz_; }
  /// Fixed batch partition (chosen at compile for determinism). A run of
  /// n images cuts them into chunks of ceil(n / min(chunks(), n)) images
  /// (the last one may be shorter), and every per-image step runs on that
  /// one grid.
  size_t chunks() const { return nchunks_; }
  /// The chunk grid a step runs under: always chunks() (kept for callers
  /// that ask per step).
  size_t step_chunks(const Step&) const { return nchunks_; }
  /// Index of the first kLinear step, steps().size() when there is none.
  /// Steps before it are per-image and run chunk by chunk; from it on every
  /// step is a kLinear (compile() and verify() enforce this) that runs once
  /// over all rows of the batch.
  size_t head() const;
  /// Per-chunk col scratch a float conv of geometry `g` needs for `imgs`
  /// images: its zero-padded images, none when it has no padding (the
  /// activation slot is read in place). Compile sizes col_floats() by it
  /// and verify() checks every float conv against it.
  static size_t conv_col_floats(const ConvGeom& g, size_t imgs);
  /// int8 activation scratch bytes of one context: the quantized input of
  /// the widest linear head step over the whole batch (0 on float plans).
  size_t qws_bytes() const { return qws_sz_; }
  /// Per-image scale-slice stride of the qgemm scratch.
  size_t qbs_stride() const { return qbs_sz_; }
  /// Total per-image scale scratch floats (0 on float plans).
  size_t qbs_floats() const { return quant_ ? nchunks_ * qbs_sz_ : 0; }

  // --- Weight storage (what save/load serializes) ---------------------------
  /// The single arena holding every weight payload the steps view.
  const WeightArena& weight_arena() const { return arena_; }
  /// Section table binding (step, field) -> arena (offset, dims).
  const std::vector<WeightSection>& weight_sections() const {
    return sections_;
  }

  /// Human-readable plan: one line per step with fused ops and slots.
  std::string str() const;

  /// Static validator (plan_verify.cpp): checks every invariant the
  /// execution layer assumes instead of re-checking — slot indices and
  /// arena bounds, def-before-use slot dataflow with per-step shape
  /// chaining, scratch sizing against every conv's chunk geometry, weight
  /// panel shapes, int8 steps carrying complete/finite scales, and that
  /// the pinned backend is live in the kernel registry and runs every
  /// step. Throws
  /// PlanVerifyError naming the first violated invariant. Runs
  /// automatically at the end of compile() in debug builds; tests call it
  /// directly (including against deliberately corrupted plans).
  void verify() const;

 private:
  Plan() = default;

  /// Test-only backdoor (defined in tests): lets corruption fixtures
  /// mutate a compiled plan to prove verify() rejects each broken
  /// invariant. Nothing in the library defines or uses it.
  friend struct PlanTestPeer;

  /// Serializer backdoor: alf::plan::save/load (plan_io.cpp) read and
  /// reconstruct the private state below; nothing else uses it.
  friend struct PlanIo;

  /// Rebinds every step's weight views from the section table over the
  /// arena — the one fixup both compile (after packing) and load (after
  /// mmap + validation) run. Checks section bounds/alignment; geometric
  /// consistency is verify()'s job.
  static void bind_weight_views(std::vector<Step>& steps,
                                const std::vector<WeightSection>& sections,
                                const WeightArena& arena);

  /// Sets folds_ from steps_ (the rules at StepFold) — the one derivation
  /// compile and load both run; verify() re-checks what it produced.
  void derive_folds();
  /// True when a step at index >= `from` reads the value `slot` holds
  /// before a step overwrites it (kAdd reads the slot it accumulates into;
  /// the final slot is read by the logit copy).
  static bool read_later(const std::vector<Step>& steps, size_t slot,
                         size_t from);
  /// True when a conv reads its input slot while its epilogue stores: a
  /// float conv without padding, handed the slot itself. Every other conv
  /// first copies its input (padded or quantized) to scratch.
  static bool reads_input_in_place(const Step& st);

  std::vector<Step> steps_;
  std::vector<StepFold> folds_;  ///< derived from steps_, never serialized
  std::string name_;
  WeightArena arena_;                     ///< all weight payload bytes
  std::vector<WeightSection> sections_;   ///< arena layout of the payloads
  const kernels::KernelBackend* backend_ = nullptr;
  bool quant_ = false;  ///< conv/linear steps lowered to qgemm

  size_t batch_ = 0;
  size_t in_c_ = 0, in_h_ = 0, in_w_ = 0;
  size_t classes_ = 0;
  size_t slots_ = 0;        ///< number of activation slots
  size_t slot_stride_ = 0;  ///< floats per activation slot
  size_t col_off_ = 0;      ///< arena offset of the col scratch block
  size_t col_sz_ = 0;       ///< floats per per-chunk col scratch slice
  size_t res_off_ = 0;      ///< arena offset of the GEMM-result scratch
  size_t res_sz_ = 0;       ///< floats per per-chunk result scratch slice
  size_t nchunks_ = 0;      ///< fixed batch partition (determinism)
  size_t qws_sz_ = 0;       ///< int8 activation scratch bytes (quantized)
  size_t qbs_sz_ = 0;       ///< floats per scale slice (max GEMM columns)
};

}  // namespace alf
