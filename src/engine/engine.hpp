// Plan-based inference engine: the deployment execution substrate.
//
// The training framework walks the Layer tree and allocates a fresh Tensor
// per layer per call — right for autograd, wasteful for serving. The engine
// instead compiles a model once into a flat plan:
//
//   Engine eng = Engine::compile(model, batch, in_c, h, w);
//   eng.run(x, logits);   // zero heap allocations per call
//
// Engine is now a thin compatibility facade over the split that serving
// needed: an immutable, shareable Plan (steps, folded weights, packed and
// int8 weight blobs, per-step choices, arena layout — see plan.hpp) plus
// one per-worker ExecContext (arena storage and scratch — see
// exec_context.hpp). An Engine owns one of each, so everything that
// compiled against the welded class keeps working; multi-tenant serving
// (serve/model_server.hpp) instead shares one Plan across a worker pool
// where every worker owns its own context.
//
// Compilation walks the model (descending into Sequential and
// ResidualBlock, and lowering AlfConv blocks to their deployed dense
// code-conv + 1x1-expansion pair), folds inference-mode BatchNorm into the
// preceding conv/linear weights and bias, fuses trailing activations into
// the kernel epilogues, and binds every step to a slot of one preallocated
// workspace arena. At run time a conv's epilogue also runs the 1x1
// expansion and residual add it is followed by (Plan::folds()).
// Activation slots are reused by a linear-scan register allocator
// (ping-pong for straight-line stretches, a third slot across residual
// shortcuts); per-chunk im2col scratch lives at the end of the arena so
// the batched conv steps never allocate.
//
// All kernels are the free functions the nn/ layers themselves forward
// through (conv2d_image_forward, linear_forward_view, pooling views), so
// there is no duplicated math. Results are bit-identical for any thread
// count: the batch partition is fixed at compile time and each image is
// written by exactly one worker.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/exec_context.hpp"
#include "engine/plan.hpp"

namespace alf {

/// Compiled model facade: one immutable Plan + one ExecContext. Movable,
/// not copyable (the context arena is large; share the plan() instead).
class Engine {
 public:
  /// Compiles `model` for inference at the given maximum batch size and
  /// input geometry. The model is read, not mutated; weights are copied
  /// (with BN folded), so the Engine outlives the model. Layers the engine
  /// cannot lower (e.g. AlfConv with BN_inter) fail with a CheckError.
  static Engine compile(const Sequential& model, size_t batch, size_t in_c,
                        size_t in_h, size_t in_w);

  /// As above with explicit options: kernel backend (resolved against the
  /// registry once, at compile time) and, for backend "int8", the
  /// quantization bit width of the lowered conv/linear steps.
  static Engine compile(const Sequential& model, size_t batch, size_t in_c,
                        size_t in_h, size_t in_w, const EngineOptions& opts);

  /// Facade over an already-compiled (possibly shared) plan: allocates a
  /// fresh ExecContext for it. This is how a caller gets a second
  /// independent executor of one compiled model without recompiling.
  explicit Engine(std::shared_ptr<const Plan> plan);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes the plan on x [n, Ci, H, W] with n <= batch(); writes the
  /// logits into `out` [n, classes] (preallocated by the caller). Performs
  /// zero heap allocations once warm, whether the batch runs as one chunk
  /// or several (ExecContext::run).
  void run(const Tensor& x, Tensor& out) { ctx_.run(x, out); }

  /// Convenience overload that allocates the output tensor.
  Tensor run(const Tensor& x) { return ctx_.run(x); }

  /// Raw row-range form of run(): executes the plan on the first `n` images
  /// at `x` (n * in_c()*in_h()*in_w() floats, NCHW) and writes n * classes()
  /// logit floats to `out`. No shape objects are consulted, so a caller can
  /// pack several requests into contiguous rows of one preallocated buffer
  /// and serve a partial batch without reshaping tensors — this is the
  /// serving dispatch path. Pointer extents are the caller's contract; n is
  /// checked against the compiled batch.
  void run_rows(const float* x, size_t n, float* out) {
    ctx_.run_rows(x, n, out);
  }

  // --- Introspection --------------------------------------------------------

  /// The immutable compiled plan, shareable across engines/servers: any
  /// number of ExecContexts may execute it concurrently.
  const std::shared_ptr<const Plan>& plan() const { return plan_; }
  /// This engine's own execution context.
  ExecContext& context() { return ctx_; }
  const ExecContext& context() const { return ctx_; }

  const std::vector<Step>& steps() const { return plan_->steps(); }
  size_t batch() const { return plan_->batch(); }
  size_t classes() const { return plan_->classes(); }
  size_t in_c() const { return plan_->in_c(); }
  size_t in_h() const { return plan_->in_h(); }
  size_t in_w() const { return plan_->in_w(); }
  /// Floats of one input image (= in_c * in_h * in_w).
  size_t image_floats() const { return plan_->image_floats(); }
  /// Total arena floats (activation slots + im2col scratch).
  size_t workspace_floats() const { return ctx_.workspace_floats(); }
  /// Arena base pointer; stable across run() calls (tests assert no growth).
  const float* workspace_data() const { return ctx_.workspace_data(); }
  size_t activation_slots() const { return plan_->activation_slots(); }
  /// Kernel backend the plan was compiled against.
  const kernels::KernelBackend* backend() const { return plan_->backend(); }
  const char* backend_name() const { return plan_->backend_name(); }
  /// True when conv/linear steps were lowered to the int8 qgemm datapath.
  bool quantized() const { return plan_->quantized(); }

  /// Human-readable plan: one line per step with fused ops and slots.
  std::string plan_str() const { return plan_->str(); }

 private:
  std::shared_ptr<const Plan> plan_;
  ExecContext ctx_;
};

}  // namespace alf
