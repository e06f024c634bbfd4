// ExecContext: the mutable half of the compiled-model split (see plan.hpp).
//
// One ExecContext is everything a single in-flight batch needs that a Plan
// deliberately does not own: the activation arena the steps address, and
// the per-chunk scratch of the convs — the float padded images, or on
// quantized plans the int8 padded images and the per-image scales, which
// the int8 linear head reuses for its rows. The constructor alone sizes
// that scratch, from the plan's steps, batch and chunk grid; neither the
// Plan nor its blob records it. Construction is cheap — a handful of
// vector allocations, no weight copies — so a serving worker pool hands
// one context per hosted plan to every worker and runs N batches of the
// same compiled model concurrently.
//
// Execution order: a run cuts its n images over the Plan's frozen chunk
// grid once, and one parallel region hands each chunk to a worker, which
// carries those images through every per-image step (conv, residual add,
// scale-shift, activation, both pools) in plan order. A conv stores its
// result straight into its NCHW slot through its kernel's epilogue, which
// also runs the steps folded into it (Plan::folds(): a 1x1 expansion, a
// residual add); the run skips those steps. A batch therefore
// forks and joins the worker pool once, not once per step, and a chunk's
// activations stay on one core from step to step. In every arena slot the
// chunk starting at image i0 keeps its images back to back from row i0
// (Plan::slot_stride), so chunks running different steps never overlap,
// even in a slot the allocator reuses for another activation size. The
// batch-level head — the trailing kLinear steps — runs after the region,
// once over all n rows packed densely: one GEMM per batch instead of one
// per chunk. The float kernels are shape-invariant (kernels/backend.hpp),
// so an image's logits are the same bits at every n and in every chunk.
//
// Concurrency contract: a context is single-threaded (one run at a time;
// the run itself fans out over the process worker pool), but any number
// of contexts may run the SAME Plan from different threads simultaneously
// — runs read the Plan and write only their own context, and the kernel
// backends keep per-thread scratch only. Results are bit-identical across
// contexts, thread counts, and batch packings: the chunk grid is frozen in
// the Plan, every float kernel computes an element the same way whatever
// the product's shape, and every per-image quantization scale depends only
// on image content.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/plan.hpp"

namespace alf {

class ExecContext {
 public:
  /// Allocates arena + scratch for `plan` (shared, kept alive by the
  /// context). All storage is allocated here, never during run.
  explicit ExecContext(std::shared_ptr<const Plan> plan);

  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Executes the plan on x [n, Ci, H, W] with n <= plan().batch(); writes
  /// the logits into `out` [n, classes] (preallocated by the caller).
  /// Performs zero heap allocations once warm, single- or multi-chunk (the
  /// kernels' per-thread scratch grows on a thread's first run only).
  void run(const Tensor& x, Tensor& out);

  /// Convenience overload that allocates the output tensor.
  Tensor run(const Tensor& x);

  /// Raw row-range form of run(): executes the plan on the first `n` images
  /// at `x` (n * image_floats() floats, NCHW) and writes n * classes()
  /// logit floats to `out`. No shape objects are consulted, so a caller can
  /// pack several requests into contiguous rows of one preallocated buffer
  /// and serve a partial batch without reshaping tensors — this is the
  /// serving dispatch path. Pointer extents are the caller's contract; n is
  /// checked against the compiled batch.
  void run_rows(const float* x, size_t n, float* out);

  const Plan& plan() const { return *plan_; }
  const std::shared_ptr<const Plan>& plan_ptr() const { return plan_; }

  /// Activation arena floats (Plan::workspace_floats(); the per-chunk
  /// scratch is held apart from it).
  size_t workspace_floats() const { return workspace_.size(); }
  /// Arena base pointer; stable across run() calls (tests assert no growth).
  const float* workspace_data() const { return workspace_.data(); }

 private:
  /// Runs per-image non-conv step `st` on the `imgs` images of a chunk,
  /// read back to back from `src` and written back to back to `dst`.
  void run_image_step(const Step& st, const float* src, float* dst,
                      size_t imgs);
  /// Runs conv step `si` and the steps folded into it on the `imgs` images
  /// of chunk `ci`: read back to back from `in` (padded, when the conv
  /// pads or quantizes, into chunk ci's scratch slices), stored back to
  /// back to `out` by the kernel's epilogue (`residual`: a folded add's
  /// other operand, or null).
  void run_conv(size_t si, const float* in, float* out,
                const float* residual, size_t imgs, size_t ci);
  /// Runs a kLinear step once over n dense rows.
  void run_linear(const Step& st, const float* src, float* dst, size_t n);

  std::shared_ptr<const Plan> plan_;
  size_t head_ = 0;  ///< Plan::head(): first step of the batch-level head
  std::vector<float> workspace_;  ///< the activation slots
  /// Zero-padded float images of the padded float convs (one slice of
  /// fimg_stride_ floats per chunk), what conv reads its B panels from.
  std::vector<float> fimg_;
  size_t fimg_stride_ = 0;
  /// Zero-point-padded u8 channel-quad images of quantized conv chunks
  /// (one slice of qimg_stride_ bytes per chunk), what qconv reads its B
  /// panels from; after the chunks, the int8 head's rows as 1x1 images
  /// (sized for batch() of them).
  std::vector<uint8_t> qimg_;
  size_t qimg_stride_ = 0;
  std::vector<float> qbs_;  ///< per-image column scales (one slice of
                            ///< qbs_stride_ per chunk; the head uses all)
  size_t qbs_stride_ = 0;
  /// ASan builds only (core/asan.hpp): index of the last step that reads
  /// or writes each arena slot (entry 0 = the external input, unused; the
  /// final step's output extends to steps().size() — the logit copy reads
  /// it). In run_rows each chunk unpoisons exactly the rows a step is
  /// about to write and poisons its own rows of a slot the moment the
  /// slot's last toucher retires, so a kernel reading a DEAD slot — stale
  /// activations the allocator recycled — faults as use-after-poison
  /// instead of silently producing numbers. Shadow granules shared by two
  /// image rows are never poisoned (two chunks would race on them).
  /// Empty in uninstrumented builds.
  std::vector<size_t> slot_last_touch_;
};

}  // namespace alf
