// Plan::verify(): the static validator over a compiled plan.
//
// The execution layer (exec_context.cpp) is deliberately check-free in its
// hot loop — it trusts the Plan. This pass is where that trust is earned:
// it re-derives, from nothing but the finished Plan, every invariant the
// runtime assumes, and throws a typed PlanVerifyError naming the first
// violation. It runs at the end of Plan::compile in debug builds and from
// the test suite in all builds (including against hand-corrupted plans, so
// a validator regression is itself caught).
//
// What is checked, and why the runtime needs it:
//   1. Slot dataflow. Steps address activations by arena slot; the
//      validator replays the step list over a slot-state machine (slot 0 =
//      the external input, read-only). Every read must hit a slot that is
//      live with exactly the byte size the step expects (kAdd reads BOTH
//      its operands, including the slot it accumulates into), and every
//      write must land inside the arena. This is the residual, physical
//      form of the compiler's virtual-buffer liveness: any slot-assignment
//      bug that makes two overlapping live ranges share a slot shows up
//      here as a dead read or a size break in the chain.
//   2. Arena geometry. slot_stride_ must cover every activation the steps
//      move at the compiled batch — which also keeps the chunk layout's
//      per-chunk ranges inside the slot, since a chunk ending at image i1
//      stays below i1 * (slot_stride_ / batch_); the col/result scratch
//      offsets must tile the workspace exactly; every float conv's padded
//      images (Plan::conv_col_floats) and every conv's product must fit
//      their per-chunk scratch slices. Only kLinear steps may follow the first kLinear: the
//      runtime runs everything before it per chunk and the head once over
//      the whole batch.
//   3. Weight panels. Float steps must carry a weight matrix of exactly
//      the GEMM shape the kernel will read ([Co, Ci*K*K] conv rows,
//      [out, in] linear). The retired shift-GEMM strategy stays off: no
//      step may set shift_gemm or carry a w9 pack.
//   4. int8 lowering. A quantized step must carry the full quantized
//      panel, one finite positive scale per output channel, a grid width
//      in [2, 8] — and have released its float weights. Quantized plans
//      must have sized the int8 scratch; float plans must carry none.
//   5. Backend pinning. The plan's backend pointer must be live in the
//      kernel registry under its own name, the plan's quantized flag must
//      match the backend's datapath, and every step must run on it.
//   6. Folds (StepFold). Every fold must be one the rules allow: an
//      adjacent 1x1/s1/p0 expansion that alone reads a bias-free conv's
//      output, an adjacent add
//      whose body or projection the conv produced with no activation, and
//      no epilogue writing the slot its conv still reads. Each folded step
//      is run by exactly one conv, and every step so marked is.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.hpp"
#include "kernels/backend.hpp"

namespace alf {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw PlanVerifyError("Plan::verify: " + what);
}

std::string tag(size_t i, const Step& st) {
  return "step " + std::to_string(i) + " [" + op_kind_name(st.kind) + " '" +
         st.name + "']";
}

/// Per-slot replay state: whether the slot currently holds a live
/// activation, and its per-image element count when it does.
struct SlotState {
  bool live = false;
  size_t sz = 0;
};

}  // namespace

void Plan::verify() const {
  // --- Plan-level basics -------------------------------------------------
  if (steps_.empty()) fail("empty step list");
  if (batch_ < 1 || in_c_ < 1 || in_h_ < 1 || in_w_ < 1)
    fail("degenerate batch/input geometry");
  if (classes_ < 1) fail("plan produces no output features");
  if (nchunks_ < 1 || nchunks_ > batch_)
    fail("chunk grid " + std::to_string(nchunks_) + " outside [1, batch=" +
         std::to_string(batch_) + "]");

  // --- Backend pinning ---------------------------------------------------
  if (backend_ == nullptr) fail("no kernel backend pinned");
  if (kernels::find_backend(backend_->name) != backend_)
    fail(std::string("pinned backend '") + backend_->name +
         "' is not live in the kernel registry");
  if (quant_ != backend_->quantized_datapath)
    fail(std::string("quantized flag disagrees with backend '") +
         backend_->name + "' datapath");

  // --- Arena layout arithmetic ------------------------------------------
  if (slots_ < 1) fail("plan has no activation slots");
  if (col_off_ != slots_ * slot_stride_)
    fail("col scratch offset does not abut the activation slots");
  if (res_off_ != col_off_ + nchunks_ * col_sz_)
    fail("result scratch offset does not abut the col scratch");
  // Images in the widest chunk of any run: the per-chunk scratch bound.
  const size_t chunk_imgs = (batch_ + nchunks_ - 1) / nchunks_;
  const size_t head_at = head();

  // --- Step replay -------------------------------------------------------
  // slot 0 is the external input; arena slots are 1..slots_.
  std::vector<SlotState> slot(slots_ + 1);
  slot[0] = SlotState{true, image_floats()};
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& st = steps_[i];
    if (st.in > slots_)
      fail(tag(i, st) + ": input slot " + std::to_string(st.in) +
           " out of range (slots=" + std::to_string(slots_) + ")");
    if (st.out < 1 || st.out > slots_)
      fail(tag(i, st) + ": output slot " + std::to_string(st.out) +
           " out of range (slot 0 is the read-only input)");
    if (st.in_sz < 1 || st.out_sz < 1)
      fail(tag(i, st) + ": empty activation");
    if (i > head_at && st.kind != OpKind::kLinear)
      fail(tag(i, st) + ": follows the linear head (only kLinear may)");

    // Reads: the input slot must be live with the expected size. A stale
    // or size-mismatched read is exactly what an overlapping slot
    // assignment (two live buffers sharing a slot) degenerates into once
    // buffers are physical.
    if (!slot[st.in].live)
      fail(tag(i, st) + ": reads slot " + std::to_string(st.in) +
           " which holds no live activation");
    if (slot[st.in].sz != st.in_sz)
      fail(tag(i, st) + ": reads slot " + std::to_string(st.in) + " as " +
           std::to_string(st.in_sz) + " floats/image but the live value is " +
           std::to_string(slot[st.in].sz));
    if (st.kind == OpKind::kAdd) {
      // out = act(out + in): the destination is an operand too.
      if (!slot[st.out].live)
        fail(tag(i, st) + ": accumulates into dead slot " +
             std::to_string(st.out));
      if (slot[st.out].sz != st.out_sz || st.in_sz != st.out_sz)
        fail(tag(i, st) + ": residual operand shapes disagree");
      if (st.in == st.out)
        fail(tag(i, st) + ": residual add reads and writes the same slot");
    }

    // Arena coverage: every activation the step moves must fit its slot
    // at the compiled batch (slot 0 is the caller's buffer, not ours).
    if (st.in != 0 && batch_ * st.in_sz > slot_stride_)
      fail(tag(i, st) + ": input activation overflows the slot stride");
    if (batch_ * st.out_sz > slot_stride_)
      fail(tag(i, st) + ": output activation overflows the slot stride");

    // Per-kind geometry and weight-panel shape.
    switch (st.kind) {
      case OpKind::kConv: {
        const ConvGeom& g = st.geom;
        if (g.kernel < 1 || g.stride < 1) fail(tag(i, st) + ": bad geometry");
        if (g.in_h + 2 * g.pad < g.kernel || g.in_w + 2 * g.pad < g.kernel)
          fail(tag(i, st) + ": kernel larger than padded input");
        if (st.in_sz != g.in_c * g.in_h * g.in_w)
          fail(tag(i, st) + ": in_sz disagrees with conv geometry");
        if (st.out_sz != st.out_c * g.out_h() * g.out_w())
          fail(tag(i, st) + ": out_sz disagrees with conv geometry");
        // The whole-chunk padded images (float) and product must fit the
        // per-chunk scratch slices.
        if (!st.quantized && conv_col_floats(g, chunk_imgs) > col_sz_)
          fail(tag(i, st) +
               ": col input (padded images) overflows the col scratch");
        if (st.out_sz * chunk_imgs > res_sz_)
          fail(tag(i, st) + ": GEMM result overflows the result scratch");
        if (!st.quantized &&
            (st.w.rank() != 2 || st.w.dim(0) != st.out_c ||
             st.w.dim(1) != g.col_rows()))
          fail(tag(i, st) + ": weight matrix is not [Co, Ci*K*K]");
        if (!st.bias.empty() && st.bias.numel() != st.out_c)
          fail(tag(i, st) + ": bias length disagrees with out_c");
        break;
      }
      case OpKind::kLinear: {
        if (st.in_sz != st.in_features || st.out_sz != st.out_features)
          fail(tag(i, st) + ": in/out sizes disagree with features");
        if (!st.quantized &&
            (st.w.rank() != 2 || st.w.dim(0) != st.out_features ||
             st.w.dim(1) != st.in_features))
          fail(tag(i, st) + ": weight matrix is not [out, in]");
        if (!st.bias.empty() && st.bias.numel() != st.out_features)
          fail(tag(i, st) + ": bias length disagrees with out_features");
        break;
      }
      case OpKind::kMaxPool: {
        if (st.window < 1 || st.geom.in_h % st.window != 0 ||
            st.geom.in_w % st.window != 0)
          fail(tag(i, st) + ": window does not tile the input map");
        if (st.in_sz != st.geom.in_c * st.geom.in_h * st.geom.in_w ||
            st.out_sz != st.in_sz / (st.window * st.window))
          fail(tag(i, st) + ": pooled sizes disagree with geometry");
        break;
      }
      case OpKind::kGlobalAvgPool: {
        if (st.in_sz != st.geom.in_c * st.geom.in_h * st.geom.in_w ||
            st.out_sz != st.geom.in_c)
          fail(tag(i, st) + ": pooled sizes disagree with geometry");
        break;
      }
      case OpKind::kScaleShift: {
        if (st.in_sz != st.out_sz)
          fail(tag(i, st) + ": affine step changes activation size");
        if (st.scale.numel() != st.out_c || st.shift.numel() != st.out_c)
          fail(tag(i, st) + ": scale/shift length disagrees with channels");
        if (st.out_c == 0 || st.in_sz % st.out_c != 0)
          fail(tag(i, st) + ": channel count does not divide the activation");
        break;
      }
      case OpKind::kAdd:
      case OpKind::kActivation: {
        if (st.in_sz != st.out_sz)
          fail(tag(i, st) + ": elementwise step changes activation size");
        break;
      }
    }

    // int8 lowering completeness. Only conv/linear steps may be lowered;
    // a lowered step must carry the full panel + scales and have dropped
    // its float weights; an unlowered conv/linear on a quantized plan (or
    // vice versa) means compile and runtime disagree on the datapath.
    const bool lowerable =
        st.kind == OpKind::kConv || st.kind == OpKind::kLinear;
    if (st.quantized && !lowerable)
      fail(tag(i, st) + ": non-GEMM step marked quantized");
    if (lowerable && st.quantized != quant_)
      fail(tag(i, st) + (quant_ ? ": float step in a quantized plan"
                                : ": quantized step in a float plan"));
    if (st.quantized) {
      if (st.qbits < 2 || st.qbits > 8)
        fail(tag(i, st) + ": quantization grid outside [2, 8] bits");
      const size_t rows =
          st.kind == OpKind::kConv ? st.out_c : st.out_features;
      const size_t cols =
          st.kind == OpKind::kConv ? st.geom.col_rows() : st.in_features;
      if (st.qw.size() != rows * cols)
        fail(tag(i, st) + ": quantized panel has " +
             std::to_string(st.qw.size()) + " weights, geometry needs " +
             std::to_string(rows * cols));
      if (st.qw_scales.size() != rows)
        fail(tag(i, st) + ": expected one weight scale per output channel");
      for (const float s : st.qw_scales)
        if (!(s > 0.0f) || !std::isfinite(s))
          fail(tag(i, st) + ": non-finite or non-positive weight scale");
      if (!st.w.empty())
        fail(tag(i, st) + ": float weights not released after int8 lowering");
    }

    // The retired shift-GEMM strategy: no step may select it or carry its
    // weight pack (the runtime has no such path).
    if (st.shift_gemm)
      fail(tag(i, st) + ": selects the retired shift-GEMM strategy");
    if (!st.w9.empty())
      fail(tag(i, st) + ": carries a retired shift-GEMM weight pack");

    // One backend per plan: every step runs on the pinned one.
    if (st.be != backend_)
      fail(tag(i, st) + ": step backend '" +
           (st.be != nullptr ? st.be->name : "(none)") +
           "' is not the plan backend '" + backend_->name + "'");

    // Write: the output slot now holds this step's activation.
    slot[st.out] = SlotState{true, st.out_sz};
  }

  // --- Folds -------------------------------------------------------------
  if (folds_.size() != steps_.size())
    fail("fold table does not cover the step list");
  std::vector<bool> claimed(steps_.size(), false);
  for (size_t i = 0; i < steps_.size(); ++i) {
    const StepFold& f = folds_[i];
    const Step& s = steps_[i];
    if (f.exp == 0 && f.add == 0) continue;
    if (s.kind != OpKind::kConv || f.folded || i >= head_at)
      fail(tag(i, s) + ": runs folded steps but is not a per-image conv");
    size_t last = i;
    if (f.exp != 0) {
      if (f.exp != i + 1)
        fail(tag(i, s) + ": folds an expansion that does not follow it");
      const Step& e = steps_[f.exp];
      if (e.kind != OpKind::kConv || e.geom.kernel != 1 ||
          e.geom.stride != 1 || e.geom.pad != 0)
        fail(tag(i, s) + ": folded expansion is not a 1x1/s1/p0 conv");
      if (e.in != s.out || read_later(steps_, s.out, f.exp + 1))
        fail(tag(i, s) + ": folded expansion is not the only reader");
      if (!s.bias.empty())
        fail(tag(i, s) + ": folds an expansion after a biased conv");
      claimed[f.exp] = true;
      last = f.exp;
    }
    if (f.add != 0) {
      if (f.add != last + 1)
        fail(tag(i, s) + ": folds an add that does not follow it");
      const Step& a = steps_[f.add];
      if (a.kind != OpKind::kAdd)
        fail(tag(i, s) + ": folds a step that is not a residual add");
      if (steps_[last].act != Act::kNone)
        fail(tag(i, s) + ": folds an add after an activation");
      const size_t out = steps_[last].out;
      if (out != a.out &&
          (out != a.in || read_later(steps_, a.in, f.add + 1)))
        fail(tag(i, s) + ": folded add's operand is not this conv's output");
      if (f.exp != 0 && (a.in == s.out || a.out == s.out))
        fail(tag(i, s) + ": folded add reads the unwritten code slot");
      claimed[f.add] = true;
      last = f.add;
    }
    if (steps_[last].out == s.in && reads_input_in_place(s))
      fail(tag(i, s) + ": epilogue writes the slot the conv reads in place");
  }
  for (size_t i = 0; i < steps_.size(); ++i)
    if (folds_[i].folded != claimed[i])
      fail(tag(i, steps_[i]) + (claimed[i]
                                    ? ": run by a conv but not marked folded"
                                    : ": marked folded but no conv runs it"));

  // --- Final output ------------------------------------------------------
  if (steps_.back().out_sz != classes_)
    fail("final step produces " + std::to_string(steps_.back().out_sz) +
         " features, plan advertises " + std::to_string(classes_) +
         " classes");

  // --- int8 scratch sizing ----------------------------------------------
  if (quant_) {
    for (const Step& st : steps_) {
      if (st.kind == OpKind::kLinear && qws_sz_ < batch_ * st.in_features)
        fail("int8 activation scratch smaller than a linear input panel");
      if (st.kind == OpKind::kConv &&
          qbs_sz_ < st.geom.col_cols() * chunk_imgs)
        fail("per-image scale scratch smaller than a conv's GEMM columns");
    }
    if (qbs_sz_ < batch_)
      fail("per-image scale scratch smaller than the batch");
  } else if (qws_sz_ != 0 || qbs_sz_ != 0) {
    fail("float plan carries int8 scratch sizing");
  }

  // --- Weight arena & section table --------------------------------------
  // Steps read weights through non-owning views; the authority on where
  // the bytes live is the section table over the plan's single arena —
  // which is exactly what save/load serializes. Every section must sit
  // inside the arena, aligned and shape-consistent, and every non-empty
  // view must resolve to exactly one section at exactly its bytes. A
  // loaded blob whose table lies about geometry dies here, before any
  // kernel touches the data. (These checks run after the step replay so a
  // corrupted *shape* still reports its specific invariant above.)
  const auto view_bytes = [](const Step& st,
                             WeightField f) -> std::pair<const void*, size_t> {
    switch (f) {
      case WeightField::kW:
        return {st.w.data(), st.w.numel() * sizeof(float)};
      case WeightField::kBias:
        return {st.bias.data(), st.bias.numel() * sizeof(float)};
      case WeightField::kScale:
        return {st.scale.data(), st.scale.numel() * sizeof(float)};
      case WeightField::kShift:
        return {st.shift.data(), st.shift.numel() * sizeof(float)};
      case WeightField::kQw:
        return {st.qw.data(), st.qw.size()};
      case WeightField::kQwScales:
        return {st.qw_scales.data(), st.qw_scales.size() * sizeof(float)};
    }
    return {nullptr, 0};
  };
  std::vector<uint8_t> bound(steps_.size() * kWeightFieldCount, 0);
  for (size_t s = 0; s < sections_.size(); ++s) {
    const WeightSection& sec = sections_[s];
    const std::string stag = "weight section " + std::to_string(s);
    if (sec.step >= steps_.size())
      fail(stag + ": step index out of range");
    if (static_cast<size_t>(sec.field) >= kWeightFieldCount)
      fail(stag + ": unknown weight field");
    if (sec.elem_size != 1 && sec.elem_size != sizeof(float))
      fail(stag + ": unsupported element size");
    if (sec.offset % kWeightAlign != 0)
      fail(stag + ": offset not " + std::to_string(kWeightAlign) +
           "-byte aligned");
    if (sec.offset + sec.bytes > arena_.bytes() ||
        sec.offset + sec.bytes < sec.offset)
      fail(stag + ": payload overflows the weight arena");
    if (sec.rank < 1 || sec.rank > TensorView::kMaxRank)
      fail(stag + ": rank outside [1, 3]");
    uint64_t numel = 1;
    for (uint32_t d = 0; d < sec.rank; ++d) numel *= sec.dims[d];
    if (numel * sec.elem_size != sec.bytes)
      fail(stag + ": byte count disagrees with dims");
    uint8_t& slot_bound =
        bound[sec.step * kWeightFieldCount + static_cast<size_t>(sec.field)];
    if (slot_bound != 0)
      fail(stag + ": duplicate section for one step field");
    slot_bound = 1;
    const auto [vptr, vbytes] = view_bytes(steps_[sec.step], sec.field);
    if (vptr != arena_.data() + sec.offset)
      fail(stag + ": step view does not point at its section");
    if (vbytes != sec.bytes)
      fail(stag + ": step view size disagrees with the section");
  }
  for (size_t i = 0; i < steps_.size(); ++i)
    for (size_t f = 0; f < kWeightFieldCount; ++f) {
      const auto [vptr, vbytes] =
          view_bytes(steps_[i], static_cast<WeightField>(f));
      if (vbytes != 0 && bound[i * kWeightFieldCount + f] == 0)
        fail(tag(i, steps_[i]) + ": weight view has no backing section");
      (void)vptr;
    }
}

}  // namespace alf
