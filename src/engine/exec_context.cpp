#include "engine/exec_context.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/asan.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "kernels/backend.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/quantize.hpp"

namespace alf {
namespace {

/// Images per chunk when an n-image run is cut over a `grid`-chunk
/// partition (the plan's frozen grid, so the cut never depends on the
/// runtime thread count): ceil(n / min(grid, n)); the last chunk may be
/// shorter.
size_t chunk_images(size_t n, size_t grid) {
  const size_t nch = std::min(grid, n);
  return (n + nch - 1) / nch;
}

/// Runs fn(ci, i0, i1) for every chunk ci = [i0, i1) of an n-image batch
/// cut by chunk_images(). A single chunk runs inline with no dispatcher.
/// A multi-chunk dispatch hands the pool a closure holding one pointer,
/// which std::function keeps in its small-object buffer (libstdc++'s holds
/// 16 bytes; three captured references would not fit and would allocate),
/// so neither form performs a heap allocation.
template <typename F>
void for_each_chunk(size_t n, size_t grid, const F& fn) {
  const size_t chunk = chunk_images(n, grid);
  const size_t nchunks = (n + chunk - 1) / chunk;
  if (nchunks == 1) {
    fn(size_t{0}, size_t{0}, n);
    return;
  }
  const struct {
    size_t n, chunk;
    const F* fn;
  } cut{n, chunk, &fn};
  parallel_for_chunked(
      0, nchunks,
      [c = &cut](size_t lo, size_t hi) {
        for (size_t ci = lo; ci < hi; ++ci)
          (*c->fn)(ci, ci * c->chunk, std::min(c->n, ci * c->chunk + c->chunk));
      },
      /*min_per_worker=*/1);
}

/// ASan builds only: (un)poisons floats [lo, hi) of an arena slot whose
/// image rows are `row` floats apart, except the 8-byte shadow granules
/// that straddle two rows. Those are never poisoned, by this or by the
/// constructor: the rows on either side may belong to two chunks running
/// on two threads, which would race on the granule's one shadow byte.
/// That leaves a hole of under 8 bytes per row edge when a row is an odd
/// number of floats, and none when it is even. Ranges start at a row
/// edge; a partial granule at `hi` lies inside one row, so only its owner
/// touches it.
void asan_rows(bool poison, const float* slot, size_t row, size_t lo,
               size_t hi) {
  constexpr uintptr_t kMask = ~uintptr_t{7};  // 8-byte shadow granules
  const auto addr = [slot](size_t f) {
    return reinterpret_cast<uintptr_t>(slot + f);
  };
  for (size_t r = lo / row; r * row < hi; ++r) {
    const uintptr_t a = (addr(std::max(lo, r * row)) + 7) & kMask;
    const uintptr_t b = std::min(addr(std::min(hi, (r + 1) * row)),
                                 addr((r + 1) * row) & kMask);
    if (a >= b) continue;
    if (poison)
      asan_poison(reinterpret_cast<const void*>(a), b - a);
    else
      asan_unpoison(reinterpret_cast<const void*>(a), b - a);
  }
}

/// The kernels' view of `imgs` images of one conv step, each padded by the
/// conv's own padding (the caller writes the border explicitly).
kernels::ConvShape conv_shape(const ConvGeom& g, size_t imgs) {
  kernels::ConvShape s;
  s.in_c = g.in_c;
  s.in_h = g.in_h + 2 * g.pad;
  s.in_w = g.in_w + 2 * g.pad;
  s.kernel = g.kernel;
  s.stride = g.stride;
  s.images = imgs;
  return s;
}

}  // namespace

ExecContext::ExecContext(std::shared_ptr<const Plan> plan)
    : plan_(std::move(plan)) {
  ALF_CHECK(plan_ != nullptr) << "ExecContext: null plan";
  const Plan& p = *plan_;
  workspace_.assign(p.workspace_floats(), 0.0f);
  head_ = p.head();
  if (p.quantized()) {
    qws_.assign(p.qws_bytes(), 0);
    qbs_.assign(p.qbs_floats(), 0.0f);
    // One padded-image slice per chunk, sized for the widest chunk any
    // run cuts and the widest quantized conv.
    const size_t imgs = (p.batch() + p.chunks() - 1) / p.chunks();
    for (const Step& st : p.steps())
      if (st.kind == OpKind::kConv)
        qimg_stride_ = std::max(qimg_stride_,
                                imgs * conv_shape(st.geom, 1).image_size());
    qimg_.assign(p.chunks() * qimg_stride_, 0);
  }
  if constexpr (asan_enabled()) {
    // Arena-slot lifetime enforcement: record, per physical slot, the last
    // step that touches it (the loop runs in step order, so each entry
    // ends at its maximum). All activation slots start poisoned; each
    // chunk unpoisons the rows a step writes and re-poisons its own rows
    // of a slot the moment the slot's last toucher retires, so the arena
    // is fully poisoned between runs and a cross-lifetime read faults
    // immediately. The conv scratch past the slots stays unpoisoned: GEMMs
    // legitimately read their result region (beta accumulation) before
    // first writing it.
    const auto& steps = p.steps();
    slot_last_touch_.assign(p.activation_slots() + 1, 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      slot_last_touch_[steps[i].in] = i;
      slot_last_touch_[steps[i].out] = i;
    }
    // The final activation outlives the step list: run_rows copies it to
    // the caller's logit buffer after the last step.
    slot_last_touch_[steps.back().out] = steps.size();
    const size_t row = p.slot_stride() / p.batch();
    for (size_t s = 1; s <= p.activation_slots(); ++s)
      asan_rows(true, workspace_.data() + (s - 1) * p.slot_stride(), row, 0,
                p.batch() * row);
  }
}

void ExecContext::run_conv(size_t si, const float* in, float* out,
                           const float* residual, size_t imgs, size_t ci) {
  // The chunk's images sit back to back at `in`; chunk ci owns slice ci of
  // every scratch region of THIS context. One call of the plan backend's
  // conv entry (qconv on int8) computes the images side by side as one
  // [Co, imgs*Ho*Wo] product whose epilogue stores it straight to NCHW;
  // the result scratch is workspace for entries that finish the whole
  // product before storing it.
  const Plan& p = *plan_;
  const kernels::KernelBackend* be = p.backend();
  const Step& st = p.steps()[si];
  const StepFold& f = p.folds()[si];
  // The epilogue: the bias and activation of the conv that leaves the
  // output (the expansion when one is folded), then a folded add's.
  const Step& top = p.steps()[f.exp != 0 ? f.exp : si];
  kernels::ConvEpilogue ep;
  ep.out = out;
  ep.bias = top.bias.empty() ? nullptr : top.bias.data();
  ep.residual = residual;
  ep.act = f.add != 0 ? p.steps()[f.add].act : top.act;
  if (f.exp != 0) {
    ep.co = top.out_c;
    ep.inner_act = st.act;
    if (top.quantized) {
      ep.exp_qw = top.qw.data();
      ep.exp_scales = top.qw_scales.data();
    } else {
      ep.exp_w = top.w.data();
    }
  }
  const ConvGeom& g = st.geom;
  const size_t cols = g.col_cols();
  const size_t ld = imgs * cols;
  const size_t rows = g.col_rows();
  float* res = workspace_.data() + p.result_offset() + ci * p.result_floats();
  const kernels::ConvShape cs = conv_shape(g, imgs);
  if (st.quantized) {
    // Quantize each image ONCE, with its own max-abs scale, into a
    // zero-point-padded int8 copy; qconv then packs the unfold's B panels
    // straight from those bytes. The scales depend only on image content,
    // so the result is independent of the thread count and the chunk
    // grid. The image max bounds every unfold entry (each is a pixel or a
    // padding zero; it exceeds the unfold's max only when stride > kernel
    // skips pixels — still a valid, just coarser, grid).
    const int32_t levels = (1 << (st.qbits - 1)) - 1;
    // Provably non-negative inputs (post-ReLU) take the asymmetric grid:
    // zero-point at the bottom of the range, twice the resolution of the
    // symmetric grid on [0, max].
    const float span = static_cast<float>(st.in_nonneg ? 2 * levels : levels);
    const int32_t zp = st.in_nonneg ? -levels : 0;
    int8_t* qimg = qimg_.data() + ci * qimg_stride_;
    float* bscales = qbs_.data() + ci * p.qbs_stride();
    for (size_t j = 0; j < imgs; ++j) {
      const float* img = in + j * st.in_sz;
      const float amax = kernels::max_abs_f32(img, st.in_sz);
      const float scale = amax > 0.0f ? amax / span : 1.0f;
      std::fill(bscales + j * cols, bscales + (j + 1) * cols, scale);
      kernels::quantize_pad_i8(img, g.in_c, g.in_h, g.in_w, g.pad,
                               1.0f / scale, zp, levels,
                               qimg + j * cs.image_size());
    }
    kernels::QgemmParams params;
    params.a_scales = st.qw_scales.data();  // per-output-channel
    params.b_scales = bscales;              // per-image
    params.b_zp = zp;
    be->qconv(st.qw.data(), rows, qimg, cs, res, ld, st.out_c, params, &ep);
    return;
  }
  // Each image is copied once into a zero-padded float buffer in the
  // chunk's col slice (read in place from the activation slot when the
  // conv has no padding); the conv entry reads B from it.
  const float* x = in;
  if (g.pad != 0) {
    float* col = workspace_.data() + p.col_offset() + ci * p.col_floats();
    for (size_t j = 0; j < imgs; ++j)
      kernels::pad_f32(in + j * st.in_sz, g.in_c, g.in_h, g.in_w, g.pad,
                       col + j * cs.image_size());
    x = col;
  }
  be->conv(st.w.data(), rows, x, cs, res, ld, st.out_c, &ep);
}

void ExecContext::run_linear(const Step& st, const float* src, float* dst,
                             size_t n) {
  if (!st.quantized) {
    linear_forward_view(src, n, st.in_features, st.w.data(), st.out_features,
                        st.bias.empty() ? nullptr : st.bias.data(), st.act,
                        dst, plan_->backend());
    return;
  }
  // Dynamic per-image input quantization into the int8 scratch (the conv
  // chunks are done by the time the head runs, so the buffer is free),
  // then qgemm against the pre-transposed weight panel. One scale per
  // batch row keeps every image's grid tight.
  const float levels = static_cast<float>((1 << (st.qbits - 1)) - 1);
  const float span = st.in_nonneg ? 2.0f * levels : levels;
  const float zp = st.in_nonneg ? -levels : 0.0f;
  float* ascales = qbs_.data();
  for (size_t i = 0; i < n; ++i) {
    const float* row = src + i * st.in_features;
    const float amax = max_abs_view(row, st.in_features);
    const float scale = amax > 0.0f ? amax / span : 1.0f;
    ascales[i] = scale;
    kernels::quantize_row_i8(row, qws_.data() + i * st.in_features,
                             st.in_features, 1.0f / scale,
                             static_cast<int32_t>(zp),
                             static_cast<int32_t>(levels));
  }
  kernels::QgemmParams params;
  params.a_scales = ascales;              // per-image
  params.b_scales = st.qw_scales.data();  // per-output-feature
  params.a_zp = static_cast<int32_t>(zp);
  plan_->backend()->qgemm(qws_.data(), st.in_features, st.qw.data(),
                          st.out_features, dst, st.out_features, n,
                          st.in_features, st.out_features, params);
  if (!st.bias.empty()) {
    const float* b = st.bias.data();
    for (size_t i = 0; i < n; ++i) {
      float* row = dst + i * st.out_features;
      for (size_t j = 0; j < st.out_features; ++j) row[j] += b[j];
    }
  }
  act_inplace(st.act, dst, n * st.out_features);
}

void ExecContext::run_image_step(const Step& st, const float* src, float* dst,
                                 size_t imgs) {
  const size_t total = imgs * st.out_sz;
  switch (st.kind) {
    case OpKind::kConv:
    case OpKind::kLinear:
      ALF_CHECK(false) << "convs run through run_conv, kLinear batch-level";
      break;
    case OpKind::kGlobalAvgPool:
      global_avg_pool_view(src, imgs, st.geom.in_c,
                           st.geom.in_h * st.geom.in_w, dst);
      act_inplace(st.act, dst, total);
      break;
    case OpKind::kMaxPool:
      maxpool_view(src, imgs, st.geom.in_c, st.geom.in_h, st.geom.in_w,
                   st.window, dst, /*argmax=*/nullptr);
      act_inplace(st.act, dst, total);
      break;
    case OpKind::kAdd:
      if (st.act == Act::kRelu) {
        // The residual hot path: merge + block ReLU in one pass.
        for (size_t i = 0; i < total; ++i) {
          const float v = dst[i] + src[i];
          dst[i] = v > 0.0f ? v : 0.0f;
        }
      } else {
        for (size_t i = 0; i < total; ++i) dst[i] += src[i];
        act_inplace(st.act, dst, total);
      }
      break;
    case OpKind::kScaleShift: {
      const size_t hw = st.geom.in_h * st.geom.in_w;
      for (size_t i = 0; i < imgs; ++i) {
        for (size_t ch = 0; ch < st.out_c; ++ch) {
          const float s = st.scale.at(ch), b = st.shift.at(ch);
          const float* pp = src + (i * st.out_c + ch) * hw;
          float* q = dst + (i * st.out_c + ch) * hw;
          for (size_t j = 0; j < hw; ++j) q[j] = pp[j] * s + b;
        }
      }
      act_inplace(st.act, dst, total);
      break;
    }
    case OpKind::kActivation:
      std::memcpy(dst, src, total * sizeof(float));
      act_inplace(st.act, dst, total);
      break;
  }
}

void ExecContext::run(const Tensor& x, Tensor& out) {
  const Plan& p = *plan_;
  ALF_CHECK_EQ(x.rank(), size_t{4});
  const size_t n = x.dim(0);
  ALF_CHECK_EQ(x.dim(1), p.in_c());
  ALF_CHECK_EQ(x.dim(2), p.in_h());
  ALF_CHECK_EQ(x.dim(3), p.in_w());
  ALF_CHECK_EQ(out.rank(), size_t{2});
  ALF_CHECK_EQ(out.dim(0), n);
  ALF_CHECK_EQ(out.dim(1), p.classes());
  run_rows(x.data(), n, out.data());
}

void ExecContext::run_rows(const float* x, size_t n, float* out) {
  const Plan& p = *plan_;
  ALF_CHECK(x != nullptr && out != nullptr);
  ALF_CHECK(n >= 1 && n <= p.batch())
      << "engine compiled for batch <= " << p.batch() << ", got " << n;

  const std::vector<Step>& steps = p.steps();
  const std::vector<StepFold>& folds = p.folds();
  const size_t stride = p.slot_stride();
  const size_t row = stride / p.batch();  // floats per image row of a slot
  const auto slot = [&](size_t s) {
    return workspace_.data() + (s - 1) * stride;
  };
  // ASan builds: kill the slots whose last toucher just retired (rows
  // [r0, r1) of them: the chunk's own, or all of them after the region),
  // so any later read of them faults as use-after-poison.
  const auto retire = [&](size_t si, size_t r0, size_t r1) {
    const Step& st = steps[si];
    if (st.in != 0 && slot_last_touch_[st.in] == si)
      asan_rows(true, slot(st.in), row, r0 * row, r1 * row);
    if (slot_last_touch_[st.out] == si)
      asan_rows(true, slot(st.out), row, r0 * row, r1 * row);
  };

  // The per-image steps, chunk-major: one region over the plan's grid in
  // which every chunk carries its images through all of them in plan
  // order. A chunk starting at image i0 keeps its images back to back from
  // row i0 of every slot it touches, so chunks at different steps never
  // share a float even where a slot is reused for another activation size.
  //
  // A conv runs the steps folded into it (Plan::folds()) in its epilogue
  // and writes only the slot the last of them leaves; the run skips those
  // steps. The code slot of a folded expansion is never written.
  if (head_ > 0) {
    for_each_chunk(n, p.chunks(), [&](size_t ci, size_t i0, size_t i1) {
      const auto rows_of = [&](size_t s, size_t sz) -> const float* {
        return s == 0 ? x + i0 * sz : slot(s) + i0 * row;
      };
      for (size_t si = 0; si < head_; ++si) {
        const StepFold& f = folds[si];
        if (f.folded) continue;
        const Step& st = steps[si];
        // The step whose output this one leaves: its last folded step.
        const size_t last = f.add != 0 ? f.add : f.exp != 0 ? f.exp : si;
        const Step& fin = steps[last];
        const float* src = rows_of(st.in, st.in_sz);
        float* dst = slot(fin.out) + i0 * row;
        // Open exactly the rows this step writes; the rest of the slot
        // (unused batch tail included) stays poisoned, so overreads fault
        // too. For kAdd, run alone or folded, the destination rows are
        // already open — the body's producer unpoisoned them — and the
        // unpoison is idempotent.
        if constexpr (asan_enabled())
          asan_rows(false, slot(fin.out), row, i0 * row,
                    i0 * row + (i1 - i0) * fin.out_sz);
        if (st.kind != OpKind::kConv) {
          run_image_step(st, src, dst, i1 - i0);
        } else {
          // A folded add's residual: the shortcut (add.in) when the conv
          // wrote the body, else the body itself, which the projection
          // conv updates in place.
          const Step& top = steps[f.exp != 0 ? f.exp : si];
          const float* res = f.add == 0          ? nullptr
                             : top.out == fin.out ? rows_of(fin.in, fin.in_sz)
                                                  : dst;
          run_conv(si, src, dst, res, i1 - i0, ci);
        }
        if constexpr (asan_enabled())
          for (size_t s = si; s <= last; ++s) retire(s, i0, i1);
      }
    });
  }

  // The batch-level head runs once over all n rows: running it per chunk
  // would let a chunk's row count pick a different GEMM path, and change
  // float bits. Its input (or, with no head, the final activation) is
  // packed in place to n dense rows first: chunk k's block moves from row
  // k*chunk down to image k*chunk, never over a block not yet moved.
  const bool has_head = head_ < steps.size();
  const size_t packed = has_head ? steps[head_].in : steps.back().out;
  if (packed != 0) {
    const size_t sz = has_head ? steps[head_].in_sz : steps.back().out_sz;
    float* s = slot(packed);
    if constexpr (asan_enabled()) asan_rows(false, s, row, 0, n * sz);
    const size_t chunk = chunk_images(n, p.chunks());
    for (size_t i0 = chunk; i0 < n && sz != row; i0 += chunk)
      std::memmove(s + i0 * sz, s + i0 * row,
                   std::min(chunk, n - i0) * sz * sizeof(float));
  }
  for (size_t si = head_; si < steps.size(); ++si) {
    const Step& st = steps[si];
    if constexpr (asan_enabled())
      asan_rows(false, slot(st.out), row, 0, n * st.out_sz);
    run_linear(st, st.in == 0 ? x : slot(st.in), slot(st.out), n);
    if constexpr (asan_enabled()) retire(si, 0, p.batch());
  }

  const Step& last = steps.back();
  std::memcpy(out, slot(last.out), n * p.classes() * sizeof(float));
  // The logits are delivered; the final slot dies too, restoring the
  // fully-poisoned between-runs state the constructor established.
  if constexpr (asan_enabled())
    asan_rows(true, slot(last.out), row, 0, p.batch() * row);
}

Tensor ExecContext::run(const Tensor& x) {
  Tensor out({x.dim(0), plan_->classes()});
  run(x, out);
  return out;
}

}  // namespace alf
