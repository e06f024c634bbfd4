#include "engine/exec_context.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/asan.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "kernels/backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/quantize.hpp"

namespace alf {
namespace {

/// Runs fn(ci, i0, i1) for every chunk ci = [i0, i1) of an n-image batch
/// split over a `grid`-chunk partition (the plan's frozen grid, so the
/// split never depends on the runtime thread count). A single chunk runs
/// inline with no dispatcher: no std::function conversion, so it performs
/// zero heap allocations; multi-chunk dispatch costs one closure
/// allocation per call.
template <typename F>
void for_each_chunk(size_t n, size_t grid, const F& fn) {
  const size_t nch = std::min(grid, n);
  const size_t chunk = (n + nch - 1) / nch;
  const size_t nchunks = (n + chunk - 1) / chunk;
  if (nchunks == 1) {
    fn(size_t{0}, size_t{0}, n);
    return;
  }
  parallel_for_chunked(
      0, nchunks,
      [&](size_t lo, size_t hi) {
        for (size_t ci = lo; ci < hi; ++ci)
          fn(ci, ci * chunk, std::min(n, ci * chunk + chunk));
      },
      /*min_per_worker=*/1);
}

/// dst[i] = act(src[i] + *bias) (no add when bias is null): the conv
/// epilogue fused into the NCHW scatter, with bias_act_inplace's exact
/// per-element float ops.
void bias_act_copy(const float* src, float* dst, size_t n, const float* bias,
                   Act act) {
  if (bias == nullptr) {
    std::memcpy(dst, src, n * sizeof(float));
    act_inplace(act, dst, n);
    return;
  }
  const float b = *bias;
  if (act == Act::kRelu) {
    for (size_t i = 0; i < n; ++i) {
      const float v = src[i] + b;
      dst[i] = v > 0.0f ? v : 0.0f;
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] + b;
  act_inplace(act, dst, n);
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
  workspace_.assign(plan_->workspace_floats(), 0.0f);
  if (plan_->quantized()) {
    qws_.assign(plan_->qws_bytes(), 0);
    qbs_.assign(plan_->qbs_floats(), 0.0f);
    // One padded-image slice per chunk, sized for the widest chunk any
    // quantized conv runs (its own grid, as run_conv partitions it).
    for (const Step& st : plan_->steps()) {
      if (st.kind != OpKind::kConv) continue;
      const size_t nch = plan_->step_chunks(st);
      const size_t imgs = (plan_->batch() + nch - 1) / nch;
      qimg_stride_ = std::max(qimg_stride_,
                              imgs * conv_shape(st.geom, 1).image_size());
    }
    qimg_.assign(plan_->chunks() * qimg_stride_, 0);
  }
  if constexpr (asan_enabled()) {
    // Arena-slot lifetime enforcement: record, per physical slot, the last
    // step that touches it (the loop runs in step order, so each entry
    // ends at its maximum). All activation slots start poisoned; run_rows
    // unpoisons rows as their writer executes and re-poisons each slot the
    // moment its last toucher retires, so the arena is fully poisoned
    // between runs and a cross-lifetime read faults immediately. The conv
    // scratch past the slots stays unpoisoned: GEMMs legitimately read
    // their result region (beta accumulation) before first writing it.
    const auto& steps = plan_->steps();
    slot_last_touch_.assign(plan_->activation_slots() + 1, 0);
    for (size_t i = 0; i < steps.size(); ++i) {
      slot_last_touch_[steps[i].in] = i;
      slot_last_touch_[steps[i].out] = i;
    }
    // The final activation outlives the step list: run_rows copies it to
    // the caller's logit buffer after the last step.
    slot_last_touch_[steps.back().out] = steps.size();
    for (size_t s = 1; s <= plan_->activation_slots(); ++s)
      asan_poison(workspace_.data() + (s - 1) * plan_->slot_stride(),
                  plan_->slot_stride() * sizeof(float));
  }
}

void ExecContext::run_conv(const Step& st, const float* in, float* out,
                           size_t n) {
  // The batch partition is frozen in the Plan (step_chunks()), so results
  // are bit-identical for any runtime thread count; each chunk owns one
  // slice of every scratch region of THIS context. Every path computes the
  // chunk's images side by side as one [Co, imgs*Ho*Wo] product into the
  // result scratch, then fuses the bias/activation epilogue into the
  // scatter back to NCHW.
  const Plan& p = *plan_;
  const float* bias = st.bias.empty() ? nullptr : st.bias.data();
  const ConvGeom& g = st.geom;
  const bool gathered = st.gathered_conv();
  for_each_chunk(n, p.step_chunks(st), [&](size_t ci, size_t i0, size_t i1) {
    const size_t imgs = i1 - i0;
    const size_t cols = g.col_cols();
    const size_t ld = imgs * cols;
    const size_t rows = g.col_rows();
    float* res = workspace_.data() + p.result_offset() + ci * p.result_floats();
    float* col = workspace_.data() + p.col_offset() + ci * p.col_floats();
    const kernels::ConvShape cs = conv_shape(g, imgs);
    if (st.quantized) {
      // Quantize each image ONCE, with its own max-abs scale, into a
      // zero-point-padded int8 copy; qconv then packs the unfold's B
      // panels straight from those bytes. The scales depend only on image
      // content, so the result is independent of the thread count and the
      // chunk grid. The image max bounds every unfold entry (each is a
      // pixel or a padding zero; it exceeds the unfold's max only when
      // stride > kernel skips pixels — still a valid, just coarser, grid).
      const int32_t levels = (1 << (st.qbits - 1)) - 1;
      // Provably non-negative inputs (post-ReLU) take the asymmetric grid:
      // zero-point at the bottom of the range, twice the resolution of the
      // symmetric grid on [0, max].
      const float span = static_cast<float>(st.in_nonneg ? 2 * levels : levels);
      const int32_t zp = st.in_nonneg ? -levels : 0;
      int8_t* qimg = qimg_.data() + ci * qimg_stride_;
      float* bscales = qbs_.data() + ci * p.qbs_stride();
      for (size_t j = 0; j < imgs; ++j) {
        const float* img = in + (i0 + j) * st.in_sz;
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
      kernels::qconv(st.be, st.qw.data(), rows, qimg, cs, res, ld, st.out_c,
                     params, qws_.data() + ci * p.col_floats());
    } else if (gathered) {
      // Each image is copied once into a zero-padded float buffer in the
      // chunk's col slice (read in place from the activation slot when the
      // conv has no padding); the backend's conv gathers B panels from it.
      const float* x = in + i0 * st.in_sz;
      if (g.pad != 0) {
        for (size_t j = 0; j < imgs; ++j)
          kernels::pad_f32(in + (i0 + j) * st.in_sz, g.in_c, g.in_h, g.in_w,
                           g.pad, col + j * cs.image_size());
        x = col;
      }
      st.be->conv(st.w.data(), rows, x, cs, res, ld, st.out_c);
    } else {
      for (size_t j = 0; j < imgs; ++j)
        im2col_view(in + (i0 + j) * st.in_sz, g, col + j * cols, ld);
      kernels::gemm_dispatch(st.be, st.tile, st.w.data(), rows, false, col, ld,
                             false, res, ld, st.out_c, rows, ld, 1.0f, 0.0f);
    }
    for (size_t j = 0; j < imgs; ++j)
      for (size_t o = 0; o < st.out_c; ++o)
        bias_act_copy(res + o * ld + j * cols,
                      out + (i0 + j) * st.out_sz + o * cols, cols,
                      bias != nullptr ? bias + o : nullptr, st.act);
  });
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

  float* ws = workspace_.data();
  const size_t stride = p.slot_stride();
  const auto in_ptr = [&](const Step& st) -> const float* {
    return st.in == 0 ? x : ws + (st.in - 1) * stride;
  };
  const auto out_ptr = [&](const Step& st) -> float* {
    return ws + (st.out - 1) * stride;
  };

  for (size_t si = 0; si < p.steps().size(); ++si) {
    const Step& st = p.steps()[si];
    const float* src = in_ptr(st);
    float* dst = out_ptr(st);
    // Open exactly the rows this step writes; the rest of the slot (unused
    // batch tail included) stays poisoned, so partial-batch overreads
    // fault too. For kAdd the destination rows are already open — its
    // producer unpoisoned them — and the unpoison is idempotent.
    if constexpr (asan_enabled())
      asan_unpoison(dst, n * st.out_sz * sizeof(float));
    switch (st.kind) {
      case OpKind::kConv:
        run_conv(st, src, dst, n);
        break;
      case OpKind::kLinear: {
        if (st.quantized) {
          // Dynamic per-image input quantization into the int8 scratch
          // (conv chunks are done by the time the head runs, so the
          // buffer is free), then qgemm against the pre-transposed weight
          // panel. One scale per batch row keeps every image's grid tight.
          const float levels = static_cast<float>((1 << (st.qbits - 1)) - 1);
          const float span = st.in_nonneg ? 2.0f * levels : levels;
          const float zp = st.in_nonneg ? -levels : 0.0f;
          float* ascales = qbs_.data();
          for (size_t i = 0; i < n; ++i) {
            const float* row = src + i * st.in_features;
            const float amax = max_abs_view(row, st.in_features);
            const float scale = amax > 0.0f ? amax / span : 1.0f;
            const float inv = 1.0f / scale;
            ascales[i] = scale;
            int8_t* qrow = qws_.data() + i * st.in_features;
            kernels::quantize_row_i8(row, qrow, st.in_features, inv,
                                     static_cast<int32_t>(zp),
                                     static_cast<int32_t>(levels));
          }
          kernels::QgemmParams params;
          params.a_scales = ascales;              // per-image
          params.b_scales = st.qw_scales.data();  // per-output-feature
          params.a_zp = static_cast<int32_t>(zp);
          st.be->qgemm(qws_.data(), st.in_features, st.qw.data(),
                       st.out_features, dst, st.out_features, n,
                       st.in_features, st.out_features, params);
          const float* b = st.bias.empty() ? nullptr : st.bias.data();
          if (b != nullptr) {
            for (size_t i = 0; i < n; ++i) {
              float* row = dst + i * st.out_features;
              for (size_t j = 0; j < st.out_features; ++j) row[j] += b[j];
            }
          }
          act_inplace(st.act, dst, n * st.out_features);
        } else {
          linear_forward_view(src, n, st.in_features, st.w.data(),
                              st.out_features,
                              st.bias.empty() ? nullptr : st.bias.data(),
                              st.act, dst, st.be);
        }
        break;
      }
      case OpKind::kGlobalAvgPool:
        global_avg_pool_view(src, n, st.geom.in_c,
                             st.geom.in_h * st.geom.in_w, dst);
        act_inplace(st.act, dst, n * st.out_sz);
        break;
      case OpKind::kMaxPool:
        maxpool_view(src, n, st.geom.in_c, st.geom.in_h, st.geom.in_w,
                     st.window, dst, /*argmax=*/nullptr);
        act_inplace(st.act, dst, n * st.out_sz);
        break;
      case OpKind::kAdd:
        // Elementwise steps split by image over the plan's chunk grid.
        for_each_chunk(n, p.chunks(), [&](size_t, size_t i0, size_t i1) {
          const float* a = src + i0 * st.out_sz;
          float* d = dst + i0 * st.out_sz;
          const size_t total = (i1 - i0) * st.out_sz;
          if (st.act == Act::kRelu) {
            // The residual hot path: merge + block ReLU in one pass.
            for (size_t i = 0; i < total; ++i) {
              const float v = d[i] + a[i];
              d[i] = v > 0.0f ? v : 0.0f;
            }
          } else {
            for (size_t i = 0; i < total; ++i) d[i] += a[i];
            act_inplace(st.act, d, total);
          }
        });
        break;
      case OpKind::kScaleShift: {
        const size_t hw = st.geom.in_h * st.geom.in_w;
        for_each_chunk(n, p.chunks(), [&](size_t, size_t i0, size_t i1) {
          for (size_t i = i0; i < i1; ++i) {
            for (size_t ch = 0; ch < st.out_c; ++ch) {
              const float s = st.scale.at(ch), b = st.shift.at(ch);
              const float* pp = src + (i * st.out_c + ch) * hw;
              float* q = dst + (i * st.out_c + ch) * hw;
              for (size_t j = 0; j < hw; ++j) q[j] = pp[j] * s + b;
            }
          }
          act_inplace(st.act, dst + i0 * st.out_sz, (i1 - i0) * st.out_sz);
        });
        break;
      }
      case OpKind::kActivation:
        for_each_chunk(n, p.chunks(), [&](size_t, size_t i0, size_t i1) {
          const size_t total = (i1 - i0) * st.out_sz;
          std::memcpy(dst + i0 * st.out_sz, src + i0 * st.out_sz,
                      total * sizeof(float));
          act_inplace(st.act, dst + i0 * st.out_sz, total);
        });
        break;
    }
    // Kill slots whose last toucher just retired: any later read of them
    // is a lifetime bug and now faults as use-after-poison.
    if constexpr (asan_enabled()) {
      if (st.in != 0 && slot_last_touch_[st.in] == si)
        asan_poison(ws + (st.in - 1) * stride, stride * sizeof(float));
      if (slot_last_touch_[st.out] == si)
        asan_poison(ws + (st.out - 1) * stride, stride * sizeof(float));
    }
  }
  const Step& last = p.steps().back();
  std::memcpy(out, ws + (last.out - 1) * stride,
              n * p.classes() * sizeof(float));
  // The logits are delivered; the final slot dies too, restoring the
  // fully-poisoned between-runs state the constructor established.
  if constexpr (asan_enabled())
    asan_poison(ws + (last.out - 1) * stride, stride * sizeof(float));
}

Tensor ExecContext::run(const Tensor& x) {
  Tensor out({x.dim(0), plan_->classes()});
  run(x, out);
  return out;
}

}  // namespace alf
