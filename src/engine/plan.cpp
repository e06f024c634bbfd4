#include "engine/plan.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <new>
#include <utility>

#include "alf/alf_conv.hpp"
#include "alf/deploy.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "kernels/backend.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/quantize.hpp"

namespace alf {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv:
      return "conv";
    case OpKind::kLinear:
      return "linear";
    case OpKind::kGlobalAvgPool:
      return "gap";
    case OpKind::kMaxPool:
      return "maxpool";
    case OpKind::kAdd:
      return "add";
    case OpKind::kScaleShift:
      return "scale_shift";
    case OpKind::kActivation:
      return "act";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// WeightArena: the plan's single weight allocation (owned or mapped).
// ---------------------------------------------------------------------------

WeightArena::~WeightArena() {
  if (owned_ && data_ != nullptr)
    ::operator delete(data_, std::align_val_t(kArenaAlign));
  if (map_base_ != nullptr) ::munmap(map_base_, map_bytes_);
}

WeightArena::WeightArena(WeightArena&& o) noexcept
    : data_(std::exchange(o.data_, nullptr)),
      bytes_(std::exchange(o.bytes_, 0)),
      map_base_(std::exchange(o.map_base_, nullptr)),
      map_bytes_(std::exchange(o.map_bytes_, 0)),
      owned_(std::exchange(o.owned_, false)) {}

WeightArena& WeightArena::operator=(WeightArena&& o) noexcept {
  if (this != &o) {
    WeightArena tmp(std::move(o));
    std::swap(data_, tmp.data_);
    std::swap(bytes_, tmp.bytes_);
    std::swap(map_base_, tmp.map_base_);
    std::swap(map_bytes_, tmp.map_bytes_);
    std::swap(owned_, tmp.owned_);
  }
  return *this;
}

WeightArena WeightArena::allocate(size_t bytes) {
  WeightArena a;
  a.bytes_ = bytes;
  if (bytes > 0) {
    // Aligned operator new (not aligned_alloc): the project bans the
    // malloc family, and the aligned delete in the dtor pairs exactly.
    a.data_ = static_cast<uint8_t*>(
        ::operator new(bytes, std::align_val_t(kArenaAlign)));
    std::memset(a.data_, 0, bytes);
    a.owned_ = true;
  }
  return a;
}

WeightArena WeightArena::adopt_mapping(void* base, size_t map_bytes,
                                       size_t data_off, size_t bytes) {
  ALF_CHECK(base != nullptr && data_off + bytes <= map_bytes);
  WeightArena a;
  a.map_base_ = base;
  a.map_bytes_ = map_bytes;
  a.data_ = static_cast<uint8_t*>(base) + data_off;
  a.bytes_ = bytes;
  return a;
}

uint8_t* WeightArena::mutable_data() {
  ALF_CHECK(owned_) << "WeightArena: mapped arenas are read-only";
  return data_;
}

void Plan::bind_weight_views(std::vector<Step>& steps,
                             const std::vector<WeightSection>& sections,
                             const WeightArena& arena) {
  for (const WeightSection& sec : sections) {
    ALF_CHECK(sec.step < steps.size()) << "weight section step index";
    ALF_CHECK(sec.offset % kWeightAlign == 0 &&
              sec.offset + sec.bytes <= arena.bytes())
        << "weight section outside the arena";
    ALF_CHECK(sec.rank <= TensorView::kMaxRank) << "weight section rank";
    const uint8_t* p = arena.data() + sec.offset;
    size_t dims[TensorView::kMaxRank] = {0, 0, 0};
    for (size_t d = 0; d < sec.rank; ++d)
      dims[d] = static_cast<size_t>(sec.dims[d]);
    Step& st = steps[sec.step];
    switch (sec.field) {
      case WeightField::kW:
        st.w = TensorView(reinterpret_cast<const float*>(p), dims, sec.rank);
        break;
      case WeightField::kBias:
        st.bias =
            TensorView(reinterpret_cast<const float*>(p), dims, sec.rank);
        break;
      case WeightField::kScale:
        st.scale =
            TensorView(reinterpret_cast<const float*>(p), dims, sec.rank);
        break;
      case WeightField::kShift:
        st.shift =
            TensorView(reinterpret_cast<const float*>(p), dims, sec.rank);
        break;
      case WeightField::kQw:
        st.qw = ConstSpan<int8_t>(reinterpret_cast<const int8_t*>(p),
                                  static_cast<size_t>(sec.bytes));
        break;
      case WeightField::kQwScales:
        st.qw_scales =
            ConstSpan<float>(reinterpret_cast<const float*>(p),
                             static_cast<size_t>(sec.bytes) / sizeof(float));
        break;
    }
  }
}

namespace {

/// Compile-time staging form of a Step: the same metadata, but with
/// OWNING weight payloads the passes below mutate freely (BN folding
/// rewrites `w` in place, int8 lowering fills `qw` and releases `w`).
/// The freeze pass at the end of compile() packs every payload into the
/// plan's arena and emits the final Steps, whose weight fields are views.
struct BuildStep {
  OpKind kind = OpKind::kConv;
  std::string name;
  size_t in = 0;
  size_t out = 0;
  Act act = Act::kNone;
  size_t in_sz = 0;
  size_t out_sz = 0;
  ConvGeom geom;
  size_t out_c = 0;
  size_t window = 0;
  size_t in_features = 0;
  size_t out_features = 0;
  Tensor w;
  Tensor bias;
  Tensor scale, shift;
  bool quantized = false;
  std::vector<int8_t> qw;
  std::vector<float> qw_scales;
  int qbits = 8;
  bool in_nonneg = false;
};

/// Walk state of Plan::compile. Activations are tracked as *virtual*
/// buffers (one per producing step, plus id 0 = external input); a
/// linear-scan pass afterwards maps virtual buffers to physical arena slots
/// by live range, so straight-line stretches ping-pong between two slots
/// and a residual shortcut holds a third.
struct Compiler {
  std::vector<BuildStep> steps;
  std::vector<size_t> vnumel{0};  // per-image numel per virtual buffer
  size_t cur = 0;                 // virtual buffer holding the activation
  size_t c = 0, h = 0, w = 0;     // per-image shape of `cur`
  // Steps below this index are immutable for fusion/folding: a residual
  // block raises the fence over its input so a body/shortcut that *starts*
  // with BN or an activation cannot rewrite the step that produced the
  // block input (which the other branch still reads).
  size_t fence = 0;

  size_t fresh(size_t numel) {
    vnumel.push_back(numel);
    return vnumel.size() - 1;
  }

  /// True if a trailing activation can ride the previous step's epilogue.
  bool fuse_act(Act act) {
    if (act == Act::kNone) return true;
    if (steps.size() <= fence) return false;
    BuildStep& last = steps.back();
    if (last.out != cur || last.act != Act::kNone) return false;
    last.act = act;
    last.name += "+" + std::string(act_name(act));
    return true;
  }

  /// Folds an inference-mode BatchNorm into the conv/linear step that
  /// produced the current activation: W[r,:] *= scale[r], bias' = bias *
  /// scale + shift. Returns false if no such step is available.
  bool fold_bn(const BatchNorm2d& bn) {
    if (steps.size() <= fence) return false;
    BuildStep& last = steps.back();
    if (last.out != cur || last.act != Act::kNone) return false;
    if (last.kind != OpKind::kConv && last.kind != OpKind::kLinear)
      return false;
    const size_t rows = last.w.dim(0);
    if (rows != bn.channels()) return false;
    Tensor scale, shift;
    bn_fold_scale_shift(bn, scale, shift);
    const size_t cols = last.w.dim(1);
    float* pw = last.w.data();
    for (size_t r = 0; r < rows; ++r) {
      const float s = scale.at(r);
      for (size_t j = 0; j < cols; ++j) pw[r * cols + j] *= s;
    }
    if (last.bias.empty()) {
      last.bias = std::move(shift);
    } else {
      for (size_t r = 0; r < rows; ++r)
        last.bias.at(r) = last.bias.at(r) * scale.at(r) + shift.at(r);
    }
    last.name += "+" + bn.name();
    return true;
  }

  void conv_step(const std::string& name, Tensor w_mat, size_t out_c,
                 size_t k, size_t stride, size_t pad, Act act) {
    BuildStep st;
    st.kind = OpKind::kConv;
    st.name = name;
    st.geom = ConvGeom{c, h, w, k, stride, pad};
    st.out_c = out_c;
    st.act = act;
    st.w = std::move(w_mat);
    ALF_CHECK_EQ(st.w.dim(0), out_c);
    ALF_CHECK_EQ(st.w.dim(1), st.geom.col_rows());
    st.in = cur;
    st.in_sz = c * h * w;
    c = out_c;
    h = st.geom.out_h();
    w = st.geom.out_w();
    st.out_sz = c * h * w;
    st.out = fresh(st.out_sz);
    cur = st.out;
    steps.push_back(std::move(st));
  }

  void lower(const Layer& layer);
};

void Compiler::lower(const Layer& layer) {
  if (const auto* seq = dynamic_cast<const Sequential*>(&layer)) {
    for (size_t i = 0; i < seq->size(); ++i) lower(*seq->layer(i));
    return;
  }
  if (const auto* res = dynamic_cast<const ResidualBlock*>(&layer)) {
    const size_t in_buf = cur, ic = c, ih = h, iw = w;
    const size_t outer_fence = fence;
    fence = steps.size();  // protect the block-input producer
    lower(res->body());
    const size_t body_out = cur, bc = c, bh = h, bw = w;
    size_t skip = in_buf;
    if (res->shortcut() != nullptr) {
      cur = in_buf;
      c = ic;
      h = ih;
      w = iw;
      fence = steps.size();
      lower(*res->shortcut());
      skip = cur;
    }
    fence = outer_fence;
    ALF_CHECK(c == bc && h == bh && w == bw)
        << res->name() << ": body/shortcut shape mismatch";
    ALF_CHECK_EQ(vnumel[skip], vnumel[body_out]) << res->name();
    BuildStep st;
    st.kind = OpKind::kAdd;
    st.name = res->name() + "_add+relu";
    st.in = skip;
    st.out = body_out;  // accumulates in place into the body activation
    st.in_sz = st.out_sz = bc * bh * bw;
    st.act = Act::kRelu;  // the block's final ReLU, fused
    steps.push_back(std::move(st));
    cur = body_out;
    c = bc;
    h = bh;
    w = bw;
    return;
  }
  if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
    conv_step(conv->name(),
              conv->weight().value.reshaped(
                  {conv->out_channels(), conv->in_channels() * conv->kernel() *
                                             conv->kernel()}),
              conv->out_channels(), conv->kernel(), conv->stride(),
              conv->pad(), Act::kNone);
    return;
  }
  if (const auto* alf = dynamic_cast<const AlfConv*>(&layer)) {
    ALF_CHECK(alf->bn_inter() == nullptr)
        << alf->name() << ": BN_inter blocks are a training-only config";
    const std::vector<size_t> kept = deployed_filters(*alf);
    const size_t ccode = kept.size();
    const size_t row = alf->in_channels() * alf->kernel() * alf->kernel();
    // Code conv: the surviving rows of Wcode (post mask & sigma_ae).
    const Tensor wcode = alf->compute_wcode();
    Tensor wc({ccode, row});
    for (size_t r = 0; r < ccode; ++r)
      std::memcpy(wc.data() + r * row, wcode.data() + kept[r] * row,
                  row * sizeof(float));
    conv_step(alf->name() + "_code", std::move(wc), ccode, alf->kernel(),
              alf->stride(), alf->pad(), alf->config().sigma_inter);
    // 1x1 expansion: Wexp restricted to the surviving input channels.
    const Tensor& wexp = alf->wexp().value;
    const size_t co = alf->out_channels();
    Tensor we({co, ccode});
    for (size_t o = 0; o < co; ++o)
      for (size_t r = 0; r < ccode; ++r)
        we.at(o, r) = wexp.at(o, kept[r]);
    conv_step(alf->name() + "_exp", std::move(we), co, 1, 1, 0, Act::kNone);
    return;
  }
  if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&layer)) {
    ALF_CHECK_EQ(c, bn->channels()) << bn->name();
    if (fold_bn(*bn)) return;
    BuildStep st;
    st.kind = OpKind::kScaleShift;
    st.name = bn->name();
    bn_fold_scale_shift(*bn, st.scale, st.shift);
    st.out_c = bn->channels();
    st.geom = ConvGeom{c, h, w, 1, 1, 0};
    st.in = cur;
    st.in_sz = st.out_sz = c * h * w;
    st.out = fresh(st.out_sz);
    cur = st.out;
    steps.push_back(std::move(st));
    return;
  }
  if (const auto* act = dynamic_cast<const Activation*>(&layer)) {
    if (fuse_act(act->act())) return;
    BuildStep st;
    st.kind = OpKind::kActivation;
    st.name = act->name();
    st.act = act->act();
    st.in = cur;
    st.in_sz = st.out_sz = c * h * w;
    st.out = fresh(st.out_sz);
    cur = st.out;
    steps.push_back(std::move(st));
    return;
  }
  if (const auto* gap = dynamic_cast<const GlobalAvgPool*>(&layer)) {
    BuildStep st;
    st.kind = OpKind::kGlobalAvgPool;
    st.name = gap->name();
    st.geom = ConvGeom{c, h, w, 1, 1, 0};
    st.in = cur;
    st.in_sz = c * h * w;
    st.out_sz = c;
    st.out = fresh(st.out_sz);
    cur = st.out;
    h = w = 1;
    steps.push_back(std::move(st));
    return;
  }
  if (const auto* mp = dynamic_cast<const MaxPool2d*>(&layer)) {
    ALF_CHECK(h % mp->window() == 0 && w % mp->window() == 0)
        << mp->name() << ": input " << h << "x" << w
        << " not divisible by window " << mp->window();
    BuildStep st;
    st.kind = OpKind::kMaxPool;
    st.name = mp->name();
    st.geom = ConvGeom{c, h, w, 1, 1, 0};
    st.window = mp->window();
    st.in = cur;
    st.in_sz = c * h * w;
    h /= mp->window();
    w /= mp->window();
    st.out_sz = c * h * w;
    st.out = fresh(st.out_sz);
    cur = st.out;
    steps.push_back(std::move(st));
    return;
  }
  if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
    // Row-major [C, H, W] is already the flattened feature vector.
    c = c * h * w;
    h = w = 1;
    return;
  }
  if (const auto* lin = dynamic_cast<const Linear*>(&layer)) {
    ALF_CHECK_EQ(c * h * w, lin->in_features()) << lin->name();
    BuildStep st;
    st.kind = OpKind::kLinear;
    st.name = lin->name();
    st.in_features = lin->in_features();
    st.out_features = lin->out_features();
    st.w = lin->weight().value;
    st.bias = lin->bias().value;
    st.in = cur;
    st.in_sz = lin->in_features();
    st.out_sz = lin->out_features();
    st.out = fresh(st.out_sz);
    cur = st.out;
    c = lin->out_features();
    h = w = 1;
    steps.push_back(std::move(st));
    return;
  }
  ALF_CHECK(false) << "engine: cannot compile layer '" << layer.name()
                   << "' of kind '" << layer.kind() << "'";
}

}  // namespace

std::shared_ptr<const Plan> Plan::compile(const Sequential& model,
                                          size_t batch, size_t in_c,
                                          size_t in_h, size_t in_w,
                                          const EngineOptions& opts) {
  ALF_CHECK(batch >= 1 && in_c >= 1 && in_h >= 1 && in_w >= 1);
  // The registry is consulted exactly once per plan, here; every kernel of
  // the compiled plan dispatches through this pointer.
  const kernels::KernelBackend* backend =
      opts.backend.empty() ? kernels::default_backend()
                           : kernels::find_backend(opts.backend);
  ALF_CHECK(backend != nullptr)
      << "engine: unknown kernel backend '" << opts.backend << "'";
  // Selecting a quantized-datapath backend (explicitly or via ALF_BACKEND)
  // lowers every conv/linear step to its qgemm.
  const bool quantize = backend->quantized_datapath;
  ALF_CHECK(!quantize || (opts.bits >= 2 && opts.bits <= 8))
      << "engine: int8 lowering bits=" << opts.bits;

  Compiler cc;
  cc.vnumel[0] = in_c * in_h * in_w;
  cc.c = in_c;
  cc.h = in_h;
  cc.w = in_w;
  cc.lower(model);
  ALF_CHECK(!cc.steps.empty()) << "engine: model compiled to an empty plan";
  // Runs execute the per-image steps chunk by chunk and the linear head
  // once over the whole batch (exec_context.cpp), so nothing but linear
  // layers may follow the first one.
  for (size_t i = 1; i < cc.steps.size(); ++i)
    ALF_CHECK(cc.steps[i - 1].kind != OpKind::kLinear ||
              cc.steps[i].kind == OpKind::kLinear)
        << "engine: step '" << cc.steps[i].name
        << "' follows a linear layer; only linear layers may";

  // Non-negativity propagation over the (still virtual-buffer-addressed)
  // plan: a buffer is provably non-negative when its producer ends in
  // ReLU/sigmoid, and max-pool / global-avg-pool / residual-add preserve
  // the property. Quantized steps use it to pick an asymmetric activation
  // grid; the pass is structural, so the choice never depends on data.
  {
    std::vector<bool> nonneg(cc.vnumel.size(), false);
    for (BuildStep& st : cc.steps) {
      st.in_nonneg = st.in != 0 && nonneg[st.in];
      bool out_nn;
      if (st.act == Act::kRelu || st.act == Act::kSigmoid) {
        out_nn = true;
      } else if (st.act != Act::kNone) {
        out_nn = false;  // tanh and friends re-sign
      } else {
        switch (st.kind) {
          case OpKind::kMaxPool:
          case OpKind::kGlobalAvgPool:
          case OpKind::kActivation:  // act == kNone: identity
            out_nn = st.in_nonneg;
            break;
          case OpKind::kAdd:  // out += in: needs both operands nonneg
            out_nn = st.in_nonneg && nonneg[st.out];
            break;
          default:  // conv/linear/scale-shift outputs are signed
            out_nn = false;
        }
      }
      nonneg[st.out] = out_nn;
    }
  }

  // The fixed batch partition (needed by the scratch sizing below).
  const size_t nchunks = std::min<size_t>(
      batch, static_cast<size_t>(std::max(1, parallel_threads())));

  // int8 lowering: export the (BN-folded) weights of every conv/linear
  // step as packed symmetric-int8 panels, calibrated per output channel
  // (each row of W gets its own max-abs step size — BN folding scales rows
  // independently, so a per-tensor grid would waste its range on the
  // largest channel). Convs keep the [Co, Ci*K*K] GEMM layout; linear
  // weights transpose to the [in, out] B-panel layout the qgemm consumes
  // (activations arrive as the A panel there).
  if (quantize) {
    const float levels = static_cast<float>((1 << (opts.bits - 1)) - 1);
    for (BuildStep& st : cc.steps) {
      if (st.kind != OpKind::kConv && st.kind != OpKind::kLinear) continue;
      const size_t rows = st.w.dim(0), cols = st.w.dim(1);
      st.quantized = true;
      st.qbits = opts.bits;
      st.qw.resize(rows * cols);
      st.qw_scales.resize(rows);
      std::vector<int8_t> qrow(cols);
      for (size_t o = 0; o < rows; ++o) {
        const float* wrow = st.w.data() + o * cols;
        const float wmax = max_abs_view(wrow, cols);
        QuantParams qp;
        qp.bits = opts.bits;
        qp.scale = wmax > 0.0f ? wmax / levels : 1.0f;
        if (wmax > 0.0f) {
          // MSE-optimal clipping: max-abs calibration spends the whole
          // grid on the largest element; sweeping a few clip fractions and
          // keeping the min-MSE one trades outlier saturation for finer
          // steps everywhere else. Compile-time only — runtime sees just
          // the chosen scale.
          double best_mse = -1.0;
          float best_scale = qp.scale;
          for (int c = 0; c <= 6; ++c) {
            const float clip = 1.0f - 0.05f * static_cast<float>(c);
            const float scale = wmax * clip / levels;
            double mse = 0.0;
            for (size_t j = 0; j < cols; ++j) {
              float q = std::round(wrow[j] / scale);
              q = std::max(-levels, std::min(levels, q));
              const double d =
                  static_cast<double>(wrow[j]) - static_cast<double>(q * scale);
              mse += d * d;
            }
            if (best_mse < 0.0 || mse < best_mse) {
              best_mse = mse;
              best_scale = scale;
            }
          }
          qp.scale = best_scale;
        }
        st.qw_scales[o] = qp.scale;
        if (st.kind == OpKind::kConv) {
          quantize_view(wrow, cols, qp, st.qw.data() + o * cols);
        } else {
          // Transposed pack: output feature o becomes column o.
          quantize_view(wrow, cols, qp, qrow.data());
          for (size_t j = 0; j < cols; ++j) st.qw[j * rows + o] = qrow[j];
        }
      }
      // The float weights are dead from here on — the runtime reads only
      // qw/qw_scales (geometry lives in out_c/geom/in+out_features), and
      // keeping them would hand every deployed int8 plan 4 bytes of unused
      // float per weight.
      st.w = Tensor();
    }
  }

  // --- Linear-scan slot assignment over virtual-buffer live ranges. ---
  const size_t nvirt = cc.vnumel.size();
  const size_t final_buf = cc.cur;
  std::vector<size_t> last_use(nvirt, 0);
  for (size_t i = 0; i < cc.steps.size(); ++i) {
    last_use[cc.steps[i].in] = i;
    last_use[cc.steps[i].out] = i;
  }
  last_use[final_buf] = cc.steps.size();  // survives the whole plan

  std::vector<long> slot_of(nvirt, -1);
  std::vector<size_t> free_slots;
  size_t nslots = 0;
  for (size_t i = 0; i < cc.steps.size(); ++i) {
    BuildStep& st = cc.steps[i];
    ALF_CHECK(st.out != 0) << "engine: step writes the input buffer";
    ALF_CHECK(st.in == 0 || slot_of[st.in] >= 0) << "engine: use before def";
    if (slot_of[st.out] < 0) {
      if (free_slots.empty()) {
        slot_of[st.out] = static_cast<long>(nslots++);
      } else {
        slot_of[st.out] = static_cast<long>(free_slots.back());
        free_slots.pop_back();
      }
    }
    // Buffers whose last use is this step return their slot to the pool.
    for (size_t v = 1; v < nvirt; ++v) {
      if (last_use[v] == i && slot_of[v] >= 0)
        free_slots.push_back(static_cast<size_t>(slot_of[v]));
    }
  }

  std::shared_ptr<Plan> plan(new Plan());
  plan->name_ = opts.name;
  plan->backend_ = backend;
  plan->quant_ = quantize;
  plan->batch_ = batch;
  plan->in_c_ = in_c;
  plan->in_h_ = in_h;
  plan->in_w_ = in_w;
  plan->classes_ = cc.vnumel[final_buf];
  plan->slots_ = nslots;
  // Uniform slots sized for the largest live activation keep the free list
  // trivial; the waste is bounded by slots (<= 3 for the model zoo).
  size_t max_act = 0;
  for (size_t v = 1; v < nvirt; ++v) max_act = std::max(max_act, cc.vnumel[v]);
  plan->slot_stride_ = batch * max_act;
  plan->nchunks_ = nchunks;
  // Convs compute a whole chunk of images as one product, with a result
  // scratch as workspace for the conv entries that finish the product
  // before storing it; a float conv reads B from a col scratch holding
  // the chunk's zero-padded images (nothing when it has no padding:
  // conv_col_floats). Both regions are per-chunk slices at the arena
  // tail, sized for the widest chunk any run cuts (n <= batch images over
  // min(nchunks, n) chunks never exceed ceil(batch / nchunks) images).
  const size_t chunk_imgs = (batch + nchunks - 1) / nchunks;
  size_t max_col = 0, max_res = 0;
  for (const BuildStep& st : cc.steps) {
    if (st.kind != OpKind::kConv) continue;
    if (!st.quantized)
      max_col = std::max(max_col, conv_col_floats(st.geom, chunk_imgs));
    max_res = std::max(max_res, st.out_sz * chunk_imgs);
  }
  plan->col_sz_ = max_col;
  plan->res_sz_ = max_res;
  plan->col_off_ = plan->slots_ * plan->slot_stride_;
  plan->res_off_ = plan->col_off_ + plan->nchunks_ * plan->col_sz_;

  // Quantized plans additionally size int8 activation scratch: the
  // whole-batch quantized input of the linear head (quantized convs read
  // the context's zero-point-padded images). The qbs region carries the
  // per-image column scales handed to the qgemm requantization.
  if (quantize) {
    size_t max_lin = 0;
    for (const BuildStep& st : cc.steps)
      if (st.kind == OpKind::kLinear)
        max_lin = std::max(max_lin, batch * st.in_features);
    plan->qws_sz_ = max_lin;
    size_t max_cols = batch;  // linear steps use one scale per batch row
    for (const BuildStep& st : cc.steps)
      if (st.kind == OpKind::kConv)
        max_cols = std::max(max_cols, st.geom.col_cols() * chunk_imgs);
    plan->qbs_sz_ = max_cols;
  }

  // Rebind steps from virtual buffers to arena slots (slot 0 = input x).
  for (BuildStep& st : cc.steps) {
    st.in = st.in == 0 ? 0 : static_cast<size_t>(slot_of[st.in]) + 1;
    st.out = static_cast<size_t>(slot_of[st.out]) + 1;
  }

  // --- Freeze: pack every owning payload into the single weight arena. ---
  // Sections are laid out in step order at kWeightAlign boundaries; the
  // table is the authority the views are bound from, and exactly what
  // alf::plan::save serializes — a loaded blob re-runs only the binding.
  struct Pending {
    WeightSection sec;
    const void* src;
  };
  std::vector<Pending> pending;
  uint64_t arena_bytes = 0;
  const auto stage = [&](size_t step, WeightField field, const void* src,
                         uint64_t bytes, uint32_t elem_size,
                         const size_t* dims, size_t rank) {
    if (bytes == 0) return;
    arena_bytes = (arena_bytes + kWeightAlign - 1) & ~uint64_t{kWeightAlign - 1};
    WeightSection sec;
    sec.step = static_cast<uint32_t>(step);
    sec.field = field;
    sec.offset = arena_bytes;
    sec.bytes = bytes;
    sec.elem_size = elem_size;
    sec.rank = static_cast<uint32_t>(rank);
    for (size_t d = 0; d < rank; ++d) sec.dims[d] = dims[d];
    pending.push_back(Pending{sec, src});
    arena_bytes += bytes;
  };
  const auto stage_tensor = [&](size_t step, WeightField field,
                                const Tensor& t) {
    if (t.empty()) return;
    ALF_CHECK(t.rank() >= 1 && t.rank() <= TensorView::kMaxRank);
    size_t dims[TensorView::kMaxRank] = {0, 0, 0};
    for (size_t d = 0; d < t.rank(); ++d) dims[d] = t.dim(d);
    stage(step, field, t.data(), t.numel() * sizeof(float), sizeof(float),
          dims, t.rank());
  };
  for (size_t i = 0; i < cc.steps.size(); ++i) {
    const BuildStep& bs = cc.steps[i];
    stage_tensor(i, WeightField::kW, bs.w);
    stage_tensor(i, WeightField::kBias, bs.bias);
    stage_tensor(i, WeightField::kScale, bs.scale);
    stage_tensor(i, WeightField::kShift, bs.shift);
    const size_t qw_len = bs.qw.size();
    stage(i, WeightField::kQw, bs.qw.data(), qw_len, 1, &qw_len, 1);
    const size_t qs_len = bs.qw_scales.size();
    stage(i, WeightField::kQwScales, bs.qw_scales.data(),
          qs_len * sizeof(float), sizeof(float), &qs_len, 1);
  }
  plan->arena_ = WeightArena::allocate(arena_bytes);
  plan->sections_.reserve(pending.size());
  for (const Pending& p : pending) {
    std::memcpy(plan->arena_.mutable_data() + p.sec.offset, p.src,
                p.sec.bytes);
    plan->sections_.push_back(p.sec);
  }

  // Emit the final Steps: metadata copies; weight views bound below.
  plan->steps_.resize(cc.steps.size());
  for (size_t i = 0; i < cc.steps.size(); ++i) {
    const BuildStep& bs = cc.steps[i];
    Step& st = plan->steps_[i];
    st.kind = bs.kind;
    st.name = bs.name;
    st.in = bs.in;
    st.out = bs.out;
    st.act = bs.act;
    st.in_sz = bs.in_sz;
    st.out_sz = bs.out_sz;
    st.geom = bs.geom;
    st.out_c = bs.out_c;
    st.window = bs.window;
    st.in_features = bs.in_features;
    st.out_features = bs.out_features;
    st.quantized = bs.quantized;
    st.qbits = bs.qbits;
    st.in_nonneg = bs.in_nonneg;
    st.be = backend;
  }
  bind_weight_views(plan->steps_, plan->sections_, plan->arena_);
  plan->derive_folds();
#ifndef NDEBUG
  // Debug builds validate every freshly compiled plan; release builds
  // rely on the test suite calling verify() explicitly (plan_verify.cpp).
  plan->verify();
#endif
  return plan;
}

bool Plan::read_later(const std::vector<Step>& steps, size_t slot,
                      size_t from) {
  for (size_t j = from; j < steps.size(); ++j) {
    if (steps[j].in == slot) return true;
    if (steps[j].out == slot) return steps[j].kind == OpKind::kAdd;
  }
  return steps.back().out == slot;
}

bool Plan::reads_input_in_place(const Step& st) {
  return st.kind == OpKind::kConv && !st.quantized && st.geom.pad == 0;
}

void Plan::derive_folds() {
  const std::vector<Step>& st = steps_;
  folds_.assign(st.size(), StepFold{});
  const size_t end = head();
  for (size_t i = 0; i < end; ++i) {
    const Step& s = st[i];
    if (s.kind != OpKind::kConv) continue;
    size_t last = i;  // the conv whose output the group leaves so far
    if (i + 1 < end) {
      const Step& e = st[i + 1];
      if (e.kind == OpKind::kConv && e.geom.kernel == 1 &&
          e.geom.stride == 1 && e.geom.pad == 0 && e.in == s.out &&
          s.bias.empty() && !read_later(st, s.out, i + 2) &&
          !(e.out == s.in && reads_input_in_place(s))) {
        folds_[i].exp = i + 1;
        folds_[i + 1].folded = true;
        last = i + 1;
      }
    }
    const size_t a = last + 1;
    // An expansion's code slot is never written: no add operand may be it.
    if (a < end && st[a].kind == OpKind::kAdd &&
        st[last].act == Act::kNone &&
        (last == i || (st[a].in != s.out && st[a].out != s.out)) &&
        !(st[a].out == s.in && reads_input_in_place(s))) {
      const size_t out = st[last].out;
      if (out == st[a].out ||
          (out == st[a].in && !read_later(st, st[a].in, a + 1))) {
        folds_[i].add = a;
        folds_[a].folded = true;
      }
    }
    i = folds_[i].add != 0 ? folds_[i].add : last;
  }
}

size_t Plan::head() const {
  size_t i = 0;
  while (i < steps_.size() && steps_[i].kind != OpKind::kLinear) ++i;
  return i;
}

size_t Plan::conv_col_floats(const ConvGeom& g, size_t imgs) {
  if (g.pad == 0) return 0;
  return imgs * g.in_c * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad);
}

const char* Plan::backend_name() const {
  return backend_ != nullptr ? backend_->name : "?";
}

std::string Plan::str() const {
  std::string s;
  char line[320];
  std::snprintf(line, sizeof(line),
                "engine plan: %zu steps, %zu activation slots x %zu floats, "
                "%zu x %zu col scratch (batch %zu, backend %s%s)\n",
                steps_.size(), slots_, slot_stride_, nchunks_, col_sz_,
                batch_, backend_name(), quant_ ? " quantized" : "");
  s += line;
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& st = steps_[i];
    char geom[144] = "";
    if (st.kind == OpKind::kConv) {
      std::snprintf(geom, sizeof(geom), "  [%zux%zux%zu]%s", st.out_c,
                    st.geom.out_h(), st.geom.out_w(),
                    st.quantized ? " qgemm-int8" : "");
    } else if (st.kind == OpKind::kLinear) {
      std::snprintf(geom, sizeof(geom), "  [%zu -> %zu]%s", st.in_features,
                    st.out_features, st.quantized ? " qgemm-int8" : "");
    }
    // Folds: the host conv names the steps its epilogue also runs, each
    // folded step the conv that runs it.
    std::string fold;
    const StepFold& f = folds_[i];
    if (f.exp != 0) fold += " =>exp@" + std::to_string(f.exp);
    if (f.add != 0) fold += " =>add@" + std::to_string(f.add);
    if (f.folded) {
      size_t host = i;
      while (host > 0 && folds_[host].folded) --host;
      fold = " (folded into " + std::to_string(host) + ")";
    }
    std::snprintf(line, sizeof(line),
                  "  %2zu %-11s %-28s s%zu -> s%zu%s%s%s%s\n", i,
                  op_kind_name(st.kind), st.name.c_str(), st.in, st.out, geom,
                  st.bias.empty() ? "" : " +bias",
                  st.act == Act::kNone ? "" : (std::string(" +") +
                                               act_name(st.act)).c_str(),
                  fold.c_str());
    s += line;
  }
  return s;
}

}  // namespace alf
