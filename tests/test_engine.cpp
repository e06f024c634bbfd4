// Plan-based inference engine: numerical equivalence with the layer tree,
// determinism across thread counts, arena reuse (including a global
// operator-new counter proving warm runs allocate nothing), and BN
// folding.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "alf/deploy.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "engine/engine.hpp"
#include "grad_check.hpp"
#include "kernels/backend.hpp"
#include "kernels/internal.hpp"
#include "models/zoo.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"

// Heap instrumentation for Engine::run's zero-allocation contract. The
// replacement operators serve the whole test binary; counting is gated so
// only the probed region pays attention.
namespace {
std::atomic<size_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

// GCC flags free() inside a replaced operator delete as a mismatched pair;
// the replacement set below is complete and malloc/free-consistent.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t sz) {
  if (g_alloc_tracking.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz ? sz : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) { return operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace alf {
namespace {

using testing::random_input;

/// Runs a few training-mode forwards so BatchNorm running statistics move
/// away from their (0, 1) initialization — otherwise BN folding is trivial.
void warm_bn(Sequential& model, size_t in_c, size_t hw, Rng& rng) {
  for (int pass = 0; pass < 3; ++pass) {
    Tensor x = random_input({4, in_c, hw, hw}, rng);
    model.forward(x, /*train=*/true);
  }
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(same_shape(a, b));
  float m = 0.0f;
  for (size_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(a.at(i) - b.at(i)));
  return m;
}

constexpr size_t kHw = 16;
constexpr float kTol = 1e-5f;
constexpr size_t kInC = 3;  // ModelConfig's default input channels

/// ResNet-20 at test scale, dense or with ALF blocks (every third code
/// filter masked off, so the deployed plan holds code convs and 1x1
/// expansions of several widths: its slots are reused across more
/// activation sizes than the dense plan's).
std::unique_ptr<Sequential> resnet20_for_test(bool alf, Rng& rng) {
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  std::unique_ptr<Sequential> model;
  if (alf) {
    std::vector<AlfConv*> blocks;
    model = build_resnet20(mc, rng,
                           make_alf_conv_maker(AlfConfig{}, &rng, &blocks));
    for (AlfConv* b : blocks)
      for (size_t i = 0; i < b->mask().numel(); i += 3) b->mask().at(i) = 0.0f;
  } else {
    model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  }
  warm_bn(*model, kInC, kHw, rng);
  return model;
}

/// Byte-for-byte equality of two logit vectors (memcmp: -0.0f != 0.0f),
/// naming the first differing element.
::testing::AssertionResult same_bytes(const std::vector<float>& a,
                                      const std::vector<float>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " vs " << b.size();
  for (size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

/// Logits of the first n images of x under `plan`, on `threads` threads.
std::vector<float> run_n(const std::shared_ptr<const Plan>& plan,
                         const Tensor& x, size_t n, int threads) {
  set_parallel_threads(threads);
  ExecContext ctx(plan);
  std::vector<float> out(n * plan->classes());
  ctx.run_rows(x.data(), n, out.data());
  return out;
}

std::shared_ptr<const Plan> compile_at(const Sequential& model, size_t batch,
                                       int threads,
                                       const EngineOptions& opts = {}) {
  set_parallel_threads(threads);
  return Plan::compile(model, batch, kInC, kHw, kHw, opts);
}

TEST(Engine, ResNet20MatchesLayerTree) {
  Rng rng(31);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({5, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);

  Engine eng = Engine::compile(*model, /*batch=*/8, mc.in_channels, kHw, kHw);
  EXPECT_EQ(eng.classes(), mc.classes);
  Tensor out({5, mc.classes});
  eng.run(x, out);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  // BN is folded and every ReLU rides a kernel epilogue: the compiled plan
  // contains no standalone normalization or activation steps.
  for (const Step& st : eng.steps()) {
    EXPECT_NE(st.kind, OpKind::kScaleShift) << st.name;
    EXPECT_NE(st.kind, OpKind::kActivation) << st.name;
  }
}

TEST(Engine, Plain20MatchesLayerTree) {
  Rng rng(32);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_plain20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  Engine eng = Engine::compile(*model, 4, mc.in_channels, kHw, kHw);
  Tensor out = eng.run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);
}

TEST(Engine, AlfDeployedModelMatchesEvalForward) {
  Rng rng(33);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  AlfConfig acfg;
  std::vector<AlfConv*> blocks;
  auto model =
      build_resnet20(mc, rng, make_alf_conv_maker(acfg, &rng, &blocks));
  ASSERT_FALSE(blocks.empty());
  // Force a nontrivial pruning pattern: clip a third of each block's mask
  // below the threshold so the deployed code conv really shrinks.
  for (AlfConv* b : blocks)
    for (size_t i = 0; i < b->mask().numel(); i += 3) b->mask().at(i) = 0.0f;
  for (AlfConv* b : blocks) EXPECT_GT(b->zero_filters(), size_t{0});
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({3, mc.in_channels, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  Engine eng = compile_deployed(*model, /*batch=*/4, mc.in_channels, kHw);
  Tensor out = eng.run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  // The plan contains the lowered dense pair per ALF block.
  size_t code_steps = 0, exp_steps = 0;
  for (const Step& st : eng.steps()) {
    if (st.name.find("_code") != std::string::npos) ++code_steps;
    if (st.name.find("_exp") != std::string::npos) ++exp_steps;
  }
  EXPECT_EQ(code_steps, blocks.size());
  EXPECT_EQ(exp_steps, blocks.size());
}

TEST(Engine, BitIdenticalAcrossThreadCounts) {
  // A plan compiled at 4 threads cuts every batch into chunks that run
  // concurrently, each through every step; at 1 thread the same chunks
  // run one after another. A plan compiled at 1 thread has a single chunk.
  // All must produce the same bits, at every n and on dense and ALF plans.
  constexpr size_t kBatch = 6;
  for (const bool alf : {false, true}) {
    Rng rng(34);
    auto model = resnet20_for_test(alf, rng);
    Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
    const auto plan4 = compile_at(*model, kBatch, 4);
    const auto plan1 = compile_at(*model, kBatch, 1);
    ASSERT_GT(plan4->chunks(), size_t{1});
    for (size_t n = 1; n <= kBatch; ++n) {
      const std::vector<float> want = run_n(plan4, x, n, 4);
      EXPECT_TRUE(same_bytes(run_n(plan4, x, n, 1), want))
          << "alf " << alf << " n " << n;
      EXPECT_TRUE(same_bytes(run_n(plan1, x, n, 4), want))
          << "alf " << alf << " n " << n;
    }
  }
  set_parallel_threads(0);
}

TEST(Engine, RepeatedRunsReuseArenaWithNoGrowth) {
  Rng rng(35);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  Engine eng = Engine::compile(*model, 4, mc.in_channels, kHw, kHw);

  const float* arena = eng.workspace_data();
  const size_t floats = eng.workspace_floats();
  ASSERT_GT(floats, size_t{0});

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  Tensor first = eng.run(x);
  for (int i = 0; i < 3; ++i) {
    Tensor again = eng.run(x);
    for (size_t j = 0; j < first.numel(); ++j)
      EXPECT_EQ(first.at(j), again.at(j));
    EXPECT_EQ(eng.workspace_data(), arena);
    EXPECT_EQ(eng.workspace_floats(), floats);
  }
}

TEST(Engine, SharedPlanAcrossEnginesIsBitIdenticalAndNotDuplicated) {
  // The Plan/ExecContext split: two engines built from ONE compiled plan
  // must (a) share the immutable plan object (same steps storage, no
  // weight duplication), (b) own distinct arenas, and (c) produce the
  // same bits as the engine that compiled it.
  Rng rng(45);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Engine original = Engine::compile(*model, 4, mc.in_channels, kHw, kHw);
  Engine alias_a(original.plan());
  Engine alias_b(original.plan());
  EXPECT_EQ(&alias_a.steps(), &original.steps());  // shared, not copied
  EXPECT_EQ(alias_a.plan().get(), alias_b.plan().get());
  EXPECT_NE(alias_a.workspace_data(), alias_b.workspace_data());
  EXPECT_EQ(alias_a.workspace_floats(), alias_b.workspace_floats());
  EXPECT_EQ(alias_a.workspace_floats(), original.plan()->workspace_floats());

  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  const Tensor want = original.run(x);
  const Tensor got_a = alias_a.run(x);
  const Tensor got_b = alias_b.run(x);
  for (size_t i = 0; i < want.numel(); ++i) {
    EXPECT_EQ(want.at(i), got_a.at(i)) << i;
    EXPECT_EQ(want.at(i), got_b.at(i)) << i;
  }
}

TEST(Engine, SharedPlanOutlivesTheCompilingEngine) {
  // A served model's lifetime is the Plan's, not any one engine's: the
  // compiling Engine may be destroyed while contexts on its plan live on.
  Rng rng(46);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);

  Tensor x = random_input({2, mc.in_channels, kHw, kHw}, rng);
  std::shared_ptr<const Plan> plan;
  Tensor want;
  {
    Engine compiler_engine =
        Engine::compile(*model, 2, mc.in_channels, kHw, kHw);
    plan = compiler_engine.plan();
    want = compiler_engine.run(x);
  }  // compiling engine (and its context) destroyed here
  ExecContext ctx(plan);
  const Tensor got = ctx.run(x);
  for (size_t i = 0; i < want.numel(); ++i) EXPECT_EQ(want.at(i), got.at(i));
}

TEST(Engine, SmallerBatchesRunOnTheSamePlan) {
  Rng rng(36);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Engine eng = Engine::compile(*model, 8, mc.in_channels, kHw, kHw);

  for (size_t n : {size_t{1}, size_t{3}, size_t{8}}) {
    Tensor x = random_input({n, mc.in_channels, kHw, kHw}, rng);
    const Tensor ref = model->forward(x, false);
    EXPECT_LT(max_abs_diff(ref, eng.run(x)), kTol) << "batch " << n;
  }
  Tensor too_big = random_input({9, mc.in_channels, kHw, kHw}, rng);
  EXPECT_THROW(eng.run(too_big), CheckError);
}

TEST(Engine, PartialBatchesBitIdenticalToExactlySizedPlan) {
  // A partial batch on a big-batch plan (the BatchServer's steady state)
  // must produce the same bits as a plan compiled exactly for that n, at
  // every n: the two plans cut the batch into different chunks and lay
  // them out at different rows of differently sized slots.
  constexpr size_t kBatch = 8;
  for (const bool alf : {false, true}) {
    Rng rng(43);
    auto model = resnet20_for_test(alf, rng);
    Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
    for (const int threads : {1, 4}) {
      const auto big = compile_at(*model, kBatch, threads);
      for (size_t n = 1; n <= kBatch; ++n) {
        const auto exact = compile_at(*model, n, threads);
        EXPECT_TRUE(
            same_bytes(run_n(big, x, n, threads), run_n(exact, x, n, threads)))
            << "alf " << alf << " threads " << threads << " n " << n;
      }
    }
  }
  set_parallel_threads(0);
}

TEST(Engine, LinearHeadRunsOnceOverAllRows) {
  // The head runs after the per-image region, once over all n rows. At
  // n = 7 on a 4-chunk grid the chunks hold 2, 2, 2 and 1 images; a head
  // run per chunk would hand the backend 2-row products (2 x 64 x 10, under
  // simd's scalar cutoff) instead of one 7-row product, and round
  // differently. The head's input rows are what the same model without
  // its Linear returns.
  const auto build = [](bool with_fc) {
    Rng rng(57);
    auto m = std::make_unique<Sequential>("head");
    m->emplace<Conv2d>("conv", kInC, 64, 3, 1, 1, Init::kHe, rng);
    m->emplace<Activation>("relu", Act::kRelu);
    m->emplace<GlobalAvgPool>("gap");
    m->emplace<Flatten>("flatten");
    if (with_fc) m->emplace<Linear>("fc", 64, 10, Init::kHe, rng);
    return m;
  };
  constexpr size_t kBatch = 8, kN = 7, kFeat = 64;
  Rng rng(58);
  Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
  const auto full = compile_at(*build(true), kBatch, 4);
  const auto body = compile_at(*build(false), kBatch, 4);
  ASSERT_EQ(full->chunks(), size_t{4});
  const std::vector<float> rows = run_n(body, x, kN, 4);
  ASSERT_EQ(rows.size(), kN * kFeat);
  const Step& fc = full->steps().back();
  ASSERT_EQ(fc.kind, OpKind::kLinear);
  ASSERT_EQ(fc.in_features, kFeat);
  std::vector<float> want(kN * fc.out_features);
  linear_forward_view(rows.data(), kN, kFeat, fc.w.data(), fc.out_features,
                      fc.bias.empty() ? nullptr : fc.bias.data(), fc.act,
                      want.data(), fc.be);
  EXPECT_TRUE(same_bytes(run_n(full, x, kN, 4), want));
  EXPECT_TRUE(same_bytes(run_n(full, x, kN, 1), want));
  set_parallel_threads(0);
}

TEST(Engine, OnlyLinearLayersMayFollowTheHead) {
  // Everything after the first Linear runs once over the whole batch,
  // outside the per-chunk region, so compile refuses per-image layers
  // there instead of running them with the wrong row layout.
  Rng rng(59);
  Sequential m("conv_after_fc");
  m.emplace<Flatten>("flatten");
  m.emplace<Linear>("fc", kInC * kHw * kHw, 8, Init::kHe, rng);
  m.emplace<Conv2d>("conv", 8, 4, 1, 1, 0, Init::kHe, rng);
  EXPECT_THROW(Plan::compile(m, 4, kInC, kHw, kHw), CheckError);
}

TEST(Engine, MisShapedOutputTensorFailsLoudly) {
  // A wrong caller-provided `out` must throw before anything is written —
  // silently scribbling past a too-small buffer is the failure mode the
  // row-packed serving path cannot afford.
  Rng rng(44);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  Engine eng = Engine::compile(*model, 4, mc.in_channels, kHw, kHw);
  Tensor x = random_input({3, mc.in_channels, kHw, kHw}, rng);

  Tensor wrong_rows({2, eng.classes()});
  EXPECT_THROW(eng.run(x, wrong_rows), CheckError);
  Tensor wrong_cols({3, eng.classes() + 1});
  EXPECT_THROW(eng.run(x, wrong_cols), CheckError);
  Tensor wrong_rank({3 * eng.classes()});
  EXPECT_THROW(eng.run(x, wrong_rank), CheckError);

  Tensor ok({3, eng.classes()});
  EXPECT_NO_THROW(eng.run(x, ok));
}

TEST(Engine, BnFoldingMatchesUnfusedBn) {
  Rng rng(37);
  BatchNorm2d bn("bn", 6);
  // Move gamma/beta and the running stats off their initialization.
  for (size_t c = 0; c < 6; ++c) {
    bn.gamma().value.at(c) = 0.5f + 0.2f * static_cast<float>(c);
    bn.beta().value.at(c) = -0.3f + 0.1f * static_cast<float>(c);
    bn.mutable_running_mean().at(c) = 0.2f * static_cast<float>(c) - 0.5f;
    bn.mutable_running_var().at(c) = 0.5f + 0.3f * static_cast<float>(c);
  }
  Tensor x = random_input({2, 6, 5, 5}, rng);
  const Tensor ref = bn.forward(x, /*train=*/false);

  Tensor scale, shift;
  bn_fold_scale_shift(bn, scale, shift);
  float max_err = 0.0f;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t c = 0; c < 6; ++c) {
      for (size_t j = 0; j < 25; ++j) {
        const size_t idx = (i * 6 + c) * 25 + j;
        const float folded = x.at(idx) * scale.at(c) + shift.at(c);
        max_err = std::max(max_err, std::abs(folded - ref.at(idx)));
      }
    }
  }
  EXPECT_LT(max_err, kTol);
}

TEST(Engine, MaxPoolAndScaleShiftStepsLower) {
  // A topology the zoo does not cover: BN with no preceding conv (emits a
  // kScaleShift step) and a max-pool stage.
  Rng rng(38);
  auto model = std::make_unique<Sequential>("toy");
  model->emplace<BatchNorm2d>("bn0", 3);
  model->emplace<Conv2d>("c1", 3, 4, 3, 1, 1, Init::kHe, rng);
  model->emplace<BatchNorm2d>("c1_bn", 4);
  model->emplace<Activation>("c1_relu", Act::kRelu);
  model->emplace<MaxPool2d>("pool", 2);
  model->emplace<Flatten>("flatten");
  model->emplace<Linear>("fc", 4 * 8 * 8, 7, Init::kHe, rng);
  warm_bn(*model, 3, kHw, rng);

  Tensor x = random_input({3, 3, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, false);
  Engine eng = Engine::compile(*model, 3, 3, kHw, kHw);
  Tensor out = eng.run(x);
  EXPECT_LT(max_abs_diff(ref, out), kTol);

  bool has_scale_shift = false, has_maxpool = false;
  for (const Step& st : eng.steps()) {
    has_scale_shift |= st.kind == OpKind::kScaleShift;
    has_maxpool |= st.kind == OpKind::kMaxPool;
  }
  EXPECT_TRUE(has_scale_shift);
  EXPECT_TRUE(has_maxpool);
}

TEST(Engine, PreActivationResidualBodyDoesNotFuseAcrossBlockInput) {
  // The body starts with BN + ReLU (pre-activation style): folding that BN
  // into the conv *before* the block would corrupt the tensor the identity
  // shortcut reads. The compiler's fusion fence must keep them separate.
  Rng rng(41);
  const size_t c = 6;
  auto model = std::make_unique<Sequential>("preact");
  model->emplace<Conv2d>("stem", 3, c, 3, 1, 1, Init::kHe, rng);
  auto body = std::make_unique<Sequential>("body");
  body->emplace<BatchNorm2d>("body_bn", c);
  body->emplace<Activation>("body_relu", Act::kRelu);
  body->emplace<Conv2d>("body_conv", c, c, 3, 1, 1, Init::kHe, rng);
  model->emplace<ResidualBlock>("block", std::move(body), nullptr);
  warm_bn(*model, 3, kHw, rng);

  Tensor x = random_input({2, 3, kHw, kHw}, rng);
  const Tensor ref = model->forward(x, /*train=*/false);
  Engine eng = Engine::compile(*model, 2, 3, kHw, kHw);
  // ref is [N, C, H, W]; the engine reports the final buffer as classes.
  Tensor out({2, eng.classes()});
  eng.run(x, out);
  float max_err = 0.0f;
  for (size_t i = 0; i < ref.numel(); ++i)
    max_err = std::max(max_err, std::abs(ref.at(i) - out.at(i)));
  EXPECT_LT(max_err, kTol);
}

TEST(Engine, WarmRunsPerformZeroHeapAllocations) {
  // Float and int8 plans, dense and ALF (folded expansions and adds), on a
  // one-chunk and a four-chunk grid: the int8 path's padded images, scales
  // and kernel scratch are all sized before the counted run, and a
  // multi-chunk dispatch's closure fits std::function's own buffer. One
  // warm-up run suffices for a single chunk; on the four-chunk grid which
  // worker takes which chunk is not fixed, so many warm-ups give every
  // pool worker a chunk and each has grown its per-thread kernel scratch.
  constexpr size_t kBatch = 8;
  for (const bool alf : {false, true}) {
    for (const char* backend : {"", "int8"}) {
      for (const int threads : {1, 4}) {
        Rng rng(42);
        auto model = resnet20_for_test(alf, rng);
        set_parallel_threads(threads);
        Engine eng =
            Engine::compile(*model, kBatch, kInC, kHw, kHw,
                            {.backend = backend, .bits = 8, .name = ""});
        ASSERT_EQ(eng.plan()->chunks(), static_cast<size_t>(threads));
        Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
        Tensor out({kBatch, eng.classes()});
        const int warm_runs = threads == 1 ? 1 : 20;
        for (int warm = 0; warm < warm_runs; ++warm) eng.run(x, out);

        g_alloc_count.store(0);
        g_alloc_tracking.store(true);
        eng.run(x, out);
        g_alloc_tracking.store(false);
        EXPECT_EQ(g_alloc_count.load(), size_t{0})
            << "alf " << alf << " backend '" << backend << "' chunks "
            << threads;
      }
    }
  }
  set_parallel_threads(0);
}

TEST(Engine, PlanStrNamesEveryStep) {
  Rng rng(39);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  Engine eng = Engine::compile(*model, 2, mc.in_channels, kHw, kHw);
  const std::string plan = eng.plan_str();
  EXPECT_NE(plan.find("conv1"), std::string::npos);
  EXPECT_NE(plan.find("fc"), std::string::npos);
  EXPECT_EQ(eng.steps().front().name.rfind("conv1", 0), size_t{0});
}

TEST(Engine, ExplicitBackendSelectionAtCompileTime) {
  Rng rng(41);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);

  Engine scalar_eng =
      Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                      {.backend = "scalar", .bits = 8, .name = ""});
  EXPECT_STREQ(scalar_eng.backend_name(), "scalar");
  EXPECT_FALSE(scalar_eng.quantized());
  const Tensor ref = scalar_eng.run(x);

  if (kernels::find_backend("simd") != nullptr) {
    Engine simd_eng =
        Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                        {.backend = "simd", .bits = 8, .name = ""});
    EXPECT_STREQ(simd_eng.backend_name(), "simd");
    const Tensor got = simd_eng.run(x);
    // Different float kernels, same math: agreement to a loose epsilon.
    EXPECT_LE(max_abs_diff(ref, got), 1e-3f);
  }

  EXPECT_THROW(
      Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                      {.backend = "no-such-backend", .bits = 8, .name = ""}),
      CheckError);
}

TEST(Engine, Int8PlanLowersConvAndLinearToQgemm) {
  Rng rng(43);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Engine eng = Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                               {.backend = "int8", .bits = 8, .name = ""});
  EXPECT_TRUE(eng.quantized());
  EXPECT_STREQ(eng.backend_name(), "int8");
  size_t quantized_steps = 0;
  for (const Step& st : eng.steps()) {
    if (st.kind == OpKind::kConv || st.kind == OpKind::kLinear) {
      EXPECT_TRUE(st.quantized) << st.name;
      EXPECT_FALSE(st.shift_gemm) << st.name;  // im2col path only
      const size_t rows = st.kind == OpKind::kConv ? st.out_c
                                                   : st.out_features;
      const size_t cols = st.kind == OpKind::kConv ? st.geom.col_rows()
                                                   : st.in_features;
      EXPECT_EQ(st.qw.size(), rows * cols) << st.name;
      ASSERT_EQ(st.qw_scales.size(), rows) << st.name;
      for (const float sc : st.qw_scales) EXPECT_GT(sc, 0.0f) << st.name;
      // The float weights are released — the plan carries int8 only.
      EXPECT_TRUE(st.w.empty()) << st.name;
      ++quantized_steps;
    } else {
      EXPECT_FALSE(st.quantized) << st.name;
    }
  }
  EXPECT_GE(quantized_steps, size_t{20});  // 19+ convs and the FC head
  EXPECT_NE(eng.plan_str().find("qgemm-int8"), std::string::npos);
}

TEST(Engine, Int8EngineAgreesWithFloatEngineOnTop1) {
  Rng rng(45);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  const size_t n = 32;
  Tensor x = random_input({n, mc.in_channels, kHw, kHw}, rng);

  Engine fp = Engine::compile(*model, n, mc.in_channels, kHw, kHw);
  Engine q8 = Engine::compile(*model, n, mc.in_channels, kHw, kHw,
                              {.backend = "int8", .bits = 8, .name = ""});
  const Tensor ref = fp.run(x);
  const Tensor got = q8.run(x);
  size_t agree = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t ra = 0, ga = 0;
    for (size_t c = 1; c < fp.classes(); ++c) {
      if (ref.at(i, c) > ref.at(i, ra)) ra = c;
      if (got.at(i, c) > got.at(i, ga)) ga = c;
    }
    if (ra == ga) ++agree;
  }
  // 8-bit dynamic activation quantization is near-lossless on an untrained
  // net's logits; allow at most one near-tie flip on this batch so the
  // test is robust to compiler codegen differences (the bench measures the
  // strict >= 99% criterion on a trained model at 256 images).
  EXPECT_GE(agree + 1, n);
}

TEST(Engine, Int8EngineBitIdenticalAcrossThreadCounts) {
  // Every activation scale depends only on its image, so int8 plans too
  // are bit-identical across grids, thread counts and n, dense and ALF.
  constexpr size_t kBatch = 6;
  const EngineOptions int8 = {.backend = "int8", .bits = 8, .name = ""};
  for (const bool alf : {false, true}) {
    Rng rng(47);
    auto model = resnet20_for_test(alf, rng);
    Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
    const auto plan1 = compile_at(*model, kBatch, 1, int8);
    const auto plan4 = compile_at(*model, kBatch, 4, int8);
    ASSERT_GT(plan4->chunks(), size_t{1});
    for (size_t n = 1; n <= kBatch; ++n) {
      const std::vector<float> ref = run_n(plan1, x, n, 1);
      for (const int threads : {1, 2, 4}) {
        EXPECT_TRUE(same_bytes(run_n(plan1, x, n, threads), ref))
            << "alf " << alf << " n " << n << " threads " << threads;
        EXPECT_TRUE(same_bytes(run_n(plan4, x, n, threads), ref))
            << "alf " << alf << " n " << n << " threads " << threads;
      }
    }
  }
  set_parallel_threads(0);
}

/// The quantized conv the engine replaced, computed the slow way: float
/// im2col of each image, per-image max-abs quantization of the unfold, the
/// scalar qgemm oracle, then bias + activation — NCHW [n, Co, Ho, Wo].
std::vector<float> int8_conv_oracle(const Step& st, const float* x, size_t n) {
  const ConvGeom& g = st.geom;
  const size_t k = g.col_rows(), cols = g.col_cols();
  const int32_t levels = (1 << (st.qbits - 1)) - 1;
  const float span = static_cast<float>(st.in_nonneg ? 2 * levels : levels);
  const int32_t zp = st.in_nonneg ? -levels : 0;
  std::vector<float> out(n * st.out_sz), col(k * cols);
  std::vector<int8_t> qcol(k * cols);
  for (size_t i = 0; i < n; ++i) {
    const float* img = x + i * st.in_sz;
    float amax = 0.0f;
    for (size_t e = 0; e < st.in_sz; ++e)
      amax = std::max(amax, std::fabs(img[e]));
    const float scale = amax > 0.0f ? amax / span : 1.0f;
    const float inv = 1.0f / scale;
    im2col_view(img, g, col.data());
    for (size_t e = 0; e < col.size(); ++e) {
      const int32_t q = static_cast<int32_t>(std::rintf(col[e] * inv)) + zp;
      qcol[e] = static_cast<int8_t>(std::min(levels, std::max(-levels, q)));
    }
    const std::vector<float> bs(cols, scale);
    kernels::QgemmParams p;
    p.a_scales = st.qw_scales.data();
    p.b_scales = bs.data();
    p.b_zp = zp;
    float* y = out.data() + i * st.out_sz;
    kernels::detail::qgemm_int8(st.qw.data(), k, qcol.data(), cols, y, cols,
                                st.out_c, k, cols, p);
    bias_act_inplace(y, st.out_c, cols,
                     st.bias.empty() ? nullptr : st.bias.data(), st.act);
  }
  return out;
}

/// The float conv the engine runs, computed one image at a time: im2col
/// of the image, the step backend's gemm over that unfold, then bias +
/// activation — NCHW [n, Co, Ho, Wo]. A gathered conv must equal its
/// backend's gemm over the unfold byte for byte, and per-element
/// accumulation does not depend on how many images share one product.
std::vector<float> float_conv_oracle(const Step& st, const float* x,
                                     size_t n) {
  const ConvGeom& g = st.geom;
  const size_t k = g.col_rows(), cols = g.col_cols();
  std::vector<float> out(n * st.out_sz), col(k * cols);
  for (size_t i = 0; i < n; ++i) {
    im2col_view(x + i * st.in_sz, g, col.data());
    float* y = out.data() + i * st.out_sz;
    st.be->gemm(st.w.data(), k, false, col.data(), cols, false, y, cols,
                st.out_c, k, cols, 1.0f, 0.0f);
    bias_act_inplace(y, st.out_c, cols,
                     st.bias.empty() ? nullptr : st.bias.data(), st.act);
  }
  return out;
}

TEST(Engine, Int8OneConvPlanMatchesQconvOracle) {
  // A 7x7 map makes conv/qconv panels straddle images; a leading ReLU puts
  // an int8 conv on the asymmetric (zp = -levels) grid. The plan is
  // compiled for batch 32 on a multi-chunk grid and run at 1, 7 and 32
  // images. Float plans ride along: the default backend (simd's gathering
  // conv when the host has it) and scalar (whose conv unfolds) must match
  // their backend's gemm over the unfold.
  for (const char* backend : {"int8", "", "scalar"}) {
    for (const bool relu_first : {false, true}) {
      Rng rng(61);
      Sequential model("one_conv");
      if (relu_first) model.emplace<Activation>("relu0", Act::kRelu);
      // BN folds into a bias; the trailing ReLU fuses into the epilogue.
      model.emplace<Conv2d>("conv", 5, 6, 3, 1, 1, Init::kHe, rng);
      model.emplace<BatchNorm2d>("conv_bn", 6);
      model.emplace<Activation>("conv_relu", Act::kRelu);
      warm_bn(model, 5, 7, rng);
      set_parallel_threads(4);
      const auto plan = Plan::compile(
          model, 32, 5, 7, 7, {.backend = backend, .bits = 8, .name = ""});
      set_parallel_threads(0);
      ASSERT_GT(plan->chunks(), size_t{1});
      const Step& conv = plan->steps().back();
      ASSERT_EQ(conv.kind, OpKind::kConv);
      ASSERT_EQ(conv.quantized, plan->quantized());
      EXPECT_EQ(conv.in_nonneg, relu_first);
      EXPECT_FALSE(conv.bias.empty());
      EXPECT_EQ(conv.act, Act::kRelu);
      Tensor x = random_input({32, 5, 7, 7}, rng);
      std::vector<float> conv_in(x.data(), x.data() + x.numel());
      if (relu_first)
        for (float& v : conv_in) v = v > 0.0f ? v : 0.0f;
      ExecContext ctx(plan);
      for (const size_t n : {1, 7, 32}) {
        const std::vector<float> want =
            conv.quantized ? int8_conv_oracle(conv, conv_in.data(), n)
                           : float_conv_oracle(conv, conv_in.data(), n);
        std::vector<float> got(n * plan->classes());
        ctx.run_rows(x.data(), n, got.data());
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "backend='" << backend << "' (" << conv.be->name
            << ") n=" << n << " relu_first=" << relu_first;
      }
    }
  }
}

TEST(Engine, NarrowBitWidthsDegradeGracefully) {
  Rng rng(49);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  Tensor x = random_input({4, mc.in_channels, kHw, kHw}, rng);
  Engine fp = Engine::compile(*model, 4, mc.in_channels, kHw, kHw);
  const Tensor ref = fp.run(x);
  double err8 = 0.0, err4 = 0.0;
  for (const int bits : {8, 4}) {
    Engine q = Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                               {.backend = "int8", .bits = bits, .name = ""});
    const Tensor got = q.run(x);
    double err = 0.0;
    for (size_t i = 0; i < ref.numel(); ++i) {
      const double d = static_cast<double>(ref.at(i)) - got.at(i);
      err += d * d;
    }
    (bits == 8 ? err8 : err4) = err;
  }
  EXPECT_GT(err8, 0.0);   // a real integer datapath is not exact
  EXPECT_GT(err4, err8);  // and fewer bits hurt more (Table 3 direction)
  EXPECT_THROW(Engine::compile(*model, 4, mc.in_channels, kHw, kHw,
                               {.backend = "int8", .bits = 1, .name = ""}),
               CheckError);
}

}  // namespace

/// Test-only friend of Plan (declared in plan.hpp): corruption fixtures
/// need a mutable view of a compiled plan's internals to prove verify()
/// rejects each broken invariant. Nothing outside the tests defines this.
struct PlanTestPeer {
  static Plan& mut(const std::shared_ptr<const Plan>& p) {
    return const_cast<Plan&>(*p);
  }
  static std::vector<Step>& steps(Plan& p) { return p.steps_; }
  static size_t& slots(Plan& p) { return p.slots_; }
  static size_t& slot_stride(Plan& p) { return p.slot_stride_; }
  static size_t& col_off(Plan& p) { return p.col_off_; }
  static size_t& col_sz(Plan& p) { return p.col_sz_; }
  static size_t& res_off(Plan& p) { return p.res_off_; }
  static size_t& res_sz(Plan& p) { return p.res_sz_; }
  static size_t& classes(Plan& p) { return p.classes_; }
  static size_t& qws_sz(Plan& p) { return p.qws_sz_; }
  static bool& quantized(Plan& p) { return p.quant_; }
  static const kernels::KernelBackend*& backend(Plan& p) {
    return p.backend_;
  }
  static std::vector<StepFold>& folds(Plan& p) { return p.folds_; }
  /// Runs every step on its own again: the plan as it ran before convs
  /// folded their successors into their epilogues.
  static void clear_folds(Plan& p) {
    p.folds_.assign(p.steps_.size(), StepFold{});
  }
};

namespace {

/// One compiled ResNet-20 fixture per corruption case (the mutations are
/// destructive, so every case starts from a fresh compile).
std::shared_ptr<const Plan> verify_fixture(const char* backend = "") {
  Rng rng(53);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  return Plan::compile(*model, 4, mc.in_channels, kHw, kHw,
                       {.backend = backend, .bits = 8, .name = ""});
}

/// EXPECT wrapper asserting the typed error and the invariant it names.
void expect_verify_rejects(const std::shared_ptr<const Plan>& plan,
                           const char* needle) {
  try {
    plan->verify();
    FAIL() << "verify() accepted a plan corrupted at: " << needle;
  } catch (const PlanVerifyError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "wrong invariant reported: " << e.what();
  }
}

TEST(PlanVerify, AcceptsEveryZooModelFloatAndInt8) {
  Rng rng(57);
  struct Case {
    const char* name;
    std::unique_ptr<Sequential> model;
    ModelConfig mc;
  };
  std::vector<Case> cases;
  {
    ModelConfig mc;
    mc.base_width = 8;
    mc.in_hw = kHw;
    cases.push_back({"plain20",
                     build_plain20(mc, rng,
                                   standard_conv_maker(mc.init, &rng)),
                     mc});
    cases.push_back({"resnet20",
                     build_resnet20(mc, rng,
                                    standard_conv_maker(mc.init, &rng)),
                     mc});
  }
  {
    ModelConfig mc;
    mc.base_width = 4;  // keep the 4-stage net small; in_hw stays 32
    cases.push_back({"resnet18",
                     build_resnet18(mc, rng,
                                    standard_conv_maker(mc.init, &rng)),
                     mc});
  }
  for (Case& c : cases) {
    warm_bn(*c.model, c.mc.in_channels, c.mc.in_hw, rng);
    for (const char* backend : {"", "int8"}) {
      auto plan =
          Plan::compile(*c.model, 4, c.mc.in_channels, c.mc.in_hw, c.mc.in_hw,
                        {.backend = backend, .bits = 8, .name = ""});
      EXPECT_NO_THROW(plan->verify())
          << c.name << " backend='" << backend << "'";
    }
  }
}

/// Steps that run inside another conv's epilogue.
size_t folded_steps(const Plan& plan) {
  size_t n = 0;
  for (const StepFold& f : plan.folds()) n += f.folded ? 1 : 0;
  return n;
}

TEST(PlanFolds, FoldedAndUnfoldedPlansAreByteIdentical) {
  // A conv's epilogue computes what the steps folded into it compute on
  // their own: float plans (simd and scalar, dense and ALF) and dense int8
  // plans equal the same plan with its fold table cleared, byte for byte,
  // at every n, for one- and four-chunk grids run on 1 and 4 threads.
  // (ALF int8 folds change numerics by design; see the next test.)
  constexpr size_t kBatch = 8;
  struct Case {
    bool alf;
    const char* backend;
  };
  const Case cases[] = {{true, ""},      {true, "scalar"}, {false, ""},
                        {false, "scalar"}, {false, "int8"}};
  for (const Case& c : cases) {
    Rng rng(81);
    auto model = resnet20_for_test(c.alf, rng);
    Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
    const EngineOptions opts = {.backend = c.backend, .bits = 8, .name = ""};
    for (const int ct : {1, 4}) {
      const auto folded = compile_at(*model, kBatch, ct, opts);
      const auto unfolded = compile_at(*model, kBatch, ct, opts);
      PlanTestPeer::clear_folds(PlanTestPeer::mut(unfolded));
      EXPECT_NO_THROW(unfolded->verify());
      // ALF plans fold every expansion (one per code conv) plus adds;
      // dense ResNet-20 folds its nine adds.
      EXPECT_GE(folded_steps(*folded), c.alf ? size_t{19} : size_t{9});
      EXPECT_NE(folded->str().find("(folded into"), std::string::npos);
      for (size_t n = 1; n <= kBatch; ++n)
        for (const int rt : {1, 4})
          EXPECT_TRUE(same_bytes(run_n(folded, x, n, rt),
                                 run_n(unfolded, x, n, rt)))
              << "alf " << c.alf << " backend '" << c.backend << "' ct "
              << ct << " n " << n << " rt " << rt;
    }
  }
  set_parallel_threads(0);
}

/// Largest |int8 - float| logit of the folded ALF ResNet-20 int8 plan at
/// test scale, as a fraction of the largest |float| logit (README
/// "Inference engine"). Measured 2.1% on this fixture; clearing the folds,
/// which quantizes the code activations again, gives 2.5%.
constexpr float kAlfInt8Tol = 0.03f;

TEST(PlanFolds, AlfInt8IsIdenticalAcrossInt8KernelsAndBatchInvariant) {
  // A folded int8 expansion multiplies the code conv's float result by the
  // dequantized weights with one fmaf chain per element, which every int8
  // kernel computes alike: int8-vnni, int8-avx2 and the portable fallback,
  // picked in process by the feature mask. Each image's logits at every n
  // equal its own single-image run.
  constexpr size_t kBatch = 8;
  Rng rng(83);
  auto model = resnet20_for_test(/*alf=*/true, rng);
  Tensor x = random_input({kBatch, kInC, kHw, kHw}, rng);
  const auto plan = compile_at(*model, kBatch, 4,
                               {.backend = "int8", .bits = 8, .name = ""});
  const auto fp = compile_at(*model, kBatch, 4);
  ASSERT_GE(folded_steps(*plan), size_t{19});
  const size_t classes = plan->classes();
  std::vector<float> singles;
  {
    ExecContext ctx(plan);
    std::vector<float> one(classes);
    for (size_t i = 0; i < kBatch; ++i) {
      ctx.run_rows(x.data() + i * plan->image_floats(), 1, one.data());
      singles.insert(singles.end(), one.begin(), one.end());
    }
  }
  constexpr uint32_t kVnni = kernels::kCpuAvxVnni | kernels::kCpuAvx512Vnni;
  for (const uint32_t mask :
       {~0u, ~kVnni, ~(kVnni | static_cast<uint32_t>(kernels::kCpuAvx2))}) {
    kernels::set_cpu_feature_mask(mask);
    for (size_t n = 1; n <= kBatch; ++n) {
      const std::vector<float> got = run_n(plan, x, n, 4);
      EXPECT_TRUE(same_bytes(
          got, std::vector<float>(singles.begin(),
                                  singles.begin() + n * classes)))
          << "mask " << std::hex << mask << std::dec << " n " << n << " ("
          << kernels::best_quantized_backend()->name << ")";
    }
  }
  kernels::set_cpu_feature_mask(~0u);
  const std::vector<float> want = run_n(fp, x, kBatch, 4);
  float worst = 0.0f, top = 0.0f;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst, std::abs(want[i] - singles[i]));
    top = std::max(top, std::abs(want[i]));
  }
  EXPECT_LE(worst, kAlfInt8Tol * top) << "max |int8 - f32| " << worst
                                      << " vs largest logit " << top;
  set_parallel_threads(0);
}

TEST(PlanVerify, RejectsEmptyStepList) {
  auto plan = verify_fixture();
  PlanTestPeer::steps(PlanTestPeer::mut(plan)).clear();
  expect_verify_rejects(plan, "empty step list");
}

TEST(PlanVerify, RejectsOutOfRangeSlot) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  PlanTestPeer::steps(p)[0].out = plan->activation_slots() + 5;
  expect_verify_rejects(plan, "out of range");
}

TEST(PlanVerify, RejectsReadOfDeadSlot) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  // The first step's input is the external image (slot 0); pointing it at
  // its own not-yet-written output slot is a use-before-def.
  Step& st = PlanTestPeer::steps(p)[0];
  st.in = st.out;
  expect_verify_rejects(plan, "no live activation");
}

TEST(PlanVerify, RejectsBrokenShapeChain) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  // Step 1 consumes step 0's activation; shrinking its declared input
  // breaks the producer/consumer size chain.
  PlanTestPeer::steps(p)[1].in_sz -= 1;
  expect_verify_rejects(plan, "live value");
}

TEST(PlanVerify, RejectsResidualAliasedOperands) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  bool found = false;
  for (Step& st : PlanTestPeer::steps(p)) {
    if (st.kind != OpKind::kAdd) continue;
    st.in = st.out;  // out = act(out + in) degenerates to doubling
    found = true;
    break;
  }
  ASSERT_TRUE(found) << "ResNet plan compiled without a residual add";
  expect_verify_rejects(plan, "same slot");
}

TEST(PlanVerify, RejectsArenaLayoutBreaks) {
  {
    auto plan = verify_fixture();
    PlanTestPeer::col_off(PlanTestPeer::mut(plan)) += 64;
    expect_verify_rejects(plan, "does not abut");
  }
  {
    auto plan = verify_fixture();
    Plan& p = PlanTestPeer::mut(plan);
    // Shrink every slot below one batch of the first activation, keeping
    // the scratch offsets consistent so the stride check itself fires.
    PlanTestPeer::slot_stride(p) = 1;
    PlanTestPeer::col_off(p) = plan->activation_slots();
    PlanTestPeer::res_off(p) =
        plan->activation_slots() + plan->chunks() * plan->col_floats();
    expect_verify_rejects(plan, "slot stride");
  }
  {
    auto plan = verify_fixture();
    PlanTestPeer::res_sz(PlanTestPeer::mut(plan)) = 0;
    expect_verify_rejects(plan, "scratch");
  }
}

TEST(PlanVerify, RejectsUndersizedColScratch) {
  // A float conv needs its padded images in the col slice; step 0 is a
  // padded 3x3 conv.
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  PlanTestPeer::col_sz(p) = 0;
  PlanTestPeer::res_off(p) = plan->col_offset();
  expect_verify_rejects(plan, "col input");
}

TEST(PlanVerify, RejectsPerImageStepAfterLinearHead) {
  // An activation over the logits, appended after the fc head: slots and
  // sizes chain correctly, but the runtime runs everything from the head
  // on once over the batch, never per image.
  auto plan = verify_fixture();
  auto& steps = PlanTestPeer::steps(PlanTestPeer::mut(plan));
  Step act;
  act.kind = OpKind::kActivation;
  act.name = "logit_act";
  act.act = Act::kRelu;
  act.in = steps.back().out;
  act.out = steps.back().in;
  act.in_sz = act.out_sz = steps.back().out_sz;
  act.be = steps.back().be;
  steps.push_back(act);
  expect_verify_rejects(plan, "follows the linear head");
}

TEST(PlanVerify, RejectsRetiredShiftGemmFlag) {
  auto plan = verify_fixture();
  PlanTestPeer::steps(PlanTestPeer::mut(plan))[0].shift_gemm = true;
  expect_verify_rejects(plan, "retired shift-GEMM strategy");
}

TEST(PlanVerify, RejectsRetiredShiftGemmPack) {
  auto plan = verify_fixture();
  Step& st = PlanTestPeer::steps(PlanTestPeer::mut(plan))[0];
  ASSERT_EQ(st.kind, OpKind::kConv);
  st.w9 = TensorView(st.w.data(), {9, st.out_c, st.geom.in_c});
  expect_verify_rejects(plan, "retired shift-GEMM weight pack");
}

TEST(PlanVerify, RejectsStepBackendOtherThanThePlans) {
  // One backend per plan: a step pinned to any other backend is refused —
  // a live one on the other datapath, one on the plan's own (simd in a
  // scalar plan), or none — on a conv, a step that runs no GEMM and the
  // linear head.
  std::vector<const kernels::KernelBackend*> others{kernels::int8_backend(),
                                                    nullptr};
  if (const kernels::KernelBackend* simd = kernels::find_backend("simd"))
    others.push_back(simd);
  for (const kernels::KernelBackend* other : others) {
    for (const OpKind kind : {OpKind::kConv, OpKind::kAdd, OpKind::kLinear}) {
      auto plan = verify_fixture("scalar");
      auto& steps = PlanTestPeer::steps(PlanTestPeer::mut(plan));
      const auto st = std::find_if(steps.begin(), steps.end(),
                                   [&](const Step& x) { return x.kind == kind; });
      ASSERT_NE(st, steps.end());
      ASSERT_EQ(st->be, plan->backend());
      st->be = other;
      expect_verify_rejects(plan, "is not the plan backend");
    }
  }
}

TEST(PlanScratch, SizedForTheConvEntryOfEachDatapath) {
  // A float conv reads B from its padded images in the col slice (none
  // when it has no padding); an int8 conv reads the context's int8 padded
  // images, so an int8 plan sizes no col slice, and its int8 scratch is
  // the linear head's quantized input alone. On 1 and 4 chunks.
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    const auto q = verify_fixture("int8");
    const auto f = verify_fixture();
    set_parallel_threads(0);
    ASSERT_TRUE(q->quantized());
    ASSERT_FALSE(f->quantized());
    EXPECT_EQ(q->chunks(), static_cast<size_t>(threads));
    EXPECT_EQ(q->col_floats(), 0u);
    ASSERT_LT(q->head(), q->steps().size());
    EXPECT_EQ(q->qws_bytes(),
              q->batch() * q->steps()[q->head()].in_features);
    const size_t imgs = (f->batch() + f->chunks() - 1) / f->chunks();
    size_t padded = 0;
    for (const Step& st : f->steps()) {
      const ConvGeom& g = st.geom;
      if (st.kind == OpKind::kConv && g.pad != 0)
        padded = std::max(padded, imgs * g.in_c * (g.in_h + 2 * g.pad) *
                                      (g.in_w + 2 * g.pad));
    }
    EXPECT_GT(padded, 0u);
    EXPECT_EQ(f->col_floats(), padded);
    EXPECT_EQ(f->qws_bytes(), 0u);
  }
}

TEST(PlanVerify, RejectsWrongWeightPanelShape) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_EQ(st.kind, OpKind::kConv);
  // Same arena bytes, lying dims: the view/section cross-check would also
  // object, but the shape replay must name the specific invariant first.
  st.w = TensorView(st.w.data(), {st.out_c, st.geom.col_rows() + 1});
  expect_verify_rejects(plan, "Co, Ci*K*K");
}

TEST(PlanVerify, RejectsTruncatedBias) {
  auto plan = verify_fixture();
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_EQ(st.kind, OpKind::kConv);
  st.bias = TensorView(st.bias.data(), {st.out_c + 1});
  expect_verify_rejects(plan, "bias");
}

TEST(PlanVerify, RejectsUnpinnedOrStaleBackend) {
  auto plan = verify_fixture();
  PlanTestPeer::backend(PlanTestPeer::mut(plan)) = nullptr;
  expect_verify_rejects(plan, "no kernel backend");
}

TEST(PlanVerify, RejectsDatapathFlagMismatch) {
  auto plan = verify_fixture();
  PlanTestPeer::quantized(PlanTestPeer::mut(plan)) = true;
  expect_verify_rejects(plan, "datapath");
}

TEST(PlanVerify, RejectsWrongClassCount) {
  auto plan = verify_fixture();
  PlanTestPeer::classes(PlanTestPeer::mut(plan)) += 1;
  expect_verify_rejects(plan, "classes");
}

TEST(PlanVerify, RejectsInt8StepWithoutScales) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  st.qw_scales = ConstSpan<float>(st.qw_scales.data(),
                                  st.qw_scales.size() - 1);
  expect_verify_rejects(plan, "scale");
}

TEST(PlanVerify, RejectsInt8NonFiniteScale) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  // Freshly compiled plans own their (writable) arena; scribble through
  // the const view the way a corrupted blob would arrive.
  const_cast<float*>(st.qw_scales.data())[0] = 0.0f;
  expect_verify_rejects(plan, "scale");
}

TEST(PlanVerify, RejectsInt8TruncatedPanel) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  st.qw = ConstSpan<int8_t>(st.qw.data(), st.qw.size() - 1);
  expect_verify_rejects(plan, "panel");
}

TEST(PlanVerify, RejectsInt8RetainedFloatWeights) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  Step& st = PlanTestPeer::steps(p)[0];
  ASSERT_TRUE(st.quantized);
  // Any non-empty float view marks the weights as retained; verify must
  // object before ever dereferencing it.
  st.w = TensorView(st.qw_scales.data(), {st.out_c, st.geom.col_rows()});
  expect_verify_rejects(plan, "not released");
}

TEST(PlanVerify, RejectsInt8UndersizedScratch) {
  auto plan = verify_fixture("int8");
  PlanTestPeer::qws_sz(PlanTestPeer::mut(plan)) = 1;
  expect_verify_rejects(plan, "scratch");
}

TEST(PlanVerify, RejectsBadQuantBits) {
  auto plan = verify_fixture("int8");
  Plan& p = PlanTestPeer::mut(plan);
  PlanTestPeer::steps(p)[0].qbits = 11;
  expect_verify_rejects(plan, "bits");
}

/// ALF ResNet-20 compiled on the default backend: its convs fold every
/// expansion and most residual adds.
std::shared_ptr<const Plan> alf_verify_fixture() {
  Rng rng(55);
  auto model = resnet20_for_test(/*alf=*/true, rng);
  return Plan::compile(*model, 4, kInC, kHw, kHw);
}

/// Index of the first conv whose epilogue runs an expansion (with_add:
/// and an add).
size_t fold_host(const Plan& plan, bool with_add) {
  for (size_t i = 0; i < plan.folds().size(); ++i)
    if (plan.folds()[i].exp != 0 && (!with_add || plan.folds()[i].add != 0))
      return i;
  ADD_FAILURE() << "fixture folds nothing";
  return 0;
}

TEST(PlanVerify, RejectsInconsistentFoldTable) {
  {
    auto plan = alf_verify_fixture();
    PlanTestPeer::folds(PlanTestPeer::mut(plan)).pop_back();
    expect_verify_rejects(plan, "fold table does not cover");
  }
  {
    auto plan = alf_verify_fixture();
    auto& folds = PlanTestPeer::folds(PlanTestPeer::mut(plan));
    folds[fold_host(*plan, false)].exp = 0;  // the expansion still skipped
    expect_verify_rejects(plan, "marked folded but no conv runs it");
  }
  {
    auto plan = alf_verify_fixture();
    auto& folds = PlanTestPeer::folds(PlanTestPeer::mut(plan));
    folds[folds[fold_host(*plan, true)].add].folded = false;  // runs twice
    expect_verify_rejects(plan, "run by a conv but not marked folded");
  }
  {
    auto plan = alf_verify_fixture();
    auto& steps = PlanTestPeer::steps(PlanTestPeer::mut(plan));
    steps[fold_host(*plan, true) + 1].act = Act::kRelu;  // before the add
    expect_verify_rejects(plan, "folds an add after an activation");
  }
}

}  // namespace
}  // namespace alf
