// One side of the same-process A/B harness (tools/ab/ab.cpp): the four
// bench_e2e fixture plans — ResNet-20 at CIFAR geometry, dense and ALF
// (every third code filter kept), float and int8 — built through the
// public API only (build_resnet20, Plan::compile, ExecContext), so the
// same file compiles against any tree that has that API. CMake compiles
// it once per tree: against this tree as it is, and against the
// ALF_AB_PARENT tree with -Dalf=alf_parent (every library symbol then
// lives in namespace alf_parent, so both libraries link into one
// binary). AB_SIDE names each side's extern "C" entry points apart.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "alf/alf_conv.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "engine/exec_context.hpp"
#include "models/zoo.hpp"

#define AB_CAT2(a, b) a##_##b
#define AB_CAT(a, b) AB_CAT2(a, b)
#define AB_FN(name) AB_CAT(AB_SIDE, name)

namespace {

constexpr size_t kInC = 3, kHw = 32;  // bench_e2e's fixture geometry

struct Fixture {
  std::string name;
  std::unique_ptr<alf::ExecContext> ctx;
};

std::vector<Fixture>& fixtures() {
  static std::vector<Fixture> f;
  return f;
}

void fill_uniform(float* dst, size_t n, alf::Rng& rng) {
  for (size_t i = 0; i < n; ++i)
    dst[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/// A few training-mode forwards so BatchNorm running statistics move off
/// their (0, 1) initialization, as bench_e2e's fixture does.
void warm_bn(alf::Sequential& model, alf::Rng& rng) {
  for (int pass = 0; pass < 2; ++pass) {
    alf::Tensor x({8, kInC, kHw, kHw});
    fill_uniform(x.data(), x.numel(), rng);
    model.forward(x, /*train=*/true);
  }
}

}  // namespace

extern "C" {

/// Compiles the four fixture plans for `batch` images with `threads`
/// pool threads (the plan's chunk grid follows the thread count at
/// compile time) and makes one context per plan. Returns the plan count.
int AB_FN(init)(int threads, size_t batch) {
  using namespace alf;
  set_parallel_threads(threads);
  ModelConfig mc;
  mc.base_width = 16;
  mc.in_hw = kHw;
  mc.in_channels = kInC;
  fixtures().clear();
  for (const bool alf_model : {false, true}) {
    Rng rng(17);
    std::unique_ptr<Sequential> model;
    if (alf_model) {
      std::vector<AlfConv*> blocks;
      model = build_resnet20(mc, rng,
                             make_alf_conv_maker(AlfConfig{}, &rng, &blocks));
      for (AlfConv* b : blocks) {
        Tensor& mask = b->mask();
        for (size_t i = 0; i < mask.numel(); ++i)
          if (i % 3 != 0) mask.at(i) = 0.0f;
      }
    } else {
      model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
    }
    warm_bn(*model, rng);
    for (const char* backend : {"", "int8"}) {
      EngineOptions opts;
      opts.backend = backend;
      opts.bits = 8;
      opts.name = std::string(alf_model ? "alf_resnet20" : "resnet20") +
                  (*backend ? "_int8" : "_f32");
      fixtures().push_back(
          {opts.name, std::make_unique<ExecContext>(Plan::compile(
                          *model, batch, kInC, kHw, kHw, opts))});
    }
  }
  return static_cast<int>(fixtures().size());
}

/// Runs plan `m` on the first n images at x (NCHW floats); writes the
/// logits to out.
void AB_FN(run)(int m, const float* x, size_t n, float* out) {
  fixtures()[static_cast<size_t>(m)].ctx->run_rows(x, n, out);
}

const char* AB_FN(name)(int m) {
  return fixtures()[static_cast<size_t>(m)].name.c_str();
}

size_t AB_FN(classes)(int m) {
  return fixtures()[static_cast<size_t>(m)].ctx->plan().classes();
}

size_t AB_FN(chunks)(int m) {
  return fixtures()[static_cast<size_t>(m)].ctx->plan().chunks();
}

}  // extern "C"
