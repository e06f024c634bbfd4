// Kernel-backend seam: registry selection and env override, cross-backend
// equivalence (simd vs scalar within 1e-4 of the matrix scale), per-backend
// bit-identity across thread counts, the real int8 qgemm against the
// fake-quant float reference, every qconv against the unfold-then-qgemm
// oracle, every float conv against its own gemm over the unfold, and the
// packed-int8 export round trip. The byte-identity tests run each case on
// both register-tile widths (see tile_masks).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "kernels/backend.hpp"
#include "kernels/internal.hpp"
#include "quant/quantize.hpp"
#include "tensor/ops.hpp"

namespace alf {
namespace {

Tensor random2d(size_t r, size_t c, Rng& rng, float scale = 1.0f) {
  Tensor t({r, c});
  for (size_t i = 0; i < t.numel(); ++i)
    t.at(i) = scale * static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Runs `be` over op(A)*op(B) into a dense [m, n] buffer.
std::vector<float> run_gemm(const kernels::KernelBackend* be, const Tensor& a,
                            bool ta, const Tensor& b, bool tb, size_t m,
                            size_t k, size_t n, float alpha = 1.0f,
                            float beta = 0.0f, float c_init = 0.0f) {
  std::vector<float> c(m * n, c_init);
  be->gemm(a.data(), a.dim(1), ta, b.data(), b.dim(1), tb, c.data(), n, m, k,
           n, alpha, beta);
  return c;
}

double max_abs_diff(const std::vector<float>& x, const std::vector<float>& y) {
  double d = 0.0;
  for (size_t i = 0; i < x.size(); ++i)
    d = std::max(d, static_cast<double>(std::fabs(x[i] - y[i])));
  return d;
}

double max_abs(const std::vector<float>& x) {
  double m = 0.0;
  for (const float v : x) m = std::max(m, static_cast<double>(std::fabs(v)));
  return m;
}

/// One register-tile width of the byte-identity tests, as the feature mask
/// that selects it: `simd` and `int8-vnni` run their 8x16 zmm tiles under
/// the full mask and their 4x16 ymm tiles with avx512f struck out.
struct TileMask {
  const char* name;
  uint32_t mask;
};

/// The widths to run every byte-identity case under: 256-bit first, then
/// 512-bit when this host (and ALF_CPU_DISABLE) allows AVX-512F. Without
/// it only the 512-bit input is skipped, with a note in the test log.
std::vector<TileMask> tile_masks() {
  std::vector<TileMask> masks{
      {"ymm", ~static_cast<uint32_t>(kernels::kCpuAvx512f)}};
  kernels::set_cpu_feature_mask(~0u);
  if ((kernels::allowed_cpu_features() & kernels::kCpuAvx512f) != 0)
    masks.push_back({"zmm", ~0u});
  else
    std::printf("[  NOTE    ] AVX-512F unavailable: 512-bit tile input "
                "skipped, 256-bit tiles only\n");
  return masks;
}

/// Runs the enclosing scope under one tile mask; lifts the cap on exit.
struct MaskScope {
  explicit MaskScope(uint32_t mask) { kernels::set_cpu_feature_mask(mask); }
  ~MaskScope() { kernels::set_cpu_feature_mask(~0u); }
  MaskScope(const MaskScope&) = delete;
  MaskScope& operator=(const MaskScope&) = delete;
};

TEST(KernelRegistry, BuiltinsPresent) {
  ASSERT_NE(kernels::scalar_backend(), nullptr);
  EXPECT_STREQ(kernels::scalar_backend()->name, "scalar");
  EXPECT_EQ(kernels::find_backend("scalar"), kernels::scalar_backend());
  EXPECT_EQ(kernels::find_backend("int8"), kernels::int8_backend());
  EXPECT_EQ(kernels::find_backend("no-such-backend"), nullptr);
  const auto names = kernels::backend_names();
  EXPECT_GE(names.size(), size_t{2});
  EXPECT_EQ(names.front(), "scalar");
  ASSERT_NE(kernels::default_backend(), nullptr);
  // default_backend never returns a quantized backend implicitly — unless
  // the run forces one by name (CI loops the suite over ALF_BACKEND).
  if (std::getenv("ALF_BACKEND") == nullptr) {
    EXPECT_FALSE(kernels::default_backend()->quantized_datapath);
  }
}

TEST(KernelRegistry, RegisterAndFind) {
  static const kernels::KernelBackend custom{
      .name = "test-custom",
      .gemm = kernels::scalar_backend()->gemm,
      .qgemm = kernels::scalar_backend()->qgemm,
      .conv = kernels::scalar_backend()->conv};
  kernels::register_backend(&custom);
  EXPECT_EQ(kernels::find_backend("test-custom"), &custom);
  EXPECT_EQ(kernels::backend_names().back(), "test-custom");
}

TEST(KernelRegistry, RegisterRefusesABackendWithoutItsConvEntry) {
  // The engine runs every conv through the backend's conv entry (qconv on
  // a quantized datapath), so a backend without it cannot register.
  static const kernels::KernelBackend no_conv{
      .name = "test-no-conv",
      .gemm = kernels::scalar_backend()->gemm,
      .qgemm = kernels::scalar_backend()->qgemm};
  EXPECT_THROW(kernels::register_backend(&no_conv), CheckError);
  const kernels::KernelBackend* int8 = kernels::int8_backend();
  static const kernels::KernelBackend no_qconv{
      .name = "test-no-qconv",
      .quantized_datapath = true,
      .gemm = int8->gemm,
      .qgemm = int8->qgemm,
      .conv = kernels::scalar_backend()->conv};
  EXPECT_THROW(kernels::register_backend(&no_qconv), CheckError);
  EXPECT_EQ(kernels::find_backend("test-no-conv"), nullptr);
  EXPECT_EQ(kernels::find_backend("test-no-qconv"), nullptr);
}

TEST(KernelRegistry, SetDefaultBackendOverridesAndResets) {
  kernels::set_default_backend("scalar");
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  EXPECT_THROW(kernels::set_default_backend("no-such-backend"), CheckError);
  // The failed set leaves the previous override in place.
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  kernels::set_default_backend("");  // back to auto resolution
  ASSERT_NE(kernels::default_backend(), nullptr);
}

TEST(KernelRegistry, EnvSelection) {
  // Save whatever the run was launched with (CI forces ALF_BACKEND to loop
  // the suite over every backend) and restore it on the way out.
  const char* prev = std::getenv("ALF_BACKEND");
  const std::string saved = prev != nullptr ? prev : "";
  ASSERT_EQ(setenv("ALF_BACKEND", "scalar", 1), 0);
  kernels::set_default_backend("");  // force re-resolution from the env
  EXPECT_STREQ(kernels::default_backend()->name, "scalar");
  ASSERT_EQ(setenv("ALF_BACKEND", "no-such-backend", 1), 0);
  kernels::set_default_backend("");
  EXPECT_THROW(kernels::default_backend(), CheckError);
  if (prev != nullptr) {
    ASSERT_EQ(setenv("ALF_BACKEND", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ALF_BACKEND"), 0);
  }
  kernels::set_default_backend("");
  ASSERT_NE(kernels::default_backend(), nullptr);
}

TEST(KernelRegistry, EnvForcingSelectsVectorQgemmBackends) {
  // ALF_BACKEND forcing must work for the ISA-specific quantized backends
  // exactly like for the built-ins (forcing bypasses the feature mask, but
  // registration already guaranteed the host can execute them).
  const char* prev = std::getenv("ALF_BACKEND");
  const std::string saved = prev != nullptr ? prev : "";
  for (const char* name : {"int8-avx2", "int8-vnni"}) {
    if (kernels::find_backend(name) == nullptr) continue;
    ASSERT_EQ(setenv("ALF_BACKEND", name, 1), 0);
    kernels::set_default_backend("");
    EXPECT_STREQ(kernels::default_backend()->name, name);
    EXPECT_TRUE(kernels::default_backend()->quantized_datapath);
  }
  if (prev != nullptr) {
    ASSERT_EQ(setenv("ALF_BACKEND", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ALF_BACKEND"), 0);
  }
  kernels::set_default_backend("");
}

/// True when backend `name` is registered and allowed_cpu_features()
/// covers everything it requires — what auto-selection may pick.
bool mask_admits(const char* name) {
  const kernels::KernelBackend* be = kernels::find_backend(name);
  return be != nullptr &&
         (be->required_features & ~kernels::allowed_cpu_features()) == 0;
}

TEST(KernelDispatch, FeatureMaskGatesAutoSelection) {
  // Auto-selection must never hand out a backend whose required features
  // the mask forbids. With everything masked off, the quantized pick falls
  // back to the baseline "int8" dispatcher, and the process default (when
  // not name-forced) to the first backend that requires nothing: "simd"
  // when it is registered with no required features (an ALF_SIMD=OFF
  // build compiles it at the baseline ISA), "scalar" otherwise.
  kernels::set_cpu_feature_mask(0);
  EXPECT_EQ(kernels::allowed_cpu_features(), 0u);
  const kernels::KernelBackend* best = kernels::best_quantized_backend();
  EXPECT_EQ(best->required_features, 0u);
  EXPECT_STREQ(best->name, "int8");
  if (std::getenv("ALF_BACKEND") == nullptr) {
    const kernels::KernelBackend* simd = kernels::find_backend("simd");
    const bool baseline_simd =
        simd != nullptr && simd->required_features == 0u;
    kernels::set_default_backend("");
    EXPECT_EQ(kernels::default_backend()->required_features, 0u);
    EXPECT_STREQ(kernels::default_backend()->name,
                 baseline_simd ? "simd" : "scalar");
  }

  // avx512f only picks register tiles inside simd and int8-vnni; no
  // backend requires it, so masking it changes no auto-selection.
  kernels::set_cpu_feature_mask(~0u);
  kernels::set_default_backend("");
  const kernels::KernelBackend* def_full = kernels::default_backend();
  const kernels::KernelBackend* best_full = kernels::best_quantized_backend();
  kernels::set_cpu_feature_mask(~static_cast<uint32_t>(kernels::kCpuAvx512f));
  EXPECT_EQ(kernels::allowed_cpu_features() & kernels::kCpuAvx512f, 0u);
  kernels::set_default_backend("");
  EXPECT_EQ(kernels::default_backend(), def_full);
  EXPECT_EQ(kernels::best_quantized_backend(), best_full);
  for (const std::string& name : kernels::backend_names())
    EXPECT_EQ(kernels::find_backend(name)->required_features &
                  kernels::kCpuAvx512f,
              0u)
        << name;

  // With only AVX2+FMA allowed, the VNNI kernel stays forbidden but the
  // AVX2 one (when this host registered it and ALF_CPU_DISABLE leaves both
  // features it requires) becomes the best pick.
  kernels::set_cpu_feature_mask(kernels::kCpuAvx2 | kernels::kCpuFma);
  const kernels::KernelBackend* avx_best = kernels::best_quantized_backend();
  EXPECT_EQ(avx_best->required_features &
                ~static_cast<uint32_t>(kernels::kCpuAvx2 | kernels::kCpuFma),
            0u);
  if (mask_admits("int8-avx2")) {
    EXPECT_STREQ(avx_best->name, "int8-avx2");
  }

  // Lift the cap: the best pick must be the widest registered kernel the
  // allowed features still admit (ALF_CPU_DISABLE outlives the lift).
  kernels::set_cpu_feature_mask(~0u);
  const kernels::KernelBackend* full = kernels::best_quantized_backend();
  if (mask_admits("int8-vnni")) {
    EXPECT_STREQ(full->name, "int8-vnni");
  } else if (mask_admits("int8-avx2")) {
    EXPECT_STREQ(full->name, "int8-avx2");
  } else {
    EXPECT_STREQ(full->name, "int8");
  }
  kernels::set_default_backend("");
}

TEST(KernelEquivalence, SimdMatchesScalarAllVariants) {
  const kernels::KernelBackend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "simd backend unavailable on this CPU";
  const kernels::KernelBackend* scalar = kernels::scalar_backend();
  Rng rng(7);
  // Odd shapes exercise the packing edge panels and the column tail; the
  // conv-shaped cases mirror the engine's real GEMMs.
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {{37, 53, 29},  {64, 64, 64},   {16, 27, 1024},
                          {128, 576, 60}, {4, 3, 17},    {100, 1, 40},
                          {1, 130, 257}};
  // Each case also runs under every tile mask, and simd must equal itself
  // byte for byte across them (8x16 zmm vs 4x16 ymm register tiles).
  const std::vector<TileMask> masks = tile_masks();
  for (const auto& s : shapes) {
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        Tensor a = ta ? random2d(s.k, s.m, rng) : random2d(s.m, s.k, rng);
        Tensor b = tb ? random2d(s.n, s.k, rng) : random2d(s.k, s.n, rng);
        const auto ref =
            run_gemm(scalar, a, ta, b, tb, s.m, s.k, s.n, 1.3f, 0.5f, 0.25f);
        std::vector<float> first;
        for (const TileMask& tm : masks) {
          const MaskScope scope(tm.mask);
          const auto got =
              run_gemm(simd, a, ta, b, tb, s.m, s.k, s.n, 1.3f, 0.5f, 0.25f);
          const double tol = 1e-4 * std::max(1.0, max_abs(ref));
          EXPECT_LE(max_abs_diff(ref, got), tol)
              << "m=" << s.m << " k=" << s.k << " n=" << s.n << " ta=" << ta
              << " tb=" << tb << " tile=" << tm.name;
          if (first.empty()) {
            first = got;
            continue;
          }
          EXPECT_EQ(std::memcmp(first.data(), got.data(),
                                got.size() * sizeof(float)),
                    0)
              << "simd " << tm.name << " tile differs from " << masks[0].name
              << " at m=" << s.m << " k=" << s.k << " n=" << s.n
              << " ta=" << ta << " tb=" << tb;
        }
      }
    }
  }
}

TEST(KernelEquivalence, StridedCOutput) {
  const kernels::KernelBackend* simd = kernels::simd_backend();
  if (simd == nullptr) GTEST_SKIP() << "simd backend unavailable on this CPU";
  // ldc > n (a caller writing a column window of a wider C): untouched
  // gutter columns must stay exactly as initialized.
  Rng rng(11);
  const size_t m = 33, k = 40, n = 21, ldc = 30;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  std::vector<float> ref(m * ldc, 7.0f), got(m * ldc, 7.0f);
  kernels::scalar_backend()->gemm(a.data(), k, false, b.data(), n, false,
                                  ref.data(), ldc, m, k, n, 1.0f, 0.0f);
  simd->gemm(a.data(), k, false, b.data(), n, false, got.data(), ldc, m, k, n,
             1.0f, 0.0f);
  double tol = 1e-4 * std::max(1.0, max_abs(ref));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < ldc; ++j) {
      if (j >= n) {
        EXPECT_EQ(got[i * ldc + j], 7.0f) << "gutter clobbered at " << j;
      } else {
        EXPECT_NEAR(got[i * ldc + j], ref[i * ldc + j], tol);
      }
    }
  }
}

TEST(KernelDeterminism, BitIdenticalAcrossThreadCounts) {
  Rng rng(13);
  // First shape: large enough that the row partition actually splits (k*n
  // madds per row is small against the per-worker floor). Second shape:
  // wide-N, so the simd backend takes its packed B-panel path.
  const size_t shapes[][3] = {{96, 80, 72}, {24, 48, 1024}};
  for (const auto& s : shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Tensor a = random2d(m, k, rng);
    Tensor b = random2d(k, n, rng);
    for (const std::string& name : kernels::backend_names()) {
      const kernels::KernelBackend* be = kernels::find_backend(name);
      set_parallel_threads(1);
      const auto ref = run_gemm(be, a, false, b, false, m, k, n);
      for (const int threads : {2, 3, 5}) {
        set_parallel_threads(threads);
        const auto got = run_gemm(be, a, false, b, false, m, k, n);
        EXPECT_EQ(
            std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
            << name << " not bit-identical at " << threads << " threads, n="
            << n;
      }
      set_parallel_threads(0);
    }
  }
}

TEST(Qgemm, MatchesFakeQuantFloatReference) {
  Rng rng(17);
  const size_t m = 24, k = 96, n = 32;
  Tensor a = random2d(m, k, rng, 0.8f);
  Tensor b = random2d(k, n, rng, 1.4f);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  // Reference: the fake-quant float path — dequantize both operands and
  // run the float oracle.
  Tensor da({m, k}), db({k, n});
  for (size_t i = 0; i < da.numel(); ++i) da.at(i) = qa.dequant(i);
  for (size_t i = 0; i < db.numel(); ++i) db.at(i) = qb.dequant(i);
  Tensor cref({m, n});
  gemm_naive(da, false, db, false, cref);

  kernels::QgemmParams params;
  params.a_scale = qa.params.scale;
  params.b_scale = qb.params.scale;
  for (const char* name : {"scalar", "int8"}) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    std::vector<float> c(m * n, 0.0f);
    be->qgemm(qa.data.data(), k, qb.data.data(), n, c.data(), n, m, k, n,
              params);
    // int32 accumulation is exact; the float reference rounds per add, so
    // the tolerance covers only the reference's error.
    double scale = 0.0;
    for (size_t i = 0; i < cref.numel(); ++i)
      scale = std::max(scale, static_cast<double>(std::fabs(cref.at(i))));
    for (size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], cref.at(i), 1e-4 * std::max(1.0, scale))
          << name << " element " << i;
  }
}

TEST(Qgemm, ZeroPointsApplied) {
  // 2x2x2 with nonzero zero-points, checked against hand math:
  // C[i,j] = sa*sb * sum_k (A-azp)(B-bzp).
  const int8_t a[] = {10, 20, 30, 40};  // [2, 2]
  const int8_t b[] = {1, 2, 3, 4};      // [2, 2]
  kernels::QgemmParams p;
  p.a_scale = 0.5f;
  p.b_scale = 0.25f;
  p.a_zp = 10;
  p.b_zp = 1;
  std::vector<float> c(4, -1.0f);
  kernels::int8_backend()->qgemm(a, 2, b, 2, c.data(), 2, 2, 2, 2, p);
  // Row 0: A-azp = {0, 10}; B-bzp cols: {(0,2),(1,3)}.
  EXPECT_FLOAT_EQ(c[0], 0.125f * (0 * 0 + 10 * 2));
  EXPECT_FLOAT_EQ(c[1], 0.125f * (0 * 1 + 10 * 3));
  // Row 1: A-azp = {20, 30}.
  EXPECT_FLOAT_EQ(c[2], 0.125f * (20 * 0 + 30 * 2));
  EXPECT_FLOAT_EQ(c[3], 0.125f * (20 * 1 + 30 * 3));
}

TEST(Qgemm, PerChannelScalesOverridePerTensor) {
  // Per-row A scales and per-column B scales only touch requantization:
  // against a per-tensor call on the same integer panels the result must
  // differ exactly by the row/column scale ratios.
  Rng rng(19);
  const size_t m = 8, k = 32, n = 12;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  kernels::QgemmParams pt;
  pt.a_scale = qa.params.scale;
  pt.b_scale = qb.params.scale;
  std::vector<float> base(m * n);
  kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                 base.data(), n, m, k, n, pt);

  std::vector<float> arow(m), bcol(n);
  for (size_t i = 0; i < m; ++i)
    arow[i] = qa.params.scale * (1.0f + 0.5f * static_cast<float>(i));
  for (size_t j = 0; j < n; ++j)
    bcol[j] = qb.params.scale * (2.0f - 0.1f * static_cast<float>(j));
  kernels::QgemmParams pc = pt;
  pc.a_scales = arow.data();
  pc.b_scales = bcol.data();
  std::vector<float> got(m * n);
  kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                 got.data(), n, m, k, n, pc);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const float ratio = (arow[i] / qa.params.scale) *
                          (bcol[j] / qb.params.scale);
      EXPECT_NEAR(got[i * n + j], base[i * n + j] * ratio,
                  1e-4f * std::max(1.0f, std::fabs(base[i * n + j] * ratio)))
          << i << "," << j;
    }
  }
}

TEST(Qgemm, DeterministicAcrossThreadCounts) {
  Rng rng(23);
  const size_t m = 64, k = 48, n = 56;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  const PackedInt8 qa = quantize_tensor(a, 8);
  const PackedInt8 qb = quantize_tensor(b, 8);
  kernels::QgemmParams params;
  params.a_scale = qa.params.scale;
  params.b_scale = qb.params.scale;
  const auto run = [&] {
    std::vector<float> c(m * n, 0.0f);
    kernels::int8_backend()->qgemm(qa.data.data(), k, qb.data.data(), n,
                                   c.data(), n, m, k, n, params);
    return c;
  };
  set_parallel_threads(1);
  const auto ref = run();
  set_parallel_threads(4);
  const auto got = run();
  set_parallel_threads(0);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
}

// Full-range int8 panel with a deliberate sprinkle of the ±127 saturation
// edges, so the widening multiplies in the vector kernels see their worst
// case (e.g. -127*-127 pairs that would overflow a 16-bit accumulator if a
// kernel widened too late).
std::vector<int8_t> random_i8(size_t numel, Rng& rng) {
  std::vector<int8_t> v(numel);
  for (size_t i = 0; i < numel; ++i) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.05) {
      v[i] = 127;
    } else if (u < 0.10) {
      v[i] = -127;
    } else {
      v[i] = static_cast<int8_t>(
          static_cast<int>(std::lrint(rng.uniform(-127.0, 127.0))));
    }
  }
  return v;
}

TEST(QgemmBitIdentity, VectorBackendsMatchScalarOracle) {
  // Every registered backend's qgemm must reproduce the scalar qgemm
  // oracle bit for bit (today they all register the one portable kernel;
  // a backend that brings its own stays held to it): integer accumulation
  // is exact and the float store pairs its multiplies 1:1 with the scalar
  // epilogue. Covers zero-point combinations, odd shapes (nothing aligned
  // to a 4x16 register tile), per-channel scales, and a strided C; memcmp
  // over the full strided buffer also proves the kernels never write the
  // ldc padding.
  Rng rng(41);
  const kernels::KernelBackend* oracle = kernels::find_backend("scalar");
  ASSERT_NE(oracle, nullptr);
  struct Shape {
    size_t m, k, n;
  };
  // Tiny, odd, tile-aligned and wide-N shapes.
  const Shape shapes[] = {{1, 1, 1},    {3, 7, 5},     {5, 31, 47},
                          {17, 64, 129}, {8, 192, 512}, {4, 80, 2048}};
  const int32_t zps[][2] = {
      {0, 0}, {-127, 0}, {0, -127}, {-127, -127}, {5, -3}};
  // Every backend runs under every tile mask.
  const std::vector<TileMask> masks = tile_masks();
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    for (const Shape& sh : shapes) {
      const auto a = random_i8(sh.m * sh.k, rng);
      const auto b = random_i8(sh.k * sh.n, rng);
      std::vector<float> as(sh.m), bs(sh.n);
      for (size_t i = 0; i < sh.m; ++i)
        as[i] = 0.03f + 0.01f * static_cast<float>(i % 7);
      for (size_t j = 0; j < sh.n; ++j)
        bs[j] = 0.11f - 0.005f * static_cast<float>(j % 13);
      for (const auto& zp : zps) {
        for (const bool per_channel : {false, true}) {
          kernels::QgemmParams p;
          p.a_scale = 0.0625f;
          p.b_scale = 0.125f;
          p.a_zp = zp[0];
          p.b_zp = zp[1];
          if (per_channel) {
            p.a_scales = as.data();
            p.b_scales = bs.data();
          }
          const size_t ldc = sh.n + 3;  // strided C with poisoned padding
          std::vector<float> ref(sh.m * ldc, -7.0f);
          oracle->qgemm(a.data(), sh.k, b.data(), sh.n, ref.data(), ldc,
                        sh.m, sh.k, sh.n, p);
          for (const TileMask& tm : masks) {
            const MaskScope scope(tm.mask);
            std::vector<float> got(sh.m * ldc, -7.0f);
            be->qgemm(a.data(), sh.k, b.data(), sh.n, got.data(), ldc, sh.m,
                      sh.k, sh.n, p);
            ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                  ref.size() * sizeof(float)),
                      0)
                << name << " m=" << sh.m << " k=" << sh.k << " n=" << sh.n
                << " azp=" << zp[0] << " bzp=" << zp[1]
                << " per_channel=" << per_channel << " tile=" << tm.name;
          }
        }
      }
    }
  }
}

TEST(QgemmBitIdentity, WideNAcrossThreadCounts) {
  // Wide-N quantized matmul, per backend, across thread counts: the k-block
  // accumulation grid is fixed by the shape, so the partition must not leak
  // into results. Integer accumulation makes this exact.
  Rng rng(43);
  const size_t m = 64, k = 96, n = 2048;
  const auto a = random_i8(m * k, rng);
  const auto b = random_i8(k * n, rng);
  kernels::QgemmParams p;
  p.a_scale = 0.01f;
  p.b_scale = 0.02f;
  p.a_zp = -5;
  p.b_zp = 7;
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    const auto run = [&] {
      std::vector<float> c(m * n, 0.0f);
      be->qgemm(a.data(), k, b.data(), n, c.data(), n, m, k, n, p);
      return c;
    };
    set_parallel_threads(1);
    const auto ref = run();
    for (const int threads : {2, 5}) {
      set_parallel_threads(threads);
      const auto got = run();
      EXPECT_EQ(
          std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)), 0)
          << name << " qgemm not bit-identical at " << threads << " threads";
    }
    set_parallel_threads(0);
  }
}

/// The engine's activation quantization expression (rint, +zp, clamp).
int8_t quantize_ref(float v, float inv, int32_t zp, int32_t levels) {
  const int32_t q = static_cast<int32_t>(std::rintf(v * inv)) + zp;
  return static_cast<int8_t>(std::min(levels, std::max(-levels, q)));
}

/// A qconv image (kernels::ConvShape) from its logical int8 bytes
/// `planes` ([s.in_c][s.in_h][s.in_w], borders included): byte
/// [c/4][y][x][c%4] is the value + 128, and every lane past in_c is `fill`.
/// Written element by element, independent of the kernels' writers.
std::vector<uint8_t> to_quads(const int8_t* planes, const kernels::ConvShape& s,
                              uint8_t fill) {
  std::vector<uint8_t> out(s.images * s.qimage_size(), fill);
  const size_t plane = s.in_h * s.in_w;
  for (size_t img = 0; img < s.images; ++img)
    for (size_t c = 0; c < s.in_c; ++c)
      for (size_t px = 0; px < plane; ++px)
        out[img * s.qimage_size() + ((c / 4) * plane + px) * 4 + c % 4] =
            static_cast<uint8_t>(
                planes[(img * s.in_c + c) * plane + px] + 128);
  return out;
}

TEST(QuantizePad, BothWritersMatchTheElementReference) {
  // quantize_pad_i8's AVX2 writer (when this host runs it) and its
  // baseline writer against one reference per byte: interior bytes are
  // quantize_ref(v) + 128 at [c/4][y][x][c%4], border bytes and the lanes
  // past in_c are zp + 128. Widths 13 and 8 cover the 8-pixel vector step
  // and the scalar tail; the grid is 30% finer than the max-abs one, so
  // the clamp fires. 1x1 images (the int8 head's rows) take the AVX2
  // writer's path over contiguous planes: 64 channels are eight 8-plane
  // steps, 13 one step and a partial quad, 3 and 5 only the tail.
  std::vector<std::pair<const char*, kernels::detail::QuantizePadFn>> writers{
      {"baseline", &kernels::detail::quantize_pad_i8_base}};
  if (kernels::detail::quantize_pad_i8_vec() != nullptr)
    writers.emplace_back("avx2", kernels::detail::quantize_pad_i8_vec());
  Rng rng(83);
  struct Geo {
    size_t c, h, w;
  };
  std::vector<Geo> geos;
  for (const size_t c : {3, 4, 5, 16})
    for (const size_t w : {13, 8}) geos.push_back({c, 3, w});
  for (const size_t c : {3, 5, 13, 64}) geos.push_back({c, 1, 1});
  for (const Geo& geo : geos) {
    const size_t c = geo.c, h = geo.h, w = geo.w;
    std::vector<float> src(c * h * w);
    for (float& v : src) v = static_cast<float>(rng.uniform(-2.0, 2.0));
    for (const size_t pad : {0, 1}) {
      for (const int bits : {8, 4}) {
        for (const bool nonneg : {false, true}) {
          const int32_t levels = (1 << (bits - 1)) - 1;
          const int32_t zp = nonneg ? -levels : 0;
          const float span =
              static_cast<float>(nonneg ? 2 * levels : levels);
          const float inv = 1.3f * span / 2.0f;
          kernels::ConvShape s;
          s.in_c = c;
          s.in_h = h + 2 * pad;
          s.in_w = w + 2 * pad;
          std::vector<uint8_t> want(s.qimage_size(),
                                    static_cast<uint8_t>(zp + 128));
          for (size_t ch = 0; ch < c; ++ch)
            for (size_t y = 0; y < h; ++y)
              for (size_t x = 0; x < w; ++x)
                want[(((ch / 4) * s.in_h + y + pad) * s.in_w + x + pad) * 4 +
                     ch % 4] = static_cast<uint8_t>(
                    quantize_ref(src[(ch * h + y) * w + x], inv, zp,
                                 levels) +
                    128);
          for (const auto& [name, fn] : writers) {
            std::vector<uint8_t> got(s.qimage_size() + 1, 0xA5);
            fn(src.data(), c, h, w, pad, inv, zp, levels, got.data());
            EXPECT_EQ(got.back(), 0xA5) << name << " wrote past the image";
            got.pop_back();
            ASSERT_EQ(got, want)
                << name << " c=" << c << " w=" << w << " pad=" << pad
                << " bits=" << bits << " zp=" << zp;
          }
        }
      }
    }
  }
}

/// qconv's A (backend.hpp KernelBackend::qconv) for the first m rows of
/// the unfold-order weights `a`: reordered into the images' k order, in a
/// buffer of exactly m rows, so an entry that reads past the last row
/// faults under ASan.
std::vector<int8_t> qconv_a(const std::vector<int8_t>& a, size_t m,
                            const kernels::ConvShape& s) {
  std::vector<int8_t> q(m * s.qk());
  kernels::reorder_qconv_weights(a.data(), m, s, q.data());
  return q;
}

/// A quantized backend whose qconv is the unfold (what the generic int8
/// backend's qconv runs when no dot-product kernel is allowed), so the
/// unfold runs on hosts where the generic backend resolves to a gathering
/// kernel.
const kernels::KernelBackend kQconvUnfold{
    .name = "qconv-unfold",
    .quantized_datapath = true,
    .gemm = &kernels::detail::gemm_scalar,
    .qgemm = &kernels::detail::qgemm_int8,
    .qconv = &kernels::detail::qconv_unfold};

TEST(QconvBitIdentity, EveryQuantizedBackendAndFallbackMatchOracle) {
  // qconv reads B straight from zero-point-padded u8 channel-quad images;
  // the oracle is the path it replaced: float im2col_view, per-image
  // quantize, then the scalar qgemm. Every panel read is covered —
  // contiguous (W=32, 16), two 8-wide halves (W=8 s1), stride 2 in one
  // row (3x3 and 1x1 s2 onto 16-wide maps), per-column gathers (8-wide s2,
  // 7x7 and 5x5 maps whose panels straddle images) — with 3-9 channels
  // (a partial last quad, pad lanes included), the fixture's ALF code
  // convs (16->6@32, 32->11@16, 64->22@8), at both activation grids, two
  // bit widths, 1-9 images and two thread counts. The 1-, 2- and 5-image
  // runs make panel counts that are not a multiple of int8-vnni's
  // three-panel zmm sweep. The linear head's geometry — 1x1 kernels on 1x1
  // maps, one column per image — runs at 3, 8 and 64 channels, whose
  // panels are contiguous, stride 2 and gathered, at 1, 16, 17 and 33
  // images: a narrow panel, a full one, and several with a narrow last.
  // The 4-bit case sets a_zp != 0, which every entry routes to the
  // unfold. C carries a poisoned gutter (ldc > n) that no entry may
  // touch.
  struct Geo {
    size_t c, hw, k, s, pad;
  };
  const Geo geos[] = {{5, 32, 3, 1, 1},  {6, 16, 3, 1, 1}, {6, 8, 3, 1, 1},
                      {4, 32, 3, 2, 1},  {3, 32, 1, 2, 0}, {7, 8, 3, 2, 1},
                      {9, 8, 1, 2, 0},   {4, 7, 3, 1, 1},  {5, 5, 3, 1, 1},
                      {64, 8, 3, 1, 1},  {16, 32, 3, 1, 1}, {32, 16, 3, 1, 1},
                      {3, 1, 1, 1, 0},   {8, 1, 1, 1, 0},  {64, 1, 1, 1, 0}};
  std::vector<const kernels::KernelBackend*> cands{&kQconvUnfold};
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    if (!be->quantized_datapath) continue;
    EXPECT_NE(be->qconv, nullptr) << name << " has no qconv";
    cands.push_back(be);
  }
  // Every candidate runs under every tile mask over the first rows of A
  // (the oracle's rows are independent), each reordered into qconv's A in
  // a buffer of exactly that many rows (qconv_a): 22, 6 and 11 rows are
  // the code convs' (none a multiple of the 4-row panel; 22 = two 8-row
  // zmm tiles and a 6-row one), 9 puts one row in a last tile, 5 one row
  // past a 4-row ymm tile, 3 a short ymm tile and 1 a single row. One
  // thread runs them all, three threads the widest and an odd one. The
  // oracle multiplies A in unfold order against the (c, kh, kw) unfold.
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(59);
  const size_t m = 22;
  for (const Geo& geo : geos) {
    const ConvGeom g{geo.c, geo.hw, geo.hw, geo.k, geo.s, geo.pad};
    kernels::ConvShape s;
    s.in_c = geo.c;
    s.in_h = s.in_w = geo.hw + 2 * geo.pad;
    s.kernel = geo.k;
    s.stride = geo.s;
    const size_t k = g.col_rows(), cols = g.col_cols();
    const auto a = random_i8(m * k, rng);
    std::vector<float> as(m);
    for (size_t i = 0; i < m; ++i)
      as[i] = 0.02f + 0.003f * static_cast<float>(i);
    // The code convs' maps are the largest: 1, 2 and 5 images suffice.
    const std::vector<size_t> counts =
        geo.hw == 1                   ? std::vector<size_t>{1, 16, 17, 33}
        : geo.c >= 16 && geo.hw >= 16 ? std::vector<size_t>{1, 2, 5}
                                      : std::vector<size_t>{1, 2, 5, 9};
    for (const size_t imgs : counts) {
      s.images = imgs;
      const size_t n = imgs * cols, ldc = n + 5;
      std::vector<float> x(imgs * g.in_c * g.in_h * g.in_w);
      for (size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0)) *
               (1.0f + static_cast<float>(i / (x.size() / imgs)));
      if (imgs > 1)
        std::fill(x.begin() + x.size() / imgs, x.begin() + 2 * x.size() / imgs,
                  0.0f);
      for (const int bits : {8, 4}) {
        for (const bool nonneg : {false, true}) {
          const int32_t levels = (1 << (bits - 1)) - 1;
          const int32_t zp = nonneg ? -levels : 0;
          const float span = static_cast<float>(nonneg ? 2 * levels : levels);
          std::vector<float> bs(n), col(k * n);
          std::vector<int8_t> qcol(k * n), xpad(imgs * s.image_size());
          for (size_t j = 0; j < imgs; ++j) {
            std::vector<float> img(x.begin() + j * x.size() / imgs,
                                   x.begin() + (j + 1) * x.size() / imgs);
            if (nonneg)
              for (float& v : img) v = std::fabs(v);
            float amax = 0.0f;
            for (const float v : img) amax = std::max(amax, std::fabs(v));
            const float scale = amax > 0.0f ? amax / span : 1.0f;
            const float inv = 1.0f / scale;
            std::fill(bs.begin() + j * cols, bs.begin() + (j + 1) * cols,
                      scale);
            im2col_view(img.data(), g, col.data() + j * cols, n);
            for (size_t r = 0; r < k; ++r)
              for (size_t c = j * cols; c < (j + 1) * cols; ++c)
                qcol[r * n + c] = quantize_ref(col[r * n + c], inv, zp, levels);
            int8_t* dst = xpad.data() + j * s.image_size();
            for (size_t ch = 0; ch < g.in_c; ++ch)
              for (size_t y = 0; y < s.in_h; ++y)
                for (size_t xx = 0; xx < s.in_w; ++xx) {
                  const bool inside = y >= geo.pad && y < geo.pad + g.in_h &&
                                      xx >= geo.pad && xx < geo.pad + g.in_w;
                  *dst++ = inside ? quantize_ref(
                                        img[(ch * g.in_h + y - geo.pad) *
                                                g.in_w +
                                            xx - geo.pad],
                                        inv, zp, levels)
                                  : static_cast<int8_t>(zp);
                }
          }
          const std::vector<uint8_t> xq =
              to_quads(xpad.data(), s, static_cast<uint8_t>(zp + 128));
          kernels::QgemmParams p;
          p.a_scales = as.data();
          p.b_scales = bs.data();
          p.b_zp = zp;
          // The engine's weights are symmetric; a weight zero point sends
          // every entry to the unfold, whose qgemm then sums columns.
          p.a_zp = bits == 4 ? 3 : 0;
          std::vector<float> ref(m * ldc, -7.0f);
          kernels::detail::qgemm_int8(a.data(), k, qcol.data(), n, ref.data(),
                                      ldc, m, k, n, p);
          for (const kernels::KernelBackend* be : cands) {
            for (const TileMask& tm : masks) {
              const MaskScope scope(tm.mask);
              for (const int threads : {1, 3}) {
                set_parallel_threads(threads);
                const std::vector<size_t> row_counts =
                    threads == 1 ? std::vector<size_t>{1, 3, 5, 6, 9, 11, 22}
                                 : std::vector<size_t>{22, 11};
                for (const size_t rows : row_counts) {
                  const std::vector<int8_t> aq = qconv_a(a, rows, s);
                  std::vector<float> got(rows * ldc, -7.0f);
                  be->qconv(aq.data(), s.qk(), xq.data(), s, got.data(), ldc,
                            rows, p, nullptr);
                  ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                        got.size() * sizeof(float)),
                            0)
                      << be->name << " m=" << rows << " c=" << geo.c
                      << " hw=" << geo.hw << " k=" << geo.k << " s=" << geo.s
                      << " imgs=" << imgs << " bits=" << bits << " zp=" << zp
                      << " tile=" << tm.name << " threads=" << threads;
                }
              }
            }
          }
          set_parallel_threads(0);
        }
      }
    }
  }
}

TEST(ConvBitIdentity, EveryFloatConvMatchesItsGemmOverTheUnfold) {
  // Every float backend's conv entry (simd reads B panels in place from
  // the zero-padded images, scalar unfolds them first) must equal the same
  // backend's gemm over im2col_view's unfold byte for byte.
  // The geometries cover every panel read: contiguous rows (3x3 s1 at
  // W=32/16, the 1x1 s1 ALF expansion), two halves (W=8), one stride-2
  // run (3x3 and 1x1 s2 onto 16-wide maps), rows alternating contiguous
  // and two-half panels (W=24: simd's three-panel sweeps break on each
  // mode change), per-column gathers (8-wide s2 maps, 7x7 and 5x5 maps
  // whose panels straddle images), and a one-channel 2x2 map, narrower
  // than a panel. m = 6, 11 and 22 are the fixture's ALF code-conv row
  // counts (none a multiple of the 4-row tile); m = 1 and 3 run one short
  // tile, 5 a whole one and a 1-row one, 8 exactly one 8-row zmm tile, 9
  // that tile and a 1-row one; m = 64 over the 64-channel map makes k =
  // 576, three k blocks. A is allocated at exactly m rows, so a tile that
  // reads past the last one faults under ASan. C carries a poisoned
  // gutter (ldc > n) no entry may touch.
  struct Geo {
    size_t c, hw, k, s, pad;
  };
  const Geo geos[] = {{5, 32, 3, 1, 1}, {6, 16, 3, 1, 1}, {6, 8, 3, 1, 1},
                      {4, 32, 3, 2, 1}, {7, 8, 3, 2, 1},  {3, 32, 1, 2, 0},
                      {11, 8, 1, 1, 0}, {4, 7, 3, 1, 1},  {5, 5, 3, 1, 1},
                      {1, 2, 3, 1, 1},  {64, 8, 3, 1, 1}, {3, 24, 3, 1, 1}};
  std::vector<const kernels::KernelBackend*> cands;
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    if (be->quantized_datapath) continue;
    EXPECT_NE(be->conv, nullptr) << name << " has no conv";
    if (be->conv != nullptr) cands.push_back(be);
  }
  ASSERT_FALSE(cands.empty());
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(67);
  for (const Geo& geo : geos) {
    const ConvGeom g{geo.c, geo.hw, geo.hw, geo.k, geo.s, geo.pad};
    kernels::ConvShape s;
    s.in_c = geo.c;
    s.in_h = s.in_w = geo.hw + 2 * geo.pad;
    s.kernel = geo.k;
    s.stride = geo.s;
    const size_t k = g.col_rows(), cols = g.col_cols();
    const size_t img_floats = geo.c * geo.hw * geo.hw;
    for (const size_t m : {1, 3, 5, 6, 8, 9, 11, 22, 64}) {
      const Tensor a = random2d(m, k, rng);
      for (const size_t imgs : {1, 2, 5, 9}) {
        s.images = imgs;
        const size_t n = imgs * cols, ldc = n + 5;
        std::vector<float> x(imgs * img_floats), col(k * n);
        for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> xpad(imgs * s.image_size(), 0.0f);
        for (size_t j = 0; j < imgs; ++j) {
          const float* img = x.data() + j * img_floats;
          im2col_view(img, g, col.data() + j * cols, n);
          for (size_t ch = 0; ch < geo.c; ++ch)
            for (size_t y = 0; y < geo.hw; ++y)
              std::memcpy(xpad.data() + j * s.image_size() +
                              (ch * s.in_h + y + geo.pad) * s.in_w + geo.pad,
                          img + (ch * geo.hw + y) * geo.hw,
                          geo.hw * sizeof(float));
        }
        for (const kernels::KernelBackend* be : cands) {
          for (const int threads : {1, 3}) {
            set_parallel_threads(threads);
            // The reference runs gemm on the 256-bit tile; conv must equal
            // it under every tile mask.
            std::vector<float> ref(m * ldc, -7.0f);
            {
              const MaskScope scope(masks[0].mask);
              be->gemm(a.data(), k, false, col.data(), n, false, ref.data(),
                       ldc, m, k, n, 1.0f, 0.0f);
            }
            for (const TileMask& tm : masks) {
              const MaskScope scope(tm.mask);
              std::vector<float> got(m * ldc, -7.0f);
              be->conv(a.data(), k, xpad.data(), s, got.data(), ldc, m,
                       nullptr);
              ASSERT_EQ(std::memcmp(ref.data(), got.data(),
                                    ref.size() * sizeof(float)),
                        0)
                  << be->name << " c=" << geo.c << " hw=" << geo.hw
                  << " k=" << geo.k << " s=" << geo.s << " m=" << m
                  << " imgs=" << imgs << " tile=" << tm.name
                  << " threads=" << threads;
            }
          }
        }
        set_parallel_threads(0);
      }
    }
  }
}

// --- Shape invariance (backend.hpp): a C element's bits depend only on its
// row of A, its column of B and k, so an image's logits do not depend on
// how many images share its batch. ---------------------------------------

/// The registered backends whose datapath is float.
std::vector<const kernels::KernelBackend*> float_backends() {
  std::vector<const kernels::KernelBackend*> out;
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    if (!be->quantized_datapath) out.push_back(be);
  }
  return out;
}

TEST(KernelInvariance, EveryFloatGemmRowEqualsItsOneRowProduct) {
  // Each row of an m-row gemm equals that row's own 1-row product byte for
  // byte, for m in 1..9: the linear head's m is the batch's image count.
  // k = 64, n = 10 is the head of the paper-scale ResNet-20 fixture, k =
  // 32 that of the test-scale one; op(B) transposed is how the head calls
  // gemm. The rest are small and odd shapes, and one as wide as a panel.
  struct Shape {
    size_t k, n;
    bool tb;
  };
  const Shape shapes[] = {{64, 10, true}, {64, 10, false}, {32, 10, true},
                          {5, 3, false},  {130, 17, true}, {1, 40, false},
                          {64, 1, true},  {27, 16, false}};
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(73);
  for (const Shape& sh : shapes) {
    const Tensor b =
        sh.tb ? random2d(sh.n, sh.k, rng) : random2d(sh.k, sh.n, rng);
    for (size_t m = 1; m <= 9; ++m) {
      const Tensor a = random2d(m, sh.k, rng);
      for (const kernels::KernelBackend* be : float_backends()) {
        for (const TileMask& tm : masks) {
          const MaskScope scope(tm.mask);
          const std::vector<float> all =
              run_gemm(be, a, false, b, sh.tb, m, sh.k, sh.n);
          for (size_t i = 0; i < m; ++i) {
            Tensor row({1, sh.k});
            std::memcpy(row.data(), a.data() + i * sh.k, sh.k * sizeof(float));
            const std::vector<float> one =
                run_gemm(be, row, false, b, sh.tb, 1, sh.k, sh.n);
            ASSERT_EQ(std::memcmp(one.data(), all.data() + i * sh.n,
                                  sh.n * sizeof(float)),
                      0)
                << be->name << " k=" << sh.k << " n=" << sh.n
                << " tb=" << sh.tb << " m=" << m << " row " << i
                << " tile=" << tm.name;
          }
        }
      }
    }
  }
}

TEST(KernelInvariance, EveryFloatConvImageEqualsItsOneImageConv) {
  // Each image of a 2- and a 5-image conv equals its own 1-image conv byte
  // for byte, stored to C, through a ReLU epilogue, and through an
  // expansion epilogue: a conv's n is its chunk's image count times the
  // output plane. The 2x2 and 3x3 output planes keep n under a 16-column
  // panel at one image; the 8x8 map is a regular one, whose 5 images make
  // 20 panels: simd's three-panel sweeps then group an image's panels
  // differently than its 1-image conv does, and end on a short group.
  struct Geo {
    size_t c, hw;
  };
  const Geo geos[] = {{16, 2}, {16, 3}, {8, 8}};
  // (m, co): conv rows against expansion rows, 0 = no expansion; (6, 16)
  // and (11, 32) are the fixture's code convs.
  const size_t rows[][2] = {{4, 0},  {16, 0}, {4, 16},
                            {16, 16}, {6, 16}, {11, 32}};
  constexpr size_t kMaxImages = 5;
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(79);
  for (const Geo& geo : geos) {
    kernels::ConvShape s;
    s.in_c = geo.c;
    s.in_h = s.in_w = geo.hw + 2;  // 3x3, pad 1
    s.kernel = 3;
    const size_t k = s.k(), plane = s.out_h() * s.out_w();
    std::vector<float> xpad(kMaxImages * s.image_size(), 0.0f);
    for (size_t j = 0; j < kMaxImages; ++j)
      for (size_t ch = 0; ch < geo.c; ++ch)
        for (size_t y = 0; y < geo.hw; ++y)
          for (size_t x = 0; x < geo.hw; ++x)
            xpad[j * s.image_size() + (ch * s.in_h + y + 1) * s.in_w + x + 1] =
                static_cast<float>(rng.uniform(-1.0, 1.0));
    for (const auto& mc : rows) {
      const size_t m = mc[0], co = mc[1], out_rows = co != 0 ? co : m;
      const Tensor a = random2d(m, k, rng);
      const Tensor ew = random2d(std::max<size_t>(co, 1), m, rng);
      // Runs the conv on `imgs` images from image `first`; returns them
      // NCHW (C's columns regrouped per image when there is no epilogue).
      const auto conv = [&](const kernels::KernelBackend* be, bool with_ep,
                            size_t first, size_t imgs) {
        kernels::ConvShape si = s;
        si.images = imgs;
        const size_t n = si.n();
        std::vector<float> out(imgs * out_rows * plane);
        kernels::ConvEpilogue ep;
        ep.out = out.data();
        ep.act = Act::kRelu;
        if (co != 0) {
          ep.co = co;
          ep.inner_act = Act::kRelu;
          ep.exp_w = ew.data();
        }
        const float* x = xpad.data() + first * s.image_size();
        if (with_ep) {
          be->conv(a.data(), k, x, si, nullptr, 0, m, &ep);
          return out;
        }
        std::vector<float> c(m * n);
        be->conv(a.data(), k, x, si, c.data(), n, m, nullptr);
        for (size_t img = 0; img < imgs; ++img)
          for (size_t r = 0; r < m; ++r)
            std::memcpy(out.data() + (img * m + r) * plane,
                        c.data() + r * n + img * plane, plane * sizeof(float));
        return out;
      };
      for (const kernels::KernelBackend* be : float_backends()) {
        for (const bool with_ep : {false, true}) {
          if (co != 0 && !with_ep) continue;  // an expansion is an epilogue
          for (const TileMask& tm : masks) {
            const MaskScope scope(tm.mask);
            for (const size_t imgs : {size_t{2}, kMaxImages}) {
              const std::vector<float> all = conv(be, with_ep, 0, imgs);
              for (size_t j = 0; j < imgs; ++j) {
                const std::vector<float> one = conv(be, with_ep, j, 1);
                ASSERT_EQ(std::memcmp(one.data(), all.data() + j * one.size(),
                                      one.size() * sizeof(float)),
                          0)
                    << be->name << " c=" << geo.c << " hw=" << geo.hw
                    << " m=" << m << " co=" << co << " epilogue=" << with_ep
                    << " image " << j << " of " << imgs
                    << " tile=" << tm.name;
              }
            }
          }
        }
      }
    }
  }
}

// --- Conv epilogues (backend.hpp ConvEpilogue) -----------------------------

/// The epilogue's reference: out[img][r][p] = act(c[r][img*plane + p]
/// (+ bias[r]) (+ res[img][r][p])) — a bias/activation store followed by
/// a residual add step, element by element, in that order. `res` may be
/// a copy of out's initial contents (the in-place case).
void ref_epilogue(const std::vector<float>& c, size_t rows, size_t imgs,
                  size_t plane, const float* bias, const float* res, Act act,
                  float* out) {
  const size_t n = imgs * plane;
  for (size_t img = 0; img < imgs; ++img)
    for (size_t r = 0; r < rows; ++r)
      for (size_t p = 0; p < plane; ++p) {
        const size_t at = (img * rows + r) * plane + p;
        float v = c[r * n + img * plane + p];
        if (bias != nullptr) v = v + bias[r];
        if (res != nullptr) v = v + res[at];
        if (act == Act::kRelu) v = v > 0.0f ? v : 0.0f;
        out[at] = v;
      }
}

/// One case of the epilogue tests: conv geometry, conv rows m, expansion
/// rows co (0 = none), and what the epilogue adds.
struct EpiCase {
  size_t c, hw, k, s, pad;
};

/// The variants every (geometry, m, co, images) combination runs: bias on
/// and off, ReLU and none (inner and outer), no residual, a separate one,
/// and one updated in place.
struct EpiVariant {
  bool bias;
  Act act, inner;
  int residual;  // 0 none, 1 separate, 2 in place
};
constexpr EpiVariant kEpiVariants[] = {
    {true, Act::kRelu, Act::kRelu, 0},
    {false, Act::kNone, Act::kNone, 0},
    {true, Act::kNone, Act::kRelu, 1},
    {true, Act::kRelu, Act::kNone, 2},
    {false, Act::kRelu, Act::kNone, 1}};

/// Geometries: the fixture's three ALF stages (32x32x16, 16x16x32,
/// 8x8x64), 7x7 and 5x5 maps whose panels straddle images, a strided
/// conv, and a one-channel map whose product is a few hundred
/// multiply-adds.
constexpr EpiCase kEpiGeos[] = {{16, 32, 3, 1, 1}, {32, 16, 3, 1, 1},
                                {64, 8, 3, 1, 1},  {8, 7, 3, 1, 1},
                                {8, 5, 3, 1, 1},   {16, 16, 3, 2, 1},
                                {1, 5, 3, 1, 1}};

/// (m, co): the fixture's code widths against their expansions, and a
/// plain conv without one.
constexpr size_t kEpiRows[][2] = {{6, 16}, {11, 32}, {22, 64}, {13, 0}};

kernels::ConvShape epi_shape(const EpiCase& geo, size_t imgs) {
  kernels::ConvShape s;
  s.in_c = geo.c;
  s.in_h = s.in_w = geo.hw + 2 * geo.pad;
  s.kernel = geo.k;
  s.stride = geo.s;
  s.images = imgs;
  return s;
}

TEST(ConvEpilogue, FloatEntriesEqualTheirTwoStepComputation) {
  // A float conv with an epilogue equals its two-step computation, built
  // without the conv entry: the backend's gemm over the materialized
  // unfold, then the reference epilogue; with an expansion, the inner
  // activation over that [m, n] product and the backend's gemm of the
  // expansion weights over it (what a separate 1x1 conv step computes)
  // before the reference epilogue. backend.hpp promises both reference
  // paths the conv entry's bytes. Byte for byte, under both tile masks, at
  // 1 and 3 threads. On the 5x5 maps (264, 16) also runs: a folded
  // expansion over two 256-deep k blocks of code rows.
  std::vector<const kernels::KernelBackend*> cands{kernels::scalar_backend()};
  if (const kernels::KernelBackend* simd = kernels::find_backend("simd"))
    cands.push_back(simd);
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(71);
  for (const EpiCase& geo : kEpiGeos) {
    const ConvGeom g{geo.c, geo.hw, geo.hw, geo.k, geo.s, geo.pad};
    const size_t k = g.col_rows(), plane = g.col_cols();
    std::vector<std::pair<size_t, size_t>> mcs;
    for (const auto& mc : kEpiRows) mcs.emplace_back(mc[0], mc[1]);
    if (geo.hw == 5) mcs.emplace_back(264, 16);
    for (const auto& [m, co] : mcs) {
      const size_t rows = co != 0 ? co : m;
      const Tensor a = random2d(m, k, rng);
      const Tensor ew = random2d(std::max<size_t>(co, 1), m, rng);
      std::vector<float> bias(rows);
      for (float& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
      // At 2 images the fixture maps make 128, 32 and 8 panels, none a
      // multiple of simd's three-panel sweep.
      for (const size_t imgs : {1, 2, 3}) {
        const kernels::ConvShape s = epi_shape(geo, imgs);
        const size_t n = s.n();
        std::vector<float> xpad(imgs * s.image_size(), 0.0f);
        for (size_t j = 0; j < imgs; ++j)
          for (size_t ch = 0; ch < geo.c; ++ch)
            for (size_t y = 0; y < geo.hw; ++y)
              for (size_t xx = 0; xx < geo.hw; ++xx)
                xpad[j * s.image_size() +
                     (ch * s.in_h + y + geo.pad) * s.in_w + xx + geo.pad] =
                    static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<float> col(k * n);
        kernels::detail::unfold_padded(xpad.data(), s, col.data());
        std::vector<float> resid(imgs * rows * plane);
        for (float& v : resid) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (const kernels::KernelBackend* be : cands) {
          for (const TileMask& tm : masks) {
            const MaskScope scope(tm.mask);
            for (const int threads : {1, 3}) {
              set_parallel_threads(threads);
              std::vector<float> c(m * n);
              be->gemm(a.data(), k, false, col.data(), n, false, c.data(), n,
                       m, k, n, 1.0f, 0.0f);
              for (const EpiVariant& v : kEpiVariants) {
                std::vector<float> fin = c;
                if (co != 0) {
                  kernels::detail::act_rows(v.inner, fin.data(), n, m, n);
                  std::vector<float> e(co * n);
                  be->gemm(ew.data(), m, false, fin.data(), n, false,
                           e.data(), n, co, m, n, 1.0f, 0.0f);
                  fin = std::move(e);
                }
                std::vector<float> want(rows * n);
                ref_epilogue(fin, rows, imgs, plane,
                             v.bias ? bias.data() : nullptr,
                             v.residual != 0 ? resid.data() : nullptr, v.act,
                             want.data());

                std::vector<float> got =
                    v.residual == 2 ? resid : std::vector<float>(rows * n);
                kernels::ConvEpilogue ep;
                ep.out = got.data();
                ep.bias = v.bias ? bias.data() : nullptr;
                ep.residual = v.residual == 1   ? resid.data()
                              : v.residual == 2 ? got.data()
                                                : nullptr;
                ep.act = v.act;
                if (co != 0) {
                  ep.co = co;
                  ep.inner_act = v.inner;
                  ep.exp_w = ew.data();
                }
                be->conv(a.data(), k, xpad.data(), s, nullptr, 0, m, &ep);
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << be->name << " c=" << geo.c << " hw=" << geo.hw
                    << " s=" << geo.s << " m=" << m << " co=" << co
                    << " imgs=" << imgs << " bias=" << v.bias
                    << " act=" << act_name(v.act)
                    << " inner=" << act_name(v.inner)
                    << " residual=" << v.residual << " tile=" << tm.name
                    << " threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
  set_parallel_threads(0);
}

TEST(ConvEpilogue, Int8EntriesAgreeWithTheReferenceEpilogue) {
  // Every qconv entry with an epilogue — int8-vnni, int8-avx2, the generic
  // dispatcher and the unfold — equals its two-step computation, built
  // without any qconv entry: the scalar qgemm over the unfold of the
  // test's logical image bytes, then the reference epilogue. An expansion
  // multiplies the float conv result (after its inner activation; never
  // quantized) by the dequantized weights, summed as an fmaf chain in r
  // order from +0, so all entries agree bit for bit.
  std::vector<const kernels::KernelBackend*> cands{&kQconvUnfold};
  for (const std::string& name : kernels::backend_names()) {
    const kernels::KernelBackend* be = kernels::find_backend(name);
    if (be->quantized_datapath) cands.push_back(be);
  }
  const std::vector<TileMask> masks = tile_masks();
  Rng rng(73);
  for (const EpiCase& geo : kEpiGeos) {
    const ConvGeom g{geo.c, geo.hw, geo.hw, geo.k, geo.s, geo.pad};
    const size_t k = g.col_rows(), plane = g.col_cols();
    for (const auto& mc : kEpiRows) {
      const size_t m = mc[0], co = mc[1], rows = co != 0 ? co : m;
      const auto a = random_i8(m * k, rng);
      const auto eq = random_i8(std::max<size_t>(co, 1) * m, rng);
      // The expansion's weights as a 1x1 step's qconv A holds them: rows
      // ceil(m/4)*4 apart, the pad lanes poisoned (no entry reads them).
      const size_t m4 = (m + 3) / 4 * 4;
      std::vector<int8_t> eq4(std::max<size_t>(co, 1) * m4, int8_t{-99});
      for (size_t o = 0; o < co; ++o)
        std::memcpy(eq4.data() + o * m4, eq.data() + o * m, m);
      std::vector<float> as(m), es(std::max<size_t>(co, 1)), bias(rows);
      for (size_t i = 0; i < m; ++i)
        as[i] = 0.01f + 0.002f * static_cast<float>(i);
      for (size_t o = 0; o < es.size(); ++o)
        es[o] = 0.005f + 0.001f * static_cast<float>(o);
      for (float& b : bias) b = static_cast<float>(rng.uniform(-0.5, 0.5));
      for (const size_t imgs : {1, 3}) {
        const kernels::ConvShape s = epi_shape(geo, imgs);
        const size_t n = s.n();
        const std::vector<int8_t> aq = qconv_a(a, m, s);
        // Logical int8 image bytes, borders included, and the u8
        // channel-quad images the entries read.
        std::vector<int8_t> xl(imgs * s.image_size());
        for (int8_t& q : xl)
          q = static_cast<int8_t>(static_cast<int>(rng.uniform(0.0, 255.0)) -
                                  127);
        const std::vector<uint8_t> xq = to_quads(xl.data(), s, 1);
        std::vector<float> bs(n);
        for (size_t j = 0; j < n; ++j)
          bs[j] = 0.02f + 0.01f * static_cast<float>(j / plane);
        kernels::QgemmParams p;
        p.a_scales = as.data();
        p.b_scales = bs.data();
        p.b_zp = -127;
        std::vector<float> resid(imgs * rows * plane);
        for (float& v : resid) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        std::vector<int8_t> col(k * n);
        kernels::detail::unfold_padded(xl.data(), s, col.data());
        std::vector<float> c(m * n);
        kernels::detail::qgemm_int8(a.data(), k, col.data(), n, c.data(), n,
                                    m, k, n, p);
        for (const EpiVariant& v : kEpiVariants) {
          std::vector<float> fin = c;
          if (co != 0) {
            kernels::detail::act_rows(v.inner, fin.data(), n, m, n);
            std::vector<float> e(co * n, 0.0f);
            for (size_t o = 0; o < co; ++o)
              for (size_t r = 0; r < m; ++r) {
                const float w = static_cast<float>(eq[o * m + r]) * es[o];
                for (size_t j = 0; j < n; ++j)
                  e[o * n + j] = std::fmaf(w, fin[r * n + j], e[o * n + j]);
              }
            fin = e;
          }
          std::vector<float> want(rows * n);
          ref_epilogue(fin, rows, imgs, plane, v.bias ? bias.data() : nullptr,
                       v.residual != 0 ? resid.data() : nullptr, v.act,
                       want.data());
          for (const kernels::KernelBackend* be : cands) {
            for (const TileMask& tm : masks) {
              const MaskScope scope(tm.mask);
              for (const int threads : {1, 3}) {
                set_parallel_threads(threads);
                std::vector<float> got =
                    v.residual == 2 ? resid : std::vector<float>(rows * n);
                kernels::ConvEpilogue ep;
                ep.out = got.data();
                ep.bias = v.bias ? bias.data() : nullptr;
                ep.residual = v.residual == 1   ? resid.data()
                              : v.residual == 2 ? got.data()
                                                : nullptr;
                ep.act = v.act;
                if (co != 0) {
                  ep.co = co;
                  ep.inner_act = v.inner;
                  ep.exp_qw = eq4.data();
                  ep.exp_scales = es.data();
                }
                be->qconv(aq.data(), s.qk(), xq.data(), s, nullptr, 0, m, p,
                          &ep);
                ASSERT_EQ(std::memcmp(want.data(), got.data(),
                                      want.size() * sizeof(float)),
                          0)
                    << be->name << " c=" << geo.c << " hw=" << geo.hw
                    << " s=" << geo.s << " m=" << m << " co=" << co
                    << " imgs=" << imgs << " bias=" << v.bias
                    << " act=" << act_name(v.act)
                    << " inner=" << act_name(v.inner)
                    << " residual=" << v.residual << " tile=" << tm.name
                    << " threads=" << threads;
              }
            }
          }
        }
      }
    }
  }
  set_parallel_threads(0);
}

TEST(ConvEpilogue, VectorStoreEqualsTheScalarStore) {
  // The epilogue store's vector body (detail::store_panel_vec, AVX2)
  // against the scalar store_panel, byte for byte, panel by panel: every activation, bias on and off, no
  // residual, a separate one, and out itself. The products hold NaN (both
  // signs), +-0, +-inf, a denormal and ordinary values; the residual and
  // bias hold +-0 and +-inf too (no NaN: with two NaN operands the
  // payload a sum keeps is the compiler's pick). Three images of a 5x5 map
  // make 75 columns: panels that straddle images and a last one 11 wide.
  using kernels::detail::StorePanelFn;
  const StorePanelFn vec = kernels::detail::store_panel_vec();
  if (vec == nullptr) GTEST_SKIP() << "no vector store body on this host";
  constexpr size_t kRows = 5, kImgs = 3, kPlane = 25, kN = kImgs * kPlane;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan,  -nan, 0.0f,  -0.0f,  inf,
                            -inf, 1e-41f, 1.5f, -2.25f, 0.75f};
  const float addends[] = {0.0f, -0.0f, inf, -inf, 0.5f, -1.75f, 3.0f};
  std::vector<float> c(kRows * kN), res(kImgs * kRows * kPlane),
      bias(kRows);
  for (size_t i = 0; i < c.size(); ++i) c[i] = specials[(i * 7) % 10];
  for (size_t i = 0; i < res.size(); ++i) res[i] = addends[(i * 3) % 7];
  for (size_t r = 0; r < kRows; ++r) bias[r] = addends[(r + 2) % 7];
  const auto store = [&](StorePanelFn fn, Act act, bool with_bias,
                         int residual) {
    std::vector<float> out =
        residual == 2 ? res : std::vector<float>(res.size(), 7.0f);
    kernels::ConvEpilogue ep;
    ep.out = out.data();
    ep.bias = with_bias ? bias.data() : nullptr;
    ep.residual = residual == 1   ? res.data()
                  : residual == 2 ? out.data()
                                  : nullptr;
    ep.act = act;
    for (size_t j0 = 0; j0 < kN; j0 += kernels::detail::kPanelCols)
      fn(ep, kRows, kPlane, c.data() + j0, kN, j0,
         std::min(kernels::detail::kPanelCols, kN - j0));
    return out;
  };
  for (const Act act : {Act::kNone, Act::kRelu, Act::kTanh, Act::kSigmoid})
    for (const bool with_bias : {false, true})
      for (const int residual : {0, 1, 2}) {
        const std::vector<float> want = store(
            &kernels::detail::store_panel, act, with_bias, residual);
        const std::vector<float> got = store(vec, act, with_bias, residual);
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(float)),
                  0)
            << "act=" << act_name(act) << " bias=" << with_bias
            << " residual=" << residual;
      }
}

TEST(PackedInt8, RoundTripWithinHalfStep) {
  Rng rng(29);
  Tensor t({5, 33});
  for (size_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-2.5, 2.5));
  for (const int bits : {8, 6, 4}) {
    const PackedInt8 q = quantize_tensor(t, bits);
    const int qmax = (1 << (bits - 1)) - 1;
    ASSERT_EQ(q.data.size(), t.numel());
    EXPECT_EQ(q.params.bits, bits);
    for (size_t i = 0; i < t.numel(); ++i) {
      EXPECT_LE(std::abs(static_cast<int>(q.data[i])), qmax);
      // Max-abs calibration never saturates, so every element sits within
      // half a grid step of its dequantized value.
      EXPECT_LE(std::fabs(t.at(i) - q.dequant(i)),
                0.5f * q.params.scale + 1e-6f)
          << "bits=" << bits << " i=" << i;
    }
  }
  EXPECT_THROW(quantize_tensor(t, 16), CheckError);
}

TEST(PackedInt8, ViewHelpers) {
  const float src[] = {-1.5f, 0.25f, 3.0f, -0.75f};
  EXPECT_FLOAT_EQ(max_abs_view(src, 4), 3.0f);
  EXPECT_FLOAT_EQ(max_abs_view(src, 0), 0.0f);
  QuantParams qp;
  qp.bits = 8;
  qp.scale = 3.0f / 127.0f;
  int8_t dst[4];
  quantize_view(src, 4, qp, dst);
  EXPECT_EQ(dst[2], 127);
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(static_cast<float>(dst[i]) * qp.scale, src[i],
                0.5f * qp.scale + 1e-6f);
}

TEST(Int8Backend, FloatGemmForwardsToBestFloatBackend) {
  Rng rng(31);
  const size_t m = 20, k = 24, n = 28;
  Tensor a = random2d(m, k, rng);
  Tensor b = random2d(k, n, rng);
  // The forward goes to simd when the allowed features admit it (an
  // ALF_CPU_DISABLE mask may not), to scalar otherwise.
  const kernels::KernelBackend* want =
      mask_admits("simd") ? kernels::simd_backend() : kernels::scalar_backend();
  const auto ref = run_gemm(want, a, false, b, false, m, k, n);
  const auto got =
      run_gemm(kernels::int8_backend(), a, false, b, false, m, k, n);
  EXPECT_EQ(std::memcmp(ref.data(), got.data(), ref.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace alf
