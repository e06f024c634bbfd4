// Per-shape autotuner (tune/): algo-cache lifecycle (round-trip through
// disk, stamp invalidation, typed corrupt-file rejection, concurrent
// warm-cache readers), bit-identity of cache-applied vs directly forced
// candidates, zero-measurement warm-cache compiles, and tuned-blob
// round-trips through plan save/load.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan.hpp"
#include "engine/plan_io.hpp"
#include "grad_check.hpp"
#include "kernels/backend.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tune/algo_cache.hpp"
#include "tune/tuner.hpp"

namespace alf {
namespace {

namespace fs = std::filesystem;
using testing::random_input;
using tune::AlgoCache;
using tune::TuneError;

/// Unique scratch directory, recursively removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "alf_tune_XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = mkdtemp(buf.data());
    EXPECT_NE(made, nullptr) << "mkdtemp: " << std::strerror(errno);
    path = made != nullptr ? fs::path(made) : fs::path();
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) fs::remove_all(path, ec);
  }
};

/// Tiny tunable model: two conv shapes (one stride 1, one strided) plus a
/// linear head — covers every TuneShape kind cheaply.
std::unique_ptr<Sequential> tiny_model(Rng& rng) {
  auto m = std::make_unique<Sequential>("tiny");
  m->emplace<Conv2d>("c1", 3, 6, 3, 1, 1, Init::kHe, rng);
  m->emplace<Activation>("c1_relu", Act::kRelu);
  m->emplace<Conv2d>("c2", 6, 8, 3, 2, 1, Init::kHe, rng);
  m->emplace<Flatten>("flatten");
  m->emplace<Linear>("fc", 8 * 6 * 6, 5, Init::kHe, rng);
  return m;
}

constexpr size_t kHw = 12;
constexpr size_t kBatch = 4;

std::shared_ptr<const Plan> compile_tiny(const EngineOptions& opts) {
  Rng rng(93);
  auto model = tiny_model(rng);
  return Plan::compile(*model, kBatch, 3, kHw, kHw, opts);
}

std::string read_text(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.good()) << p;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void write_text(const fs::path& p, const std::string& text) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(text.data(), static_cast<std::streamsize>(text.size()));
  ASSERT_TRUE(f.good()) << p;
}

/// Recomputes the trailing crc line after a test mutates cache text.
std::string restamp_cache(std::string text) {
  const size_t pos = text.rfind("crc 0x");
  EXPECT_NE(pos, std::string::npos);
  char line[24];
  std::snprintf(line, sizeof(line), "crc 0x%08x\n",
                plan::crc32(text.data(), pos));
  return text.substr(0, pos) + line;
}

TEST(Tune, ShapeKeyIsStableAndDistinct) {
  tune::TuneShape conv;
  conv.is_conv = true;
  conv.geom = ConvGeom{8, 16, 16, 3, 1, 1};
  conv.out_c = 8;
  conv.batch = 4;
  conv.chunks = 4;
  EXPECT_EQ(tune::shape_key(conv), "conv:c8:h16:w16:k3:s1:p1:o8:q0:nn0:b4:t4");
  tune::TuneShape lin;
  lin.is_conv = false;
  lin.in_features = 256;
  lin.out_features = 10;
  lin.in_nonneg = true;
  lin.batch = 4;
  EXPECT_EQ(tune::shape_key(lin), "linear:i256:o10:q0:nn1:b4");
  // Quantization widens the key: different grids must never share a entry.
  lin.quantized = true;
  lin.qbits = 6;
  EXPECT_EQ(tune::shape_key(lin), "linear:i256:o10:q6:nn1:b4");
}

TEST(Tune, CandidateEnumeration) {
  tune::TuneShape shape;
  shape.is_conv = true;
  shape.geom = ConvGeom{4, 12, 12, 3, 1, 1};
  shape.out_c = 6;
  shape.batch = 4;
  shape.chunks = 2;
  shape.plan_backend = "scalar";
  const auto cands = tune::candidates(shape);
  ASSERT_FALSE(cands.empty());
  // The heuristic default leads, so choose() can never regress it.
  EXPECT_TRUE(cands[0].backend.empty());
  EXPECT_TRUE(cands[0].tile.is_default());
  // Float convs vary the backend; tiles only where the conv still issues
  // a GEMM (a backend without a conv entry).
  size_t named = 0;
  bool has_tile = false;
  for (const AlgoChoice& c : cands) {
    has_tile |= !c.tile.is_default();
    if (c.backend.empty()) continue;
    ++named;
    const kernels::KernelBackend* be = kernels::find_backend(c.backend);
    ASSERT_NE(be, nullptr);
    EXPECT_FALSE(be->quantized_datapath);
    if (!c.tile.is_default()) {
      EXPECT_EQ(be->conv, nullptr) << c.backend << " gathers; nothing to tile";
      EXPECT_NE(be->gemm_tiled, nullptr) << c.backend;
    }
  }
  // Every usable float backend, plus scalar's tile variant.
  size_t float_backends = 0;
  for (const std::string& name : kernels::backend_names())
    if (!kernels::find_backend(name)->quantized_datapath &&
        (kernels::find_backend(name)->required_features &
         ~kernels::allowed_cpu_features()) == 0)
      ++float_backends;
  EXPECT_EQ(named, float_backends + 1);
  EXPECT_TRUE(has_tile);  // scalar has a tiled GEMM and no conv entry

  // Quantized shapes only offer quantized backends, never a tile.
  shape.quantized = true;
  shape.qbits = 8;
  shape.plan_backend = "int8";
  for (const AlgoChoice& c : tune::candidates(shape)) {
    EXPECT_TRUE(c.tile.is_default());
    if (!c.backend.empty()) {
      const kernels::KernelBackend* be = kernels::find_backend(c.backend);
      ASSERT_NE(be, nullptr);
      EXPECT_TRUE(be->quantized_datapath);
    }
  }
}

TEST(Tune, CacheRoundTripReplaysIdenticalChoicesWithZeroMeasurements) {
  TempDir td;
  const std::string cpath = (td.path / "algo.cache").string();
  tune::set_reps(1);

  EngineOptions opts;
  opts.tune = TuneMode::kCached;
  opts.algo_cache = cpath;
  const auto before = tune::stats();
  auto p1 = compile_tiny(opts);
  const auto after_cold = tune::stats();
  EXPECT_GT(after_cold.measure_runs, before.measure_runs)
      << "cold cache must microbenchmark";
  ASSERT_TRUE(fs::exists(cpath)) << "tuning must persist the cache";

  // Drop the in-memory state and replay from disk: identical choices,
  // ZERO measurement runs (the acceptance counter).
  tune::cache_for(cpath).reload();
  auto p2 = compile_tiny(opts);
  const auto after_warm = tune::stats();
  EXPECT_EQ(after_warm.measure_runs, after_cold.measure_runs)
      << "warm-cache compile must not microbenchmark";
  EXPECT_GT(after_warm.cache_hits, after_cold.cache_hits);
  EXPECT_EQ(p1->str(), p2->str());

  // The replayed plan runs and matches the first compile bit for bit.
  Rng rng(11);
  Tensor x = random_input({kBatch, 3, kHw, kHw}, rng);
  ExecContext c1(p1), c2(p2);
  Tensor o1 = c1.run(x), o2 = c2.run(x);
  ASSERT_EQ(o1.numel(), o2.numel());
  EXPECT_EQ(std::memcmp(o1.data(), o2.data(), o1.numel() * sizeof(float)), 0);
  for (size_t i = 0; i < o1.numel(); ++i) EXPECT_TRUE(std::isfinite(o1.at(i)));
  tune::set_reps(3);
}

TEST(Tune, CpuFeatureMaskInvalidatesEntries) {
  if (kernels::detected_cpu_features() == 0)
    GTEST_SKIP() << "host has no maskable CPU features";
  TempDir td;
  AlgoCache cache((td.path / "algo.cache").string());
  AlgoChoice c;
  c.backend = "scalar";
  cache.insert("conv:test", c, 1.0);
  AlgoChoice out;
  EXPECT_TRUE(cache.lookup("conv:test", &out));
  // Narrow the feature mask: the host stamp changes, so every decision
  // taken under the old mask is invalid (a tuned backend may no longer be
  // selectable, and relative speeds shifted).
  kernels::set_cpu_feature_mask(0);
  EXPECT_FALSE(cache.lookup("conv:test", &out));
  EXPECT_EQ(cache.size(), size_t{0});
  kernels::set_cpu_feature_mask(~0u);
}

TEST(Tune, StaleGeometryStampDiscardsEntriesWithoutError) {
  TempDir td;
  const std::string cpath = (td.path / "algo.cache").string();
  {
    AlgoCache cache(cpath);
    AlgoChoice c;
    c.tile = {64, 256, 256};
    cache.insert("conv:stale", c, 2.5);
    cache.save();
  }
  // Forge a different packing geometry (as if kPanelLayoutVersion bumped):
  // structurally valid file, wrong host. Entries are discarded, not
  // migrated, and no error is raised — not even for an entry in another
  // layout's grammar (panel layout v1 entries carried a strategy column).
  const std::string saved = read_text(cpath);
  std::string text = saved;
  const size_t pos = text.find("geom panel=");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::strlen("geom panel="), "geom panel=99");
  const size_t crc = text.rfind("crc 0x");
  ASSERT_NE(crc, std::string::npos);
  text.insert(crc, "entry conv:v1 2 - 64 256 256 0 2.5\n");
  write_text(cpath, restamp_cache(text));
  AlgoCache stale(cpath);
  AlgoChoice out;
  EXPECT_FALSE(stale.lookup("conv:stale", &out));
  EXPECT_EQ(stale.size(), size_t{0});

  // A file from before the per-step chunk override was retired: this
  // host's cpu/geom/backends stamp, no `choice` line, and entries with a
  // chunk column — here a chunk-1 override. Stale, never applied, and
  // never a TuneError.
  std::string parent = saved;
  const size_t choice = parent.find("choice ");
  ASSERT_NE(choice, std::string::npos);
  parent.erase(choice, parent.find('\n', choice) + 1 - choice);
  const size_t entry = parent.find("entry conv:stale ");
  ASSERT_NE(entry, std::string::npos);
  parent.replace(entry, parent.find('\n', entry) - entry,
                 "entry conv:stale - 0 0 0 1 2.5");
  write_text(cpath, restamp_cache(parent));
  AlgoCache old_format(cpath);
  EXPECT_FALSE(old_format.lookup("conv:stale", &out));
  EXPECT_EQ(old_format.size(), size_t{0});
}

TEST(Tune, CorruptCacheFilesRejectedWithTypedErrors) {
  TempDir td;
  const std::string cpath = (td.path / "algo.cache").string();
  const auto fresh = [&] {
    AlgoCache cache(cpath);
    AlgoChoice c;
    cache.insert("conv:x", c, 1.0);
    cache.save();
    return read_text(cpath);
  };
  const auto expect_code = [&](const std::string& text, TuneError::Code want) {
    write_text(cpath, text);
    AlgoCache cache(cpath);
    try {
      cache.size();
      FAIL() << "corrupt cache accepted";
    } catch (const TuneError& e) {
      EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(want))
          << e.what();
    }
  };
  const std::string good = fresh();

  std::string bad_magic = good;
  bad_magic.replace(0, 7, "BOGUSXX");
  expect_code(restamp_cache(bad_magic), TuneError::Code::kBadMagic);

  std::string bad_version = good;
  bad_version.replace(8, 1, "9");
  expect_code(restamp_cache(bad_version), TuneError::Code::kBadVersion);

  std::string bad_crc = good;
  bad_crc[bad_crc.find("entry")] ^= 1;  // flip a byte, keep the old crc
  expect_code(bad_crc, TuneError::Code::kBadCrc);

  expect_code(good.substr(0, good.size() / 2),  // no trailing crc line
              TuneError::Code::kBadCrc);

  std::string bad_line = good;
  bad_line.insert(bad_line.find("entry"), "mystery line\n");
  expect_code(restamp_cache(bad_line), TuneError::Code::kParse);

  std::string bad_entry = good;
  const size_t ep = bad_entry.find("entry conv:x");
  bad_entry.replace(ep, std::strlen("entry conv:x"), "entry conv:x broken");
  expect_code(restamp_cache(bad_entry), TuneError::Code::kParse);
}

TEST(Tune, ConcurrentReadersShareOneWarmCache) {
  TempDir td;
  const std::string cpath = (td.path / "algo.cache").string();
  tune::set_reps(1);
  EngineOptions opts;
  opts.tune = TuneMode::kCached;
  opts.algo_cache = cpath;
  auto warm = compile_tiny(opts);  // populates the cache
  const auto before = tune::stats();

  // Two threads compile against the same warm cache concurrently — the
  // TSan leg proves the shared AlgoCache is race-free; both must be pure
  // replays (zero measurements) and agree with the warm plan.
  std::shared_ptr<const Plan> plans[2];
  std::thread t0([&] { plans[0] = compile_tiny(opts); });
  std::thread t1([&] { plans[1] = compile_tiny(opts); });
  t0.join();
  t1.join();
  const auto after = tune::stats();
  EXPECT_EQ(after.measure_runs, before.measure_runs);
  EXPECT_EQ(plans[0]->str(), warm->str());
  EXPECT_EQ(plans[1]->str(), warm->str());
  tune::set_reps(3);
}

TEST(Tune, CacheAppliedChoiceBitIdenticalToForcedChoice) {
  // For EVERY candidate of a representative conv shape: compiling with the
  // choice delivered through the cache must produce output bit-identical
  // to compiling with the choice forced directly — the cache is a pure
  // transport, never a semantic layer.
  Rng rng(29);
  auto model = std::make_unique<Sequential>("probe");
  model->emplace<Conv2d>("conv", 4, 6, 3, 1, 1, Init::kHe, rng);
  const size_t batch = 4, hw = 12;
  Tensor x = random_input({batch, 4, hw, hw}, rng);

  tune::TuneShape shape;
  shape.is_conv = true;
  shape.geom = ConvGeom{4, hw, hw, 3, 1, 1};
  shape.out_c = 6;
  shape.batch = batch;
  shape.chunks = std::min<size_t>(
      batch, static_cast<size_t>(std::max(1, parallel_threads())));
  shape.plan_backend = kernels::default_backend()->name;

  TempDir td;
  size_t idx = 0;
  for (const AlgoChoice& cand : tune::candidates(shape)) {
    EngineOptions forced;
    forced.force_choices = {cand};
    auto pf = Plan::compile(*model, batch, 4, hw, hw, forced);

    const std::string cpath =
        (td.path / ("cand" + std::to_string(idx++) + ".cache")).string();
    AlgoCache& cache = tune::cache_for(cpath);
    cache.insert(tune::shape_key(shape), cand, 1.0);
    EngineOptions cached;
    cached.tune = TuneMode::kCached;
    cached.algo_cache = cpath;
    const auto before = tune::stats();
    auto pc = Plan::compile(*model, batch, 4, hw, hw, cached);
    EXPECT_EQ(tune::stats().measure_runs, before.measure_runs);

    EXPECT_EQ(pf->str(), pc->str());
    ExecContext cf(pf), cc(pc);
    Tensor of = cf.run(x), oc = cc.run(x);
    ASSERT_EQ(of.numel(), oc.numel());
    EXPECT_EQ(std::memcmp(of.data(), oc.data(), of.numel() * sizeof(float)),
              0)
        << "candidate " << idx - 1 << " diverges between forced and cached";
    for (size_t i = 0; i < of.numel(); ++i)
      ASSERT_TRUE(std::isfinite(of.at(i)));
  }
}

TEST(Tune, TunedChoicesSurviveBlobSaveLoad) {
  // A plan carrying explicit non-default choices (named backend, tile)
  // round-trips through the v2 blob: identical dump, bit-identical output,
  // zero re-tuning at load.
  TempDir td;
  AlgoChoice ch;
  ch.backend = "scalar";
  ch.tile = {0, 256, 256};
  EngineOptions opts;
  opts.backend = "scalar";
  opts.name = "tuned";
  opts.force_choices = {ch};
  auto p1 = compile_tiny(opts);

  const std::string bpath = (td.path / "tuned.plan").string();
  const auto before = tune::stats();
  plan::save(*p1, bpath);
  auto p2 = plan::load(bpath);
  EXPECT_EQ(tune::stats().measure_runs, before.measure_runs)
      << "blob load must replay, never re-tune";
  EXPECT_EQ(p1->str(), p2->str());
  // The loaded steps carry the exact choice.
  bool saw_choice = false;
  for (const Step& st : p2->steps()) {
    if (st.kind != OpKind::kConv) continue;
    ASSERT_NE(st.be, nullptr);
    EXPECT_STREQ(st.be->name, "scalar");
    EXPECT_EQ(st.tile.kc, 256u);
    saw_choice = true;
  }
  EXPECT_TRUE(saw_choice);

  Rng rng(17);
  Tensor x = random_input({kBatch, 3, kHw, kHw}, rng);
  ExecContext c1(p1), c2(p2);
  Tensor o1 = c1.run(x), o2 = c2.run(x);
  EXPECT_EQ(std::memcmp(o1.data(), o2.data(), o1.numel() * sizeof(float)), 0);
}

TEST(Tune, PlanDumpShowsFullChoice) {
  AlgoChoice ch;
  ch.backend = "scalar";
  ch.tile = {0, 128, 512};
  EngineOptions opts;
  opts.force_choices = {ch};
  auto p = compile_tiny(opts);
  const std::string dump = p->str();
  // Path, backend and tile are all visible per step.
  EXPECT_NE(dump.find("im2col"), std::string::npos);
  EXPECT_NE(dump.find("tile=0x128x512"), std::string::npos);
  if (kernels::default_backend() != kernels::find_backend("scalar")) {
    EXPECT_NE(dump.find("be=scalar"), std::string::npos);
  }
}

}  // namespace
}  // namespace alf
