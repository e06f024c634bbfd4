// Plan artifacts (engine/plan_io.hpp): round-trip bit-identity across
// every registered backend and thread count, typed rejection of hostile
// blobs (truncation, flipped bytes, forged headers, 64-bit extents that
// wrap), and the fork-twice smoke proving two processes serve
// bit-identical logits from one read-only mapped blob directory.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alf/alf_conv.hpp"
#include "core/check.hpp"
#include "core/parallel.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan.hpp"
#include "engine/plan_io.hpp"
#include "grad_check.hpp"
#include "kernels/backend.hpp"
#include "models/zoo.hpp"
#include "serve/model_server.hpp"

namespace alf {
namespace {

namespace fs = std::filesystem;
using plan::FileHeader;
using plan::PlanIoError;
using plan::SectionRecord;
using testing::random_input;

constexpr size_t kHw = 16;

/// Moves BatchNorm running statistics off their (0, 1) init so folding is
/// non-trivial (same warm-up the engine tests use).
void warm_bn(Sequential& model, size_t in_c, size_t hw, Rng& rng) {
  for (int pass = 0; pass < 3; ++pass) {
    Tensor x = random_input({4, in_c, hw, hw}, rng);
    model.forward(x, /*train=*/true);
  }
}

/// Unique scratch directory, recursively removed on scope exit.
struct TempDir {
  fs::path path;
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "alf_plan_io_XXXXXX").string();
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

/// Fresh compiled ResNet-20 (bw = 8) on the given backend, name stamped.
std::shared_ptr<const Plan> compile_fixture(const std::string& backend,
                                            const std::string& name,
                                            size_t batch = 4) {
  Rng rng(71);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  auto model = build_resnet20(mc, rng, standard_conv_maker(mc.init, &rng));
  warm_bn(*model, mc.in_channels, kHw, rng);
  return Plan::compile(*model, batch, mc.in_channels, kHw, kHw,
                       {.backend = backend, .bits = 8, .name = name});
}

std::vector<uint8_t> read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  EXPECT_TRUE(f.good()) << p;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f),
                              std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::vector<uint8_t>& bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good()) << p;
}

/// Asserts that loading `p` throws PlanIoError with exactly `code`.
void expect_load_rejects(const fs::path& p, PlanIoError::Code code,
                         const char* label) {
  try {
    plan::load(p.string());
    FAIL() << label << ": hostile blob was accepted";
  } catch (const PlanIoError& e) {
    EXPECT_EQ(static_cast<int>(e.code()), static_cast<int>(code))
        << label << ": wrong code, message: " << e.what();
  } catch (const std::exception& e) {
    FAIL() << label << ": wrong exception type: " << e.what();
  }
}

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

/// True when both plans fold the same steps into the same convs: folds are
/// never serialized, so load must re-derive the compiled table.
bool same_folds(const Plan& a, const Plan& b) {
  if (a.folds().size() != b.folds().size()) return false;
  for (size_t i = 0; i < a.folds().size(); ++i) {
    const StepFold& x = a.folds()[i];
    const StepFold& y = b.folds()[i];
    if (x.exp != y.exp || x.add != y.add || x.folded != y.folded) return false;
  }
  return true;
}

TEST(PlanIo, RoundTripBitIdenticalAcrossBackendsAndThreads) {
  // A blob is saved on every registered backend. One whose backend needs a
  // CPU feature the mask (ALF_CPU_DISABLE) takes away is refused at load
  // with kCpuFeatures, by design; every other one round-trips.
  TempDir td;
  Rng rng(73);
  const Tensor x = random_input({4, 3, kHw, kHw}, rng);
  size_t round_trips = 0;
  for (const std::string& be : kernels::backend_names()) {
    SCOPED_TRACE("backend=" + be);
    auto compiled = compile_fixture(be, "resnet20_" + be);
    const fs::path file = td.path / (be + ".plan");
    plan::save(*compiled, file.string());
    if ((compiled->backend()->required_features &
         ~kernels::allowed_cpu_features()) != 0) {
      expect_load_rejects(file, PlanIoError::Code::kCpuFeatures, be.c_str());
      continue;
    }
    ++round_trips;
    auto loaded = plan::load(file.string());

    // Load is mmap + fixup: the arena stays backed by the file mapping.
    EXPECT_TRUE(loaded->weight_arena().mapped());
    EXPECT_FALSE(compiled->weight_arena().mapped());
    EXPECT_EQ(loaded->name(), compiled->name());
    EXPECT_STREQ(loaded->backend_name(), compiled->backend_name());
    EXPECT_EQ(loaded->quantized(), compiled->quantized());
    EXPECT_EQ(loaded->batch(), compiled->batch());
    EXPECT_EQ(loaded->chunks(), compiled->chunks());
    EXPECT_EQ(loaded->workspace_floats(), compiled->workspace_floats());
    EXPECT_EQ(loaded->steps().size(), compiled->steps().size());
    EXPECT_NO_THROW(loaded->verify());
    EXPECT_TRUE(same_folds(*compiled, *loaded));

    // Every packed weight section is bit-exact — no re-quantize, no
    // re-pack, no re-fold happened on the load path.
    ASSERT_EQ(loaded->weight_sections().size(),
              compiled->weight_sections().size());
    for (size_t i = 0; i < compiled->weight_sections().size(); ++i) {
      const WeightSection& a = compiled->weight_sections()[i];
      const WeightSection& b = loaded->weight_sections()[i];
      ASSERT_EQ(a.step, b.step);
      ASSERT_EQ(static_cast<uint32_t>(a.field), static_cast<uint32_t>(b.field));
      ASSERT_EQ(a.offset, b.offset);
      ASSERT_EQ(a.bytes, b.bytes);
      EXPECT_EQ(std::memcmp(compiled->weight_arena().data() + a.offset,
                            loaded->weight_arena().data() + b.offset,
                            a.bytes),
                0)
          << "section " << i << " payload differs";
    }

    // Loaded plans produce bit-identical logits to the compiled original,
    // at every thread count.
    ExecContext ref_ctx(compiled);
    const Tensor ref = ref_ctx.run(x);
    for (const int threads : {1, 2, 4}) {
      set_parallel_threads(threads);
      ExecContext ctx(loaded);
      const Tensor got = ctx.run(x);
      EXPECT_TRUE(bits_equal(ref, got)) << "threads=" << threads;
    }
    set_parallel_threads(0);
  }
  EXPECT_GE(round_trips, size_t{2});  // scalar and int8 need no features
}

TEST(PlanIo, RoundTripEveryZooModelFloatAndInt8) {
  TempDir td;
  Rng rng(79);
  ModelConfig mc;
  mc.base_width = 8;
  mc.in_hw = kHw;
  struct Case {
    const char* name;
    std::unique_ptr<Sequential> model;
  };
  std::vector<Case> cases;
  cases.push_back({"plain20", build_plain20(
                                  mc, rng, standard_conv_maker(mc.init, &rng))});
  cases.push_back({"resnet20", build_resnet20(
                                   mc, rng, standard_conv_maker(mc.init, &rng))});
  cases.push_back({"resnet18", build_resnet18(
                                   mc, rng, standard_conv_maker(mc.init, &rng))});
  {
    // ALF blocks lower to code conv + 1x1 expansion pairs, which fold.
    std::vector<AlfConv*> blocks;
    cases.push_back({"alf_resnet20",
                     build_resnet20(mc, rng, make_alf_conv_maker(
                                                 AlfConfig{}, &rng, &blocks))});
    for (AlfConv* b : blocks)
      for (size_t i = 0; i < b->mask().numel(); i += 3) b->mask().at(i) = 0.0f;
  }
  const Tensor x = random_input({2, mc.in_channels, kHw, kHw}, rng);
  for (Case& c : cases) {
    warm_bn(*c.model, mc.in_channels, kHw, rng);
    for (const char* backend : {"", "int8"}) {
      SCOPED_TRACE(std::string(c.name) + " backend=" + backend);
      auto compiled =
          Plan::compile(*c.model, 2, mc.in_channels, kHw, kHw,
                        {.backend = backend, .bits = 8, .name = c.name});
      const fs::path file =
          td.path / (std::string(c.name) + (*backend ? "_int8" : "_f32") +
                     ".plan");
      plan::save(*compiled, file.string());
      auto loaded = plan::load(file.string());
      EXPECT_NO_THROW(loaded->verify());
      EXPECT_TRUE(same_folds(*compiled, *loaded));
      ExecContext a(compiled), b(loaded);
      EXPECT_TRUE(bits_equal(a.run(x), b.run(x)));
    }
  }
}

TEST(PlanIo, LoadDirReturnsStemsSorted) {
  TempDir td;
  auto f32 = compile_fixture("", "resnet20_f32");
  auto i8 = compile_fixture("int8", "resnet20_int8");
  plan::save(*i8, (td.path / "resnet20_int8.plan").string());
  plan::save(*f32, (td.path / "resnet20_f32.plan").string());
  // Non-plan files are ignored.
  write_file(td.path / "notes.txt", {'h', 'i'});

  auto models = plan::load_dir(td.path.string());
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].first, "resnet20_f32");
  EXPECT_EQ(models[1].first, "resnet20_int8");
  EXPECT_FALSE(models[0].second->quantized());
  EXPECT_TRUE(models[1].second->quantized());

  EXPECT_THROW(plan::load_dir((td.path / "nosuch").string()), PlanIoError);
}

// ---------------------------------------------------------------------------
// Hostile blobs
// ---------------------------------------------------------------------------

/// One saved scalar-backend blob all corruption cases copy from (the
/// mutations are per-case, so a single save suffices).
class PlanIoHostile : public ::testing::Test {
 protected:
  void SetUp() override {
    auto plan = compile_fixture("scalar", "hostile_fixture");
    source_ = td_.path / "source.plan";
    plan::save(*plan, source_.string());
    image_ = read_file(source_);
    ASSERT_GE(image_.size(), sizeof(FileHeader));
  }

  FileHeader* header() {
    return reinterpret_cast<FileHeader*>(image_.data());
  }

  /// Writes the (mutated) image under `name` and asserts load throws
  /// `code`. `restamp` re-seals meta/header CRCs so the corruption under
  /// test — not the tampering itself — is what the loader sees.
  void expect_rejects(const char* name, PlanIoError::Code code,
                      bool restamp) {
    if (restamp) plan::restamp_header(image_.data(), image_.size());
    const fs::path p = td_.path / name;
    write_file(p, image_);
    expect_load_rejects(p, code, name);
  }

  TempDir td_;
  fs::path source_;
  std::vector<uint8_t> image_;
};

TEST_F(PlanIoHostile, PristineBlobLoads) {
  EXPECT_NO_THROW(plan::load(source_.string()));
}

TEST_F(PlanIoHostile, RejectsTruncatedFile) {
  image_.resize(image_.size() - 7);
  expect_rejects("truncated.plan", PlanIoError::Code::kTruncated,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsHeaderShorterThanHeader) {
  image_.resize(sizeof(FileHeader) / 2);
  expect_rejects("stub.plan", PlanIoError::Code::kTruncated,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsBadMagic) {
  image_[0] ^= 0xFF;
  expect_rejects("magic.plan", PlanIoError::Code::kBadMagic,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsWrongFormatVersion) {
  // A later version, and a v2-shaped header (v2's 328-byte header): the
  // version sits in the 24 bytes every format shares and is checked
  // before the header size, so both are kBadVersion.
  const struct {
    uint32_t version, header_bytes;
  } cases[] = {{plan::kFormatVersion + 17, sizeof(FileHeader)}, {2, 328}};
  const std::vector<uint8_t> pristine = image_;
  for (const auto& c : cases) {
    SCOPED_TRACE("version " + std::to_string(c.version));
    image_ = pristine;
    header()->version = c.version;
    header()->header_bytes = c.header_bytes;
    expect_rejects("version.plan", PlanIoError::Code::kBadVersion,
                   /*restamp=*/true);
  }
}

TEST_F(PlanIoHostile, RejectsWrongPanelLayoutStamp) {
  // A later layout, the previous one, version 2 by name, which stored
  // int8 linear weights transposed ([in, out]), and version 3 by name,
  // which stored int8 A in (c, kh, kw) order where the kernels now read
  // (c/4, kh, kw, c%4) in place: the kernels would mis-read a blob of any
  // of them, so each is refused.
  const std::vector<uint8_t> pristine = image_;
  for (const uint32_t stamp : {kernels::kPanelLayoutVersion + 1,
                               kernels::kPanelLayoutVersion - 1, 2u, 3u}) {
    SCOPED_TRACE("panel layout " + std::to_string(stamp));
    image_ = pristine;
    header()->panel_layout = stamp;
    expect_rejects("panel.plan", PlanIoError::Code::kBadVersion,
                   /*restamp=*/true);
  }
}

TEST_F(PlanIoHostile, RejectsWrongGeometryStamp) {
  header()->weight_align = static_cast<uint32_t>(kWeightAlign) * 2;
  expect_rejects("geometry.plan", PlanIoError::Code::kBadVersion,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsTamperedHeaderWithoutRestamp) {
  // A header edit that is NOT re-sealed dies on the header CRC — the
  // first line of defense against bit rot in the header itself.
  header()->batch += 1;
  expect_rejects("header_crc.plan", PlanIoError::Code::kBadCrc,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsFlippedMetaByte) {
  // Flip one byte inside the step-record region: meta CRC mismatch.
  ASSERT_GT(header()->names_off, header()->steps_off);
  image_[header()->steps_off + 5] ^= 0x40;
  expect_rejects("meta_crc.plan", PlanIoError::Code::kBadCrc,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsFlippedArenaByte) {
  // Flip the last payload byte: the owning section's CRC mismatches.
  image_.back() ^= 0x01;
  expect_rejects("payload_crc.plan", PlanIoError::Code::kBadCrc,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsWrongCpuFeatureStamp) {
  // A feature bit no host advertises: the blob must be refused on this
  // machine even though every checksum is intact.
  header()->cpu_features |= 0x80000000u;
  expect_rejects("cpu.plan", PlanIoError::Code::kCpuFeatures,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsUnknownBackendStamp) {
  std::strncpy(header()->backend_name, "nosuch-backend",
               sizeof(header()->backend_name) - 1);
  expect_rejects("backend.plan", PlanIoError::Code::kBackend,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsMisalignedSectionOffset) {
  auto* sec = reinterpret_cast<SectionRecord*>(image_.data() +
                                               header()->sections_off);
  sec[0].offset += 1;  // no longer kWeightAlign-aligned
  expect_rejects("misaligned.plan", PlanIoError::Code::kBadSection,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsSectionOutsideArena) {
  auto* sec = reinterpret_cast<SectionRecord*>(image_.data() +
                                               header()->sections_off);
  sec[0].offset = header()->arena_bytes;  // aligned, but past the end
  expect_rejects("overflow.plan", PlanIoError::Code::kBadSection,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsBogusStepRecord) {
  auto* steps = reinterpret_cast<plan::StepRecord*>(image_.data() +
                                                    header()->steps_off);
  steps[0].kind = 250;  // past kActivation
  expect_rejects("step_kind.plan", PlanIoError::Code::kBadSection,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsArenaExtentWrappingToTheFileSize) {
  // arena_off 1 GiB past the end of the file, with arena_bytes chosen so
  // that arena_off + arena_bytes wraps to file_bytes. Only the header CRC
  // is re-sealed (restamp_header refuses an arena past the image); the
  // extent must be refused before the meta CRC reads up to arena_off.
  FileHeader* h = header();
  h->arena_off = (h->file_bytes + (uint64_t{1} << 30) + plan::kBlobPageAlign) &
                 ~(plan::kBlobPageAlign - 1);
  h->arena_bytes = h->file_bytes - h->arena_off;  // wraps
  h->header_crc = 0;
  h->header_crc = plan::crc32(h, sizeof(FileHeader));
  expect_rejects("arena_wrap.plan", PlanIoError::Code::kBadHeader,
                 /*restamp=*/false);
}

TEST_F(PlanIoHostile, RejectsNameRegionWrappingPastTheSections) {
  // names_bytes = 2^64 - 8 puts sections_off, by its own formula, 8 bytes
  // before the names; step 0's name then points 2^40 bytes in.
  FileHeader* h = header();
  h->names_bytes = ~uint64_t{0} - 7;
  h->sections_off = (h->names_off + h->names_bytes + 7) & ~uint64_t{7};
  auto* steps =
      reinterpret_cast<plan::StepRecord*>(image_.data() + h->steps_off);
  steps[0].name_off = uint64_t{1} << 40;
  expect_rejects("names_wrap.plan", PlanIoError::Code::kBadHeader,
                 /*restamp=*/true);
}

TEST_F(PlanIoHostile, RejectsStepNameWrappingIntoTheNameRegion) {
  // name_off + name_len wraps to 1: a 1 MiB name would be copied from
  // before the mapping, and a 64 GiB one would fail to allocate.
  const std::vector<uint8_t> pristine = image_;
  for (const int shift : {20, 36}) {
    SCOPED_TRACE("name_len 2^" + std::to_string(shift) + " + 1");
    image_ = pristine;
    auto* steps = reinterpret_cast<plan::StepRecord*>(image_.data() +
                                                      header()->steps_off);
    steps[0].name_off = 0 - (uint64_t{1} << shift);
    steps[0].name_len = (uint64_t{1} << shift) + 1;
    expect_rejects("name_wrap.plan", PlanIoError::Code::kBadSection,
                   /*restamp=*/true);
  }
}

TEST_F(PlanIoHostile, RejectsAnArenaWhoseSizeWraps) {
  // slots x slot_stride = 4 x 2^62 wraps 64 bits to 0: the context would
  // allocate no arena and the first run would write through it. verify
  // forms the product with overflow checks against kMaxPlanElements.
  header()->slots = 4;
  header()->slot_stride = uint64_t{1} << 62;
  plan::restamp_header(image_.data(), image_.size());
  const fs::path p = td_.path / "arena_size_wrap.plan";
  write_file(p, image_);
  EXPECT_THROW(plan::load(p.string()), PlanVerifyError);
}

/// Registers a copy of scalar whose name overflows the header's backend
/// field, compiles the fixture on it and saves it to `file`: 0 when save
/// throws PlanIoError(kBackend). Run in a child process, which
/// keeps the registration away from the tests that save a plan on every
/// registered backend.
int save_on_long_backend_name(const fs::path& file) {
  static const kernels::KernelBackend copy{
      .name = "scalar-reference-copy-with-a-long-name",
      .gemm = kernels::scalar_backend()->gemm,
      .qgemm = kernels::scalar_backend()->qgemm,
      .conv = kernels::scalar_backend()->conv};
  static_assert(sizeof("scalar-reference-copy-with-a-long-name") >
                sizeof(FileHeader::backend_name));
  kernels::register_backend(&copy);
  InlineExecutionGuard inline_only;
  auto p = compile_fixture(copy.name, "long_name");
  try {
    plan::save(*p, file.string());
  } catch (const PlanIoError& e) {
    return e.code() == PlanIoError::Code::kBackend ? 0 : 1;
  }
  return 1;
}

using PlanIoDeathTest = ::testing::Test;

TEST(PlanIoDeathTest, SaveRefusesABackendNameTheHeaderCannotHold) {
  // save must refuse before writing anything instead of cutting the name
  // into a blob no build can load.
  TempDir td;
  const fs::path file = td.path / "long_name.plan";
  EXPECT_EXIT(std::_Exit(save_on_long_backend_name(file)),
              ::testing::ExitedWithCode(0), "");
  EXPECT_TRUE(fs::is_empty(td.path)) << "save left a file behind";
}

TEST_F(PlanIoHostile, RejectsMissingFile) {
  expect_load_rejects(td_.path / "does_not_exist.plan",
                      PlanIoError::Code::kOpen, "missing");
}

// ---------------------------------------------------------------------------
// Multi-process page sharing
// ---------------------------------------------------------------------------

/// True when /proc/self/maps shows `needle` mapped read-only and private
/// ("r--p"): the blob pages can never be written by this process, and —
/// being a never-written private file mapping — are physically the shared
/// page-cache copy every loading process reads.
bool blob_mapped_read_only(const std::string& needle) {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  bool found = false;
  while (std::getline(maps, line)) {
    if (line.find(needle) == std::string::npos) continue;
    found = true;
    if (line.find(" r--p ") == std::string::npos) return false;
  }
  return found;
}

TEST(PlanIo, ForkedProcessesServeBitIdenticalLogitsFromOneBlobDir) {
  TempDir td;
  auto f32 = compile_fixture("", "resnet20_f32");
  auto i8 = compile_fixture("int8", "resnet20_int8");
  plan::save(*f32, (td.path / "resnet20_f32.plan").string());
  plan::save(*i8, (td.path / "resnet20_int8.plan").string());

  Rng rng(83);
  const Tensor x = random_input({4, 3, kHw, kHw}, rng);

  // Parent reference: run both plans from freshly loaded blobs.
  std::vector<Tensor> ref;
  for (auto& [stem, p] : plan::load_dir(td.path.string())) {
    ExecContext ctx(p);
    ref.push_back(ctx.run(x));
  }
  ASSERT_EQ(ref.size(), 2u);
  const size_t logit_floats = ref[0].numel();

  // Two children, each loading the same blob directory. Child protocol on
  // its pipe: one status byte (1 = blob mapped "r--p"), then the logits of
  // every model in load_dir order. No gtest in the child; _exit only.
  const int kids = 2;
  int fds[kids][2];
  pid_t pids[kids];
  for (int k = 0; k < kids; ++k) {
    ASSERT_EQ(pipe(fds[k]), 0);
    pids[k] = fork();
    ASSERT_GE(pids[k], 0);
    if (pids[k] == 0) {
      close(fds[k][0]);
      int rc = 0;
      try {
        // The parent's pool threads did not survive the fork; pin every
        // engine run inline on this (the only) thread.
        InlineExecutionGuard inline_only;
        auto models = plan::load_dir(td.path.string());
        uint8_t ok = blob_mapped_read_only("resnet20_f32.plan") &&
                             blob_mapped_read_only("resnet20_int8.plan")
                         ? 1
                         : 0;
        if (write(fds[k][1], &ok, 1) != 1) rc = 2;
        for (auto& [stem, p] : models) {
          ExecContext ctx(p);
          const Tensor out = ctx.run(x);
          const auto bytes =
              static_cast<ssize_t>(out.numel() * sizeof(float));
          if (write(fds[k][1], out.data(), bytes) != bytes) rc = 2;
        }
      } catch (...) {
        rc = 3;
      }
      close(fds[k][1]);
      _exit(rc);
    }
    close(fds[k][1]);
  }

  for (int k = 0; k < kids; ++k) {
    uint8_t ok = 0;
    ASSERT_EQ(read(fds[k][0], &ok, 1), 1) << "child " << k;
    EXPECT_EQ(ok, 1) << "child " << k << ": blob not mapped r--p";
    for (size_t m = 0; m < ref.size(); ++m) {
      std::vector<float> got(logit_floats);
      size_t off = 0;
      const size_t want = logit_floats * sizeof(float);
      while (off < want) {
        const ssize_t n = read(fds[k][0],
                               reinterpret_cast<char*>(got.data()) + off,
                               want - off);
        ASSERT_GT(n, 0) << "child " << k << " model " << m;
        off += static_cast<size_t>(n);
      }
      EXPECT_EQ(std::memcmp(got.data(), ref[m].data(), want), 0)
          << "child " << k << " model " << m << ": logits differ";
    }
    close(fds[k][0]);
    int status = 0;
    ASSERT_EQ(waitpid(pids[k], &status, 0), pids[k]);
    ASSERT_TRUE(WIFEXITED(status)) << "child " << k << " crashed";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "child " << k;
  }
}

// ---------------------------------------------------------------------------
// ModelServer integration (the serve --plan-dir path)
// ---------------------------------------------------------------------------

TEST(PlanIo, ModelServerRegistersFromBlobDirectory) {
  TempDir td;
  auto f32 = compile_fixture("", "resnet20_f32");
  auto i8 = compile_fixture("int8", "resnet20_int8");
  plan::save(*f32, (td.path / "resnet20_f32.plan").string());
  plan::save(*i8, (td.path / "resnet20_int8.plan").string());

  Rng rng(89);
  const Tensor x = random_input({2, 3, kHw, kHw}, rng);
  ExecContext ref_f(f32), ref_q(i8);
  const Tensor want_f = ref_f.run(x), want_q = ref_q.run(x);

  ModelServer server;
  const auto names = server.add_models_from_dir(td.path.string());
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "resnet20_f32");
  EXPECT_EQ(names[1], "resnet20_int8");
  server.start();
  const Tensor got_f = server.submit("resnet20_f32", x).get();
  const Tensor got_q = server.submit("resnet20_int8", x).get();
  server.stop();
  EXPECT_TRUE(bits_equal(want_f, got_f));
  EXPECT_TRUE(bits_equal(want_q, got_q));

  ModelServer empty;
  TempDir empty_dir;
  EXPECT_THROW(empty.add_models_from_dir(empty_dir.path.string()),
               CheckError);
}

}  // namespace
}  // namespace alf
