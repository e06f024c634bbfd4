#include "engine/plan_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <type_traits>

#include "core/check.hpp"
#include "kernels/backend.hpp"

namespace alf {

namespace {

using plan::FileHeader;
using plan::PlanIoError;
using plan::SectionRecord;
using plan::StepRecord;
using Code = plan::PlanIoError::Code;

// The CRCs are only well-defined if the records have no padding bytes and
// every field sits at its natural offset; any drift is a format change and
// must bump kFormatVersion, so make the compiler enforce the layout.
static_assert(sizeof(FileHeader) == 328, "blob format change: bump version");
static_assert(sizeof(StepRecord) == 176, "blob format change: bump version");
static_assert(sizeof(SectionRecord) == 64, "blob format change: bump version");
static_assert(std::has_unique_object_representations_v<FileHeader>);
static_assert(std::has_unique_object_representations_v<StepRecord>);
static_assert(std::has_unique_object_representations_v<SectionRecord>);

[[noreturn]] void io_fail(Code code, const std::string& what) {
  throw PlanIoError(code, what);
}

/// Munmap-on-scope-exit guard for the load path; release() hands the
/// mapping to the plan's WeightArena once validation succeeds.
struct Mapping {
  void* base = MAP_FAILED;
  size_t bytes = 0;

  ~Mapping() {
    if (base != MAP_FAILED) ::munmap(base, bytes);
  }

  void* release() {
    void* b = base;
    base = MAP_FAILED;
    return b;
  }
};

uint32_t plan_qbits(const Plan& p) {
  for (const Step& st : p.steps())
    if (st.quantized) return static_cast<uint32_t>(st.qbits);
  return 0;
}

void copy_name(char* dst, size_t cap, const std::string& src) {
  std::memset(dst, 0, cap);
  const size_t n = std::min(src.size(), cap - 1);
  std::memcpy(dst, src.data(), n);
}

}  // namespace

/// Serializer backdoor declared in plan.hpp: the only code that reads and
/// reconstructs Plan's private state outside Plan itself.
struct PlanIo {
  static void save(const Plan& p, const std::string& path);
  static std::shared_ptr<const Plan> load(const std::string& path);
};

void PlanIo::save(const Plan& p, const std::string& path) {
  const std::vector<Step>& steps = p.steps_;
  const std::vector<WeightSection>& sections = p.sections_;
  ALF_CHECK(p.backend_ != nullptr);
  // Every step record carries the backend name in a fixed field; a name
  // that does not fit would be cut, and the blob could not be loaded.
  const std::string backend = p.backend_->name;
  if (backend.size() >= sizeof(StepRecord::backend_name))
    io_fail(Code::kBackend,
            "kernel backend name '" + backend + "' is longer than " +
                std::to_string(sizeof(StepRecord::backend_name) - 1) +
                " characters; a blob cannot record it");

  // Meta region: step records, then the name blob, then section records.
  std::string names;
  std::vector<StepRecord> srecs(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    const Step& st = steps[i];
    StepRecord& r = srecs[i];
    std::memset(&r, 0, sizeof(r));
    r.kind = static_cast<uint32_t>(st.kind);
    r.act = static_cast<uint32_t>(st.act);
    r.in = st.in;
    r.out = st.out;
    r.in_sz = st.in_sz;
    r.out_sz = st.out_sz;
    r.g_in_c = st.geom.in_c;
    r.g_in_h = st.geom.in_h;
    r.g_in_w = st.geom.in_w;
    r.g_kernel = st.geom.kernel;
    r.g_stride = st.geom.stride;
    r.g_pad = st.geom.pad;
    r.out_c = st.out_c;
    r.window = st.window;
    r.in_features = st.in_features;
    r.out_features = st.out_features;
    r.name_off = names.size();
    r.name_len = st.name.size();
    names += st.name;
    r.qbits = st.qbits;
    r.quantized = st.quantized ? 1 : 0;
    r.in_nonneg = st.in_nonneg ? 1 : 0;
    // Reserved: every step runs on the plan backend, whose name each
    // record repeats; the tile fields stay 0.
    copy_name(r.backend_name, sizeof(r.backend_name), backend);
  }
  std::vector<SectionRecord> xrecs(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    const WeightSection& sec = sections[i];
    SectionRecord& r = xrecs[i];
    std::memset(&r, 0, sizeof(r));
    r.step = sec.step;
    r.field = static_cast<uint32_t>(sec.field);
    r.offset = sec.offset;
    r.bytes = sec.bytes;
    r.elem_size = sec.elem_size;
    r.rank = sec.rank;
    for (size_t d = 0; d < TensorView::kMaxRank; ++d) r.dims[d] = sec.dims[d];
    r.align = static_cast<uint32_t>(kWeightAlign);
    r.crc32 = plan::crc32(p.arena_.data() + sec.offset,
                          static_cast<size_t>(sec.bytes));
  }

  FileHeader hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  std::memcpy(hdr.magic, plan::kMagic, sizeof(hdr.magic));
  hdr.endian = plan::kEndianTag;
  hdr.version = plan::kFormatVersion;
  hdr.header_bytes = sizeof(FileHeader);
  hdr.panel_layout = kernels::kPanelLayoutVersion;
  copy_name(hdr.model_name, sizeof(hdr.model_name), p.name_);
  copy_name(hdr.backend_name, sizeof(hdr.backend_name), backend);
  hdr.cpu_features = p.backend_->required_features;
  hdr.quantized = p.quant_ ? 1 : 0;
  hdr.qbits = plan_qbits(p);
  hdr.batch = p.batch_;
  hdr.in_c = p.in_c_;
  hdr.in_h = p.in_h_;
  hdr.in_w = p.in_w_;
  hdr.classes = p.classes_;
  hdr.slots = p.slots_;
  hdr.slot_stride = p.slot_stride_;
  hdr.col_off = p.col_off_;
  hdr.col_sz = p.col_sz_;
  hdr.res_off = p.res_off_;
  hdr.res_sz = p.res_sz_;
  hdr.nchunks = p.nchunks_;
  hdr.qws_sz = p.qws_sz_;
  hdr.qbs_sz = p.qbs_sz_;
  hdr.weight_align = static_cast<uint32_t>(kWeightAlign);
  hdr.nsteps = static_cast<uint32_t>(steps.size());
  hdr.nsections = static_cast<uint32_t>(sections.size());
  hdr.steps_off = sizeof(FileHeader);
  hdr.names_off = hdr.steps_off + srecs.size() * sizeof(StepRecord);
  hdr.names_bytes = names.size();
  // The name blob has arbitrary length; pad so the section records sit at
  // their natural 8-byte alignment (the loader reads them in place).
  hdr.sections_off = (hdr.names_off + hdr.names_bytes + 7) & ~uint64_t{7};
  const uint64_t meta_end = hdr.sections_off + xrecs.size() * sizeof(SectionRecord);
  hdr.arena_off = (meta_end + plan::kBlobPageAlign - 1) &
                  ~uint64_t{plan::kBlobPageAlign - 1};
  hdr.arena_bytes = p.arena_.bytes();
  hdr.file_bytes = hdr.arena_off + hdr.arena_bytes;

  // Assemble the pre-arena image once so the CRCs cover exactly what is
  // written.
  std::vector<uint8_t> head(static_cast<size_t>(hdr.arena_off), 0);
  if (!srecs.empty())
    std::memcpy(head.data() + hdr.steps_off, srecs.data(),
                srecs.size() * sizeof(StepRecord));
  if (!names.empty())
    std::memcpy(head.data() + hdr.names_off, names.data(), names.size());
  if (!xrecs.empty())
    std::memcpy(head.data() + hdr.sections_off, xrecs.data(),
                xrecs.size() * sizeof(SectionRecord));
  hdr.meta_crc = plan::crc32(head.data() + sizeof(FileHeader),
                             head.size() - sizeof(FileHeader));
  hdr.header_crc = 0;
  hdr.header_crc = plan::crc32(&hdr, sizeof(hdr));
  std::memcpy(head.data(), &hdr, sizeof(hdr));

  // Temp sibling + rename: a concurrent loader sees the old blob or the
  // new one, never a prefix.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr)
    io_fail(Code::kOpen, "cannot create '" + tmp + "': " +
                             std::strerror(errno));
  const bool ok =
      std::fwrite(head.data(), 1, head.size(), f) == head.size() &&
      (hdr.arena_bytes == 0 ||
       std::fwrite(p.arena_.data(), 1, p.arena_.bytes(), f) ==
           p.arena_.bytes());
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    std::remove(tmp.c_str());
    io_fail(Code::kOpen, "short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    io_fail(Code::kOpen, "cannot rename '" + tmp + "' to '" + path + "': " +
                             std::strerror(errno));
  }
}

std::shared_ptr<const Plan> PlanIo::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    io_fail(Code::kOpen,
            "cannot open '" + path + "': " + std::strerror(errno));
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    io_fail(Code::kOpen, "cannot stat '" + path + "': " + std::strerror(err));
  }
  const size_t file_bytes = static_cast<size_t>(st.st_size);
  if (file_bytes < sizeof(FileHeader)) {
    ::close(fd);
    io_fail(Code::kTruncated, "'" + path + "' is " +
                                  std::to_string(file_bytes) +
                                  " bytes, smaller than the header");
  }
  // PROT_READ + MAP_PRIVATE: never written, so physically identical to
  // MAP_SHARED (one page-cache copy across processes) while a stray write
  // faults. See the header comment in plan_io.hpp.
  Mapping map;
  map.bytes = file_bytes;
  map.base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map.base == MAP_FAILED)
    io_fail(Code::kOpen, "cannot mmap '" + path + "': " +
                             std::strerror(errno));
  const uint8_t* blob = static_cast<const uint8_t*>(map.base);

  // --- Header validation (exact order documented in plan_io.hpp) ---------
  FileHeader hdr;
  std::memcpy(&hdr, blob, sizeof(hdr));
  if (std::memcmp(hdr.magic, plan::kMagic, sizeof(hdr.magic)) != 0)
    io_fail(Code::kBadMagic, "'" + path + "' is not a plan blob");
  if (hdr.endian != plan::kEndianTag)
    io_fail(Code::kBadHeader, "byte order differs from this host");
  if (hdr.header_bytes != sizeof(FileHeader))
    io_fail(Code::kBadHeader,
            "header size " + std::to_string(hdr.header_bytes) +
                " (this build expects " +
                std::to_string(sizeof(FileHeader)) + ")");
  if (hdr.version != plan::kFormatVersion)
    io_fail(Code::kBadVersion,
            "format version " + std::to_string(hdr.version) +
                " (this build reads version " +
                std::to_string(plan::kFormatVersion) + "); recompile the "
                "blob with alf_planc");
  FileHeader crc_check = hdr;
  crc_check.header_crc = 0;
  if (plan::crc32(&crc_check, sizeof(crc_check)) != hdr.header_crc)
    io_fail(Code::kBadCrc, "header checksum mismatch");
  if (hdr.file_bytes != file_bytes)
    io_fail(Code::kTruncated, "header claims " +
                                  std::to_string(hdr.file_bytes) +
                                  " bytes, file has " +
                                  std::to_string(file_bytes));
  if (hdr.panel_layout != kernels::kPanelLayoutVersion)
    io_fail(Code::kBadVersion,
            "packed-panel layout v" + std::to_string(hdr.panel_layout) +
                " (this build's kernels consume v" +
                std::to_string(kernels::kPanelLayoutVersion) + ")");
  if (hdr.weight_align != kWeightAlign)
    io_fail(Code::kBadVersion, "packing-geometry stamp disagrees with this "
                               "build (weight_align)");
  const uint64_t steps_bytes = uint64_t{hdr.nsteps} * sizeof(StepRecord);
  const uint64_t sections_bytes =
      uint64_t{hdr.nsections} * sizeof(SectionRecord);
  if (hdr.nsteps == 0 || hdr.steps_off != sizeof(FileHeader) ||
      hdr.names_off != hdr.steps_off + steps_bytes ||
      hdr.sections_off !=
          ((hdr.names_off + hdr.names_bytes + 7) & ~uint64_t{7}) ||
      hdr.sections_off + sections_bytes > hdr.arena_off ||
      hdr.arena_off % plan::kBlobPageAlign != 0 ||
      hdr.arena_off + hdr.arena_bytes != hdr.file_bytes)
    io_fail(Code::kBadHeader, "region offsets are inconsistent");
  if (plan::crc32(blob + sizeof(FileHeader),
                  static_cast<size_t>(hdr.arena_off) - sizeof(FileHeader)) !=
      hdr.meta_crc)
    io_fail(Code::kBadCrc, "step/section table checksum mismatch");

  // --- Step records -------------------------------------------------------
  std::vector<Step> steps(hdr.nsteps);
  const auto* srecs =
      reinterpret_cast<const StepRecord*>(blob + hdr.steps_off);
  const char* names = reinterpret_cast<const char*>(blob + hdr.names_off);
  for (size_t i = 0; i < steps.size(); ++i) {
    const StepRecord& r = srecs[i];
    Step& s = steps[i];
    if (r.kind > static_cast<uint32_t>(OpKind::kActivation))
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": unknown op kind");
    if (r.act > static_cast<uint32_t>(Act::kSigmoid))
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": unknown activation");
    if (r.name_off + r.name_len > hdr.names_bytes)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": name outside the name blob");
    if (r.shift_gemm != 0)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) +
                  ": selects the retired shift-GEMM strategy");
    if (r.chunk != 0)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) +
                  ": carries a retired per-step chunk-grid override");
    s.kind = static_cast<OpKind>(r.kind);
    s.act = static_cast<Act>(r.act);
    s.name.assign(names + r.name_off, static_cast<size_t>(r.name_len));
    s.in = r.in;
    s.out = r.out;
    s.in_sz = r.in_sz;
    s.out_sz = r.out_sz;
    s.geom = ConvGeom{r.g_in_c, r.g_in_h, r.g_in_w,
                      r.g_kernel, r.g_stride, r.g_pad};
    s.out_c = r.out_c;
    s.window = r.window;
    s.in_features = r.in_features;
    s.out_features = r.out_features;
    s.qbits = r.qbits;
    s.quantized = r.quantized != 0;
    s.in_nonneg = r.in_nonneg != 0;
    // Reserved fields: the record repeats the plan backend's name
    // (compared below, once the header's name is resolved) and carries no
    // tile.
    if (std::memchr(r.backend_name, 0, sizeof(r.backend_name)) == nullptr)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": unterminated backend name");
    if (r.tile_mc != 0 || r.tile_kc != 0 || r.tile_nc != 0)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": carries a retired tile choice");
  }

  // --- Section records: structural pass, then payload checksums ----------
  std::vector<WeightSection> sections(hdr.nsections);
  const auto* xrecs =
      reinterpret_cast<const SectionRecord*>(blob + hdr.sections_off);
  for (size_t i = 0; i < sections.size(); ++i) {
    const SectionRecord& r = xrecs[i];
    const std::string tag = "section " + std::to_string(i);
    if (r.step >= hdr.nsteps)
      io_fail(Code::kBadSection, tag + ": step index out of range");
    if (r.field >= kWeightFieldCount)
      io_fail(Code::kBadSection, tag + ": unknown weight field");
    if (r.elem_size != 1 && r.elem_size != sizeof(float))
      io_fail(Code::kBadSection, tag + ": unsupported element size");
    if (r.align != kWeightAlign || r.offset % kWeightAlign != 0)
      io_fail(Code::kBadSection, tag + ": misaligned section offset");
    if (r.offset + r.bytes > hdr.arena_bytes || r.offset + r.bytes < r.offset)
      io_fail(Code::kBadSection, tag + ": payload outside the arena");
    if (r.rank < 1 || r.rank > TensorView::kMaxRank)
      io_fail(Code::kBadSection, tag + ": rank outside [1, 3]");
    uint64_t numel = 1;
    for (uint32_t d = 0; d < r.rank; ++d) numel *= r.dims[d];
    if (numel * r.elem_size != r.bytes)
      io_fail(Code::kBadSection, tag + ": byte count disagrees with dims");
    WeightSection& sec = sections[i];
    sec.step = r.step;
    sec.field = static_cast<WeightField>(r.field);
    sec.offset = r.offset;
    sec.bytes = r.bytes;
    sec.elem_size = r.elem_size;
    sec.rank = r.rank;
    for (size_t d = 0; d < TensorView::kMaxRank; ++d) sec.dims[d] = r.dims[d];
  }
  const uint8_t* arena_base = blob + hdr.arena_off;
  for (size_t i = 0; i < sections.size(); ++i) {
    if (plan::crc32(arena_base + xrecs[i].offset,
                    static_cast<size_t>(xrecs[i].bytes)) != xrecs[i].crc32)
      io_fail(Code::kBadCrc,
              "section " + std::to_string(i) + " payload checksum mismatch");
  }

  // --- Host compatibility -------------------------------------------------
  if (std::memchr(hdr.backend_name, 0, sizeof(hdr.backend_name)) == nullptr ||
      std::memchr(hdr.model_name, 0, sizeof(hdr.model_name)) == nullptr)
    io_fail(Code::kBadHeader, "unterminated name field");
  const uint32_t missing = hdr.cpu_features & ~kernels::allowed_cpu_features();
  if (missing != 0)
    io_fail(Code::kCpuFeatures,
            std::string("blob was packed for CPU features this host lacks "
                        "(or has disabled): ") +
                kernels::cpu_feature_names(missing) + " — recompile with "
                "alf_planc on this host");
  const kernels::KernelBackend* backend =
      kernels::find_backend(hdr.backend_name);
  if (backend == nullptr)
    io_fail(Code::kBackend, std::string("kernel backend '") +
                                hdr.backend_name +
                                "' is not registered in this build");
  if ((hdr.quantized != 0) != backend->quantized_datapath)
    io_fail(Code::kBadHeader,
            "quantized flag disagrees with the stamped backend");
  for (size_t i = 0; i < steps.size(); ++i) {
    if (std::strcmp(srecs[i].backend_name, backend->name) != 0)
      io_fail(Code::kBadSection,
              "step " + std::to_string(i) + ": names kernel backend '" +
                  srecs[i].backend_name + "', not the plan's '" +
                  backend->name + "'");
    steps[i].be = backend;
  }

  // --- Assemble -----------------------------------------------------------
  std::shared_ptr<Plan> p(new Plan());
  p->name_ = hdr.model_name;
  p->backend_ = backend;
  p->quant_ = hdr.quantized != 0;
  p->batch_ = hdr.batch;
  p->in_c_ = hdr.in_c;
  p->in_h_ = hdr.in_h;
  p->in_w_ = hdr.in_w;
  p->classes_ = hdr.classes;
  p->slots_ = hdr.slots;
  p->slot_stride_ = hdr.slot_stride;
  p->col_off_ = hdr.col_off;
  p->col_sz_ = hdr.col_sz;
  p->res_off_ = hdr.res_off;
  p->res_sz_ = hdr.res_sz;
  p->nchunks_ = hdr.nchunks;
  p->qws_sz_ = hdr.qws_sz;
  p->qbs_sz_ = hdr.qbs_sz;
  p->steps_ = std::move(steps);
  p->sections_ = std::move(sections);
  p->arena_ = WeightArena::adopt_mapping(
      map.release(), file_bytes, static_cast<size_t>(hdr.arena_off),
      static_cast<size_t>(hdr.arena_bytes));
  Plan::bind_weight_views(p->steps_, p->sections_, p->arena_);
  // Folds are re-derived from the loaded steps, never read from the blob.
  p->derive_folds();
  // The full static validator runs on EVERY loaded plan (not only debug
  // builds): the blob passed checksums, but geometry could still lie.
  p->verify();
  return p;
}

namespace plan {

namespace {

/// IEEE 802.3 reflected CRC-32 table, built once.
const uint32_t* crc_table() {
  static uint32_t table[256];
  static const bool init = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return true;
  }();
  (void)init;
  return table;
}

}  // namespace

uint32_t crc32(const void* data, size_t n, uint32_t seed) {
  const uint32_t* table = crc_table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void restamp_header(void* blob, size_t bytes) {
  ALF_CHECK(bytes >= sizeof(FileHeader));
  FileHeader hdr;
  std::memcpy(&hdr, blob, sizeof(hdr));
  ALF_CHECK(hdr.arena_off >= sizeof(FileHeader) && hdr.arena_off <= bytes)
      << "restamp_header: arena_off outside the image";
  uint8_t* b = static_cast<uint8_t*>(blob);
  hdr.meta_crc = crc32(b + sizeof(FileHeader),
                       static_cast<size_t>(hdr.arena_off) - sizeof(FileHeader));
  hdr.header_crc = 0;
  hdr.header_crc = crc32(&hdr, sizeof(hdr));
  std::memcpy(blob, &hdr, sizeof(hdr));
}

void save(const Plan& plan, const std::string& path) {
  PlanIo::save(plan, path);
}

std::shared_ptr<const Plan> load(const std::string& path) {
  return PlanIo::load(path);
}

std::vector<std::pair<std::string, std::shared_ptr<const Plan>>> load_dir(
    const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    io_fail(Code::kOpen, "'" + dir + "' is not a readable directory");
  std::vector<std::string> paths;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".plan") paths.push_back(e.path().string());
  }
  if (ec) io_fail(Code::kOpen, "cannot list '" + dir + "': " + ec.message());
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, std::shared_ptr<const Plan>>> out;
  out.reserve(paths.size());
  for (const std::string& p : paths)
    out.emplace_back(fs::path(p).stem().string(), load(p));
  return out;
}

}  // namespace plan

}  // namespace alf
