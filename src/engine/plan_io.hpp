// Compiled-plan artifacts: alf::plan::save/load.
//
// A Plan is the expensive half of deployment — BN folding, MSE-clipped
// per-channel quantization, panel packing. save() writes
// the finished Plan as ONE versioned little-endian blob whose weight arena
// sits page-aligned at the tail; load() is open + mmap + validate + view
// fixup. No re-quantize, no re-pack, no re-fold: cold start is bounded by
// checksum bandwidth, not compile work, and N processes loading the same
// blob share one page-cache copy of the weights.
//
// Blob layout (offsets in the header; all integers little-endian):
//
//   [0,          328)        FileHeader (fixed size, self-describing)
//   [steps_off,  ...)        nsteps x StepRecord (fixed 176 B each)
//   [names_off,  ...)        step-name string blob (StepRecord offsets)
//   ...pad to 8...
//   [sections_off, ...)      nsections x SectionRecord (fixed 64 B each,
//                            8-aligned so the loader reads them in place)
//   ...pad to 4096...
//   [arena_off,  arena_off + arena_bytes)   the weight arena, verbatim
//
// Integrity and compatibility are checked in this order, all before any
// kernel touches data: magic -> endianness/header size -> format version
// -> header CRC -> file size vs header -> packing-geometry stamps
// (kernels::kPanelLayoutVersion, kWeightAlign) -> region offsets -> meta
// CRC (steps + names + sections) -> per-record structural
// validation -> per-section payload CRCs -> CPU-feature mask vs this
// host -> backend liveness -> every step record naming that backend ->
// Plan::verify() on the assembled plan.
// Every rejection throws PlanIoError with a typed code.
//
// Mapping choice: PROT_READ + MAP_PRIVATE. A read-only private file
// mapping never copies-on-write (nothing ever writes), so it is
// physically equivalent to MAP_SHARED here — every process mapping the
// same blob reads the same page-cache pages — while guaranteeing at the
// VM level that a stray write faults instead of corrupting a blob other
// processes are serving from.
//
// Versioning policy: kFormatVersion bumps on ANY layout change (no
// in-place migration — blobs are cheap to regenerate with alf_planc);
// kernels::kPanelLayoutVersion bumps when a kernel changes its packed
// panel ABI, so stale blobs are rejected rather than mis-read. Panel
// layout v2 retired the shift-GEMM strategy without a format change: its
// header stamp became reserved (written 0), its step flag must be 0, and
// its weight-field code left the section table (renumbering the int8
// fields — safe, because a panel layout v1 blob fails the panel stamp
// before any record is read). The per-step algorithm choice (backend
// name and tile) was retired the same way: every step runs on the plan
// backend, so each record repeats that backend's name and zero tile
// fields, and load rejects anything else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/plan.hpp"

namespace alf::plan {

/// Typed error for every blob rejection path. code() tells a deployer
/// apart "file is damaged" (kTruncated/kBadCrc) from "file is from a
/// different build or machine" (kBadVersion/kCpuFeatures/kBackend).
class PlanIoError : public std::runtime_error {
 public:
  enum class Code {
    kOpen,         ///< open/stat/mmap/write syscall failure
    kTruncated,    ///< file shorter than the header claims
    kBadMagic,     ///< not a plan blob
    kBadVersion,   ///< format/panel-layout/geometry stamp mismatch
    kBadHeader,    ///< header fields structurally inconsistent
    kBadCrc,       ///< header/meta/section checksum mismatch
    kBadSection,   ///< step/section record structurally invalid
    kCpuFeatures,  ///< blob needs CPU features this host lacks
    kBackend,      ///< stamped kernel backend not in this registry (or, at
                   ///< save, a backend name too long to record)
  };

  PlanIoError(Code code, const std::string& what)
      : std::runtime_error("plan blob: " + what), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

constexpr char kMagic[8] = {'A', 'L', 'F', 'P', 'L', 'A', 'N', '\0'};
// v2: StepRecord grew a per-step algorithm choice (backend name, tile
// blocking, chunk override), all reserved now (see StepRecord). v1 blobs
// are rejected (reject-don't-migrate; blobs are cheap to regenerate with
// alf_planc).
constexpr uint32_t kFormatVersion = 2;
/// Arena file offset alignment: one page, so the mmap'd arena base meets
/// kArenaAlign without copying.
constexpr uint64_t kBlobPageAlign = 4096;
constexpr uint32_t kEndianTag = 0x01020304;  ///< read back as written only on
                                             ///< a same-endian host

/// On-disk header. A packed POD with no padding bytes (statically
/// asserted in plan_io.cpp) so the CRCs are well-defined; public —
/// together with restamp_header — so hostile-blob tests and tools can
/// forge headers without a private seam.
struct FileHeader {
  char magic[8];
  uint32_t endian;        ///< kEndianTag
  uint32_t version;       ///< kFormatVersion
  uint32_t header_bytes;  ///< sizeof(FileHeader)
  uint32_t panel_layout;  ///< kernels::kPanelLayoutVersion at save
  uint64_t file_bytes;    ///< total blob size
  char model_name[64];    ///< NUL-terminated, truncated if longer
  char backend_name[32];  ///< kernel backend the plan is pinned to
  uint32_t cpu_features;  ///< backend->required_features at save
  uint32_t quantized;
  uint32_t qbits;         ///< grid width of lowered steps (0 on float plans)
  uint32_t reserved1;     ///< 0 (was the shift-GEMM height stamp)
  uint64_t batch, in_c, in_h, in_w, classes;
  // Arena layout (Plan's ExecContext geometry, verbatim).
  uint64_t slots, slot_stride, col_off, col_sz, res_off, res_sz, nchunks,
      qws_sz, qbs_sz;
  uint32_t weight_align;  ///< kWeightAlign at save
  uint32_t nsteps;
  uint32_t nsections;
  uint32_t reserved0;
  uint64_t steps_off;
  uint64_t names_off;
  uint64_t names_bytes;
  uint64_t sections_off;
  uint64_t arena_off;    ///< page-aligned
  uint64_t arena_bytes;
  uint32_t meta_crc;     ///< crc32 over [header_bytes, arena_off)
  uint32_t header_crc;   ///< crc32 over this struct with header_crc = 0
};

/// One Step's metadata (weight payloads live in the section table).
struct StepRecord {
  uint32_t kind;
  uint32_t act;
  uint64_t in, out, in_sz, out_sz;
  uint64_t g_in_c, g_in_h, g_in_w, g_kernel, g_stride, g_pad;
  uint64_t out_c, window, in_features, out_features;
  uint64_t name_off;   ///< into the names region
  uint64_t name_len;
  int32_t qbits;
  uint8_t shift_gemm;  ///< retired strategy flag: 0, any other value rejected
  uint8_t quantized, in_nonneg, reserved0;
  // v2 reserved fields of the retired per-step algorithm choice. Every
  // step runs on the plan backend: save writes its name here
  // (NUL-terminated, so a backend name must be under 16 characters) and
  // zero tile and chunk fields, and load rejects any other name or a
  // nonzero field (every step runs on the plan's one chunk grid).
  char backend_name[16];
  uint32_t tile_mc, tile_kc, tile_nc, chunk;
};

/// One WeightSection plus the payload checksum.
struct SectionRecord {
  uint32_t step;
  uint32_t field;
  uint64_t offset;
  uint64_t bytes;
  uint32_t elem_size;
  uint32_t rank;
  uint64_t dims[3];
  uint32_t align;  ///< kWeightAlign the offsets were laid out under
  uint32_t crc32;  ///< payload checksum over [offset, offset + bytes)
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// stamped on every blob region. In-repo table implementation, no deps.
uint32_t crc32(const void* data, size_t n, uint32_t seed = 0);

/// Recomputes meta_crc and header_crc of an in-memory blob image (after a
/// test or tool mutates header/meta fields). Per-section payload CRCs are
/// left alone. `bytes` must cover at least the header.
void restamp_header(void* blob, size_t bytes);

/// Serializes `plan` to `path` (written to a temp sibling, then renamed,
/// so readers never see a half-written blob). Throws PlanIoError(kOpen)
/// on filesystem failure, and PlanIoError(kBackend), before writing
/// anything, when the plan backend's name does not fit a step record.
void save(const Plan& plan, const std::string& path);

/// Maps and validates a blob; returns the ready-to-run plan. The arena
/// stays backed by the read-only mapping for the plan's lifetime. Throws
/// PlanIoError (see Code) on any rejection; the assembled plan also runs
/// Plan::verify(), so a structurally valid blob with inconsistent
/// geometry throws PlanVerifyError.
std::shared_ptr<const Plan> load(const std::string& path);

/// Loads every "*.plan" file in `dir`, lexicographically; returns
/// (file stem, plan) pairs. Throws PlanIoError(kOpen) if `dir` is not a
/// readable directory, and propagates per-blob load errors.
std::vector<std::pair<std::string, std::shared_ptr<const Plan>>> load_dir(
    const std::string& dir);

}  // namespace alf::plan
