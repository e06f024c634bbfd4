// AlgoCache: the persistent per-shape algorithm cache behind the tuner.
//
// The tuner (tune/tuner.hpp) measures candidate (backend, tile) choices
// per distinct conv/linear shape; this cache is where the
// winners live between processes, so a shape is measured once per machine
// and every later Plan::compile replays the decision with zero
// microbenchmark runs.
//
// On-disk format: a small line-oriented text file —
//
//   ALFALGO 1
//   cpu 0x<allowed-feature-mask>
//   geom panel=<kPanelLayoutVersion> align=<kWeightAlign>
//   backends <sorted,comma,joined,registry names>
//   choice backend,tile
//   entry <shape-key> <backend|-> <mc> <kc> <nc> <best_ms>
//   ...
//   crc 0x<crc32 of everything above>
//
// Validity policy mirrors PlanIoError's reject-don't-migrate stance:
//   - A damaged file (bad magic/version/crc, malformed line) throws a
//     typed TuneError — never a silent partial read.
//   - A *stale* file (stamp lines disagree with this host's CPU-feature
//     mask, packing geometry, backend set, or the choice dimensions an
//     entry carries) is structurally fine but its decisions are
//     meaningless here: every entry is discarded unread (the entry grammar
//     may differ under another stamp) and the shapes re-measured. Nothing
//     is migrated. Files from before the per-step chunk override was
//     retired lack the `choice` line, so their entries (which carried a
//     chunk column) are dropped this way.
//
// The stamps are also enforced per lookup against the LIVE process state,
// so narrowing the feature mask mid-process (set_cpu_feature_mask, the
// test seam) invalidates in-memory entries exactly like on-disk ones.
//
// Concurrency: one AlgoCache instance per resolved path (cache_for), all
// state behind one mutex; concurrent Plan::compile calls share the
// instance. Saves go through a temp sibling + rename, so a concurrent
// reader sees the old file or the new one, never a prefix.
#pragma once

#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "engine/plan.hpp"

namespace alf::tune {

/// Typed error for every corrupt-cache rejection path (stale caches are
/// not errors — they simply re-tune).
class TuneError : public std::runtime_error {
 public:
  enum class Code {
    kOpen,        ///< filesystem failure writing the cache
    kBadMagic,    ///< not an algo-cache file
    kBadVersion,  ///< format version this build does not read
    kBadCrc,      ///< content checksum mismatch
    kParse,       ///< stamp/entry line malformed
  };

  TuneError(Code code, const std::string& what)
      : std::runtime_error("algo cache: " + what), code_(code) {}

  Code code() const { return code_; }

 private:
  Code code_;
};

constexpr uint32_t kAlgoCacheVersion = 1;

/// Default cache file when neither EngineOptions::algo_cache nor the
/// ALF_ALGO_CACHE environment variable names one.
constexpr const char* kDefaultAlgoCachePath = ".alf_algo_cache";

/// One cached decision: the winning choice and its measured time.
struct AlgoEntry {
  AlgoChoice choice;
  double best_ms = 0.0;
};

class AlgoCache {
 public:
  /// Binds the cache to `path`. The file is read lazily on first use;
  /// a missing file is an empty cache, a corrupt one throws TuneError.
  explicit AlgoCache(std::string path);

  /// Cached decision for `key` under the CURRENT host stamps; false on
  /// miss (including "the whole file is stale for this host").
  bool lookup(const std::string& key, AlgoChoice* out);

  /// Records a decision measured under the current stamps. If the held
  /// entries were taken under different stamps they are discarded first
  /// (reject, don't migrate). Marks the cache dirty; call save().
  void insert(const std::string& key, const AlgoChoice& choice,
              double best_ms);

  /// Writes the cache file (temp + rename) if any insert happened since
  /// the last save. Throws TuneError(kOpen) on filesystem failure.
  void save();

  /// Drops the in-memory state so the next use re-reads the file — the
  /// test seam for proving decisions survive a round trip through disk.
  void reload();

  /// Entries currently valid for this host (loads if needed).
  size_t size();

  const std::string& path() const { return path_; }

 private:
  void ensure_loaded_locked();
  void parse_locked(const std::string& text);

  std::mutex mu_;
  std::string path_;
  std::unordered_map<std::string, AlgoEntry> entries_;
  std::string stamp_;  ///< host stamp the entries are valid under
  bool loaded_ = false;
  bool dirty_ = false;
};

/// The process-wide cache instance for `path` ("" resolves ALF_ALGO_CACHE,
/// then kDefaultAlgoCachePath). One instance per resolved path, created on
/// first use and kept for the process, so concurrent compiles against the
/// same file share one mutex and one in-memory map.
AlgoCache& cache_for(const std::string& path);

/// The stamp string of this host right now (feature mask + packing
/// geometry + backend set) — what lookups compare against. Exposed for
/// tests that forge stale cache files.
std::string host_stamp();

// --- Tuning counters -------------------------------------------------------
//
// Process-wide, monotonic, atomic. Tests assert "a warm-cache compile
// performs zero microbenchmark runs" on measure_runs; alf_planc prints
// them so CI can assert a 100% cache hit on the second run.

struct TuneStats {
  uint64_t measure_runs = 0;  ///< candidate measurements executed
  uint64_t cache_hits = 0;    ///< kCached lookups served from the cache
  uint64_t cache_misses = 0;  ///< kCached lookups that had to measure
};

TuneStats stats();
void reset_stats();

/// Internal: counter bumps (tuner.cpp).
void note_measure_run();
void note_cache_hit();
void note_cache_miss();

}  // namespace alf::tune
