#include "tune/algo_cache.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "engine/plan_io.hpp"
#include "kernels/backend.hpp"

namespace alf::tune {

namespace {

std::atomic<uint64_t> g_measure_runs{0};
std::atomic<uint64_t> g_cache_hits{0};
std::atomic<uint64_t> g_cache_misses{0};

std::string resolve_path(const std::string& path) {
  if (!path.empty()) return path;
  if (const char* env = std::getenv("ALF_ALGO_CACHE");
      env != nullptr && env[0] != '\0')
    return env;
  return kDefaultAlgoCachePath;
}

/// Serializes one AlgoChoice as the tail of an `entry` line. The backend
/// name "-" stands for "" (plan backend) so the line always has exactly
/// five fields after the key.
std::string format_choice(const AlgoChoice& c, double best_ms) {
  std::ostringstream os;
  os << (c.backend.empty() ? "-" : c.backend) << ' ' << c.tile.mc << ' '
     << c.tile.kc << ' ' << c.tile.nc << ' ' << best_ms;
  return os.str();
}

}  // namespace

std::string host_stamp() {
  std::ostringstream os;
  char cpu[16];
  std::snprintf(cpu, sizeof(cpu), "0x%08x", kernels::allowed_cpu_features());
  os << "cpu " << cpu << '\n';
  os << "geom panel=" << kernels::kPanelLayoutVersion
     << " align=" << kWeightAlign << '\n';
  // Sorted so the stamp is independent of registration order.
  std::vector<std::string> names = kernels::backend_names();
  std::sort(names.begin(), names.end());
  os << "backends ";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i != 0) os << ',';
    os << names[i];
  }
  os << '\n';
  // What an entry decides; a file whose entries carry other dimensions
  // (e.g. the retired per-step chunk grid) is stale, not corrupt.
  os << "choice backend,tile\n";
  return os.str();
}

AlgoCache::AlgoCache(std::string path) : path_(resolve_path(path)) {}

void AlgoCache::parse_locked(const std::string& text) {
  // The trailing "crc 0x........\n" line checks everything before it.
  const size_t crc_pos = text.rfind("crc 0x");
  if (crc_pos == std::string::npos || crc_pos + 15 > text.size())
    throw TuneError(TuneError::Code::kBadCrc, "missing crc line in " + path_);
  uint32_t stored = 0;
  if (std::sscanf(text.c_str() + crc_pos, "crc 0x%8x", &stored) != 1)
    throw TuneError(TuneError::Code::kBadCrc, "bad crc line in " + path_);
  const uint32_t actual = plan::crc32(text.data(), crc_pos);
  if (actual != stored)
    throw TuneError(TuneError::Code::kBadCrc, "checksum mismatch in " + path_);

  std::istringstream in(text.substr(0, crc_pos));
  std::string line;
  if (!std::getline(in, line))
    throw TuneError(TuneError::Code::kBadMagic, "empty file " + path_);
  std::istringstream magic(line);
  std::string word;
  uint32_t version = 0;
  if (!(magic >> word) || word != "ALFALGO")
    throw TuneError(TuneError::Code::kBadMagic, "not an algo cache: " + path_);
  if (!(magic >> version) || version != kAlgoCacheVersion)
    throw TuneError(TuneError::Code::kBadVersion,
                    "unsupported version in " + path_);

  // Stamp lines (cpu/geom/backends/choice), verbatim; the writer puts them
  // before every entry. A stamp that differs from this host's is NOT an
  // error — the entries just don't apply here, so they are discarded
  // unread (another packing geometry or choice set may also mean another
  // entry grammar).
  const std::string host = host_stamp();
  std::string file_stamp;
  std::map<std::string, AlgoEntry> parsed;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "cpu" || tag == "geom" || tag == "backends" ||
        tag == "choice") {
      file_stamp += line;
      file_stamp += '\n';
      continue;
    }
    if (tag != "entry")
      throw TuneError(TuneError::Code::kParse,
                      "unknown line '" + tag + "' in " + path_);
    if (file_stamp != host) break;
    std::string key, backend;
    uint32_t mc = 0, kc = 0, nc = 0;
    double ms = 0.0;
    if (!(ls >> key >> backend >> mc >> kc >> nc >> ms))
      throw TuneError(TuneError::Code::kParse, "bad entry line in " + path_);
    AlgoEntry e;
    e.choice.backend = backend == "-" ? std::string() : backend;
    e.choice.tile = {mc, kc, nc};
    e.best_ms = ms;
    parsed.emplace(std::move(key), std::move(e));
  }

  if (file_stamp == host) {
    stamp_ = file_stamp;
    entries_.insert(parsed.begin(), parsed.end());
  } else {
    // Stale for this host: discard, re-tune. Keep the current stamp so
    // fresh inserts are recorded under it.
    stamp_ = host;
  }
}

void AlgoCache::ensure_loaded_locked() {
  if (loaded_) return;
  loaded_ = true;
  stamp_ = host_stamp();
  std::ifstream in(path_, std::ios::binary);
  if (!in.is_open()) return;  // missing file == empty cache
  std::ostringstream buf;
  buf << in.rdbuf();
  parse_locked(buf.str());
}

bool AlgoCache::lookup(const std::string& key, AlgoChoice* out) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_loaded_locked();
  // Re-check against the live process state: set_cpu_feature_mask (or a
  // backend registration) after load invalidates held entries exactly like
  // a stale file would.
  if (stamp_ != host_stamp()) {
    entries_.clear();
    stamp_ = host_stamp();
  }
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  *out = it->second.choice;
  return true;
}

void AlgoCache::insert(const std::string& key, const AlgoChoice& choice,
                       double best_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_loaded_locked();
  if (stamp_ != host_stamp()) {
    entries_.clear();
    stamp_ = host_stamp();
  }
  entries_[key] = AlgoEntry{choice, best_ms};
  dirty_ = true;
}

void AlgoCache::save() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirty_) return;
  std::ostringstream os;
  os << "ALFALGO " << kAlgoCacheVersion << '\n';
  os << stamp_;
  // Sorted keys so rewrites of identical content are byte-identical.
  std::map<std::string, const AlgoEntry*> ordered;
  for (const auto& [k, e] : entries_) ordered.emplace(k, &e);
  for (const auto& [k, e] : ordered)
    os << "entry " << k << ' ' << format_choice(e->choice, e->best_ms)
       << '\n';
  std::string body = os.str();
  char crc_line[24];
  std::snprintf(crc_line, sizeof(crc_line), "crc 0x%08x\n",
                plan::crc32(body.data(), body.size()));
  body += crc_line;

  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open())
      throw TuneError(TuneError::Code::kOpen, "cannot write " + tmp);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out.good())
      throw TuneError(TuneError::Code::kOpen, "short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw TuneError(TuneError::Code::kOpen, "cannot rename onto " + path_);
  }
  dirty_ = false;
}

void AlgoCache::reload() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  stamp_.clear();
  loaded_ = false;
  dirty_ = false;
}

size_t AlgoCache::size() {
  std::lock_guard<std::mutex> lock(mu_);
  ensure_loaded_locked();
  if (stamp_ != host_stamp()) {
    entries_.clear();
    stamp_ = host_stamp();
  }
  return entries_.size();
}

AlgoCache& cache_for(const std::string& path) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<AlgoCache>>* registry =
      new std::map<std::string, std::unique_ptr<AlgoCache>>();
  const std::string resolved = resolve_path(path);
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*registry)[resolved];
  if (!slot) slot = std::make_unique<AlgoCache>(resolved);
  return *slot;
}

TuneStats stats() {
  return TuneStats{g_measure_runs.load(std::memory_order_relaxed),
                   g_cache_hits.load(std::memory_order_relaxed),
                   g_cache_misses.load(std::memory_order_relaxed)};
}

void reset_stats() {
  g_measure_runs.store(0, std::memory_order_relaxed);
  g_cache_hits.store(0, std::memory_order_relaxed);
  g_cache_misses.store(0, std::memory_order_relaxed);
}

void note_measure_run() {
  g_measure_runs.fetch_add(1, std::memory_order_relaxed);
}
void note_cache_hit() { g_cache_hits.fetch_add(1, std::memory_order_relaxed); }
void note_cache_miss() {
  g_cache_misses.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace alf::tune
