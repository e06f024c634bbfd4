#include "kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#endif

#include "core/check.hpp"
#include "kernels/internal.hpp"

namespace alf::kernels {

namespace {

struct FeatureName {
  const char* name;
  uint32_t bit;
};

constexpr FeatureName kFeatureNames[] = {
    {"avx2", kCpuAvx2},
    {"fma", kCpuFma},
    {"avxvnni", kCpuAvxVnni},
    {"avx512vnni", kCpuAvx512Vnni},
    {"avx512f", kCpuAvx512f},
};

uint32_t probe_cpu_features() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  uint32_t f = 0;
  if (__builtin_cpu_supports("avx2")) f |= kCpuAvx2;
  if (__builtin_cpu_supports("fma")) f |= kCpuFma;
  if (__builtin_cpu_supports("avx512vnni") && __builtin_cpu_supports("avx512vl"))
    f |= kCpuAvx512Vnni;
  if (__builtin_cpu_supports("avx512f")) f |= kCpuAvx512f;
  // VEX-encoded AVX-VNNI: cpuid leaf 7 subleaf 1, EAX bit 4. It only needs
  // YMM state, which a usable AVX2 already proves, so no extra xgetbv.
  if ((f & kCpuAvx2) != 0) {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_count(7, 1, &a, &b, &c, &d) != 0 && (a & (1u << 4)) != 0)
      f |= kCpuAvxVnni;
  }
  return f;
#else
  return 0;
#endif
}

/// Features struck out by $ALF_CPU_DISABLE (comma-separated names from
/// kFeatureNames). Parsed once; unknown names are ignored so a typo
/// degrades to "nothing disabled" rather than aborting startup.
uint32_t env_disabled_features() {
  static const uint32_t disabled = [] {
    uint32_t mask = 0;
    const char* env = std::getenv("ALF_CPU_DISABLE");
    if (env == nullptr) return mask;
    const char* p = env;
    while (*p != '\0') {
      const char* comma = std::strchr(p, ',');
      const size_t len = comma != nullptr ? static_cast<size_t>(comma - p)
                                          : std::strlen(p);
      for (const FeatureName& fn : kFeatureNames)
        if (std::strlen(fn.name) == len && std::strncmp(fn.name, p, len) == 0)
          mask |= fn.bit;
      p += len;
      if (*p == ',') ++p;
    }
    return mask;
  }();
  return disabled;
}

/// Test-seam cap over detection; ~0u = no cap.
std::atomic<uint32_t> g_feature_mask{~0u};

/// Throws CheckError unless `be` has every entry its datapath runs: both
/// GEMMs, and the conv entry the engine calls for every conv step (conv
/// on float backends, qconv on quantized ones).
void check_complete(const KernelBackend* be) {
  ALF_CHECK(be != nullptr && be->name != nullptr && be->gemm != nullptr &&
            be->qgemm != nullptr)
      << "register_backend: incomplete backend";
  if (be->quantized_datapath)
    ALF_CHECK(be->qconv != nullptr)
        << "register_backend: quantized backend '" << be->name
        << "' has no qconv entry";
  else
    ALF_CHECK(be->conv != nullptr)
        << "register_backend: float backend '" << be->name
        << "' has no conv entry";
}

struct Registry {
  std::mutex m;
  std::vector<const KernelBackend*> backends;

  Registry() {
    // Built-ins register eagerly so lookup order (and backend_names()) is
    // deterministic: scalar, simd, int8, then the ISA-specific int8
    // kernels. No static-initialization-order hazard — each factory owns
    // a function-local static. Registration is gated on the *detected*
    // CPU (the binary must be able to execute what it registers); the
    // feature mask only steers auto-selection.
    for (const KernelBackend* be :
         {scalar_backend(), simd_backend(), int8_backend(),
          int8_avx2_backend(), int8_vnni_backend()}) {
      if (be == nullptr) continue;
      check_complete(be);
      backends.push_back(be);
    }
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

// Cached default; nullptr = not yet resolved. set_default_backend() stores
// directly (or resets to nullptr for re-resolution).
std::atomic<const KernelBackend*> g_default{nullptr};

const KernelBackend* find_locked(Registry& r, const std::string& name) {
  // Reverse scan: later registrations shadow built-ins of the same name.
  for (auto it = r.backends.rbegin(); it != r.backends.rend(); ++it)
    if (name == (*it)->name) return *it;
  return nullptr;
}

/// True when every feature `be` needs is currently allowed.
bool mask_allows(const KernelBackend* be) {
  return (be->required_features & ~allowed_cpu_features()) == 0;
}

const KernelBackend* resolve_default() {
  const char* env = std::getenv("ALF_BACKEND");
  if (env != nullptr && env[0] != '\0') {
    const KernelBackend* be = find_backend(env);
    ALF_CHECK(be != nullptr)
        << "ALF_BACKEND=" << env << ": unknown kernel backend";
    return be;
  }
  const KernelBackend* simd = find_backend("simd");
  return simd != nullptr && mask_allows(simd) ? simd : scalar_backend();
}

}  // namespace

uint32_t detected_cpu_features() {
  static const uint32_t detected = probe_cpu_features();
  return detected;
}

uint32_t allowed_cpu_features() {
  return detected_cpu_features() & ~env_disabled_features() &
         g_feature_mask.load(std::memory_order_acquire);
}

void set_cpu_feature_mask(uint32_t mask) {
  g_feature_mask.store(mask, std::memory_order_release);
  // Every cached selection was made under the old mask: drop the process
  // default back to auto-resolution and flush the int8 kernel pick.
  g_default.store(nullptr, std::memory_order_release);
  detail::reset_int8_dispatch_cache();
}

std::string cpu_feature_names(uint32_t features) {
  std::string out;
  for (const FeatureName& fn : kFeatureNames) {
    if ((features & fn.bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += fn.name;
  }
  return out;
}

void register_backend(const KernelBackend* backend) {
  check_complete(backend);
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.m);
  r.backends.push_back(backend);
}

const KernelBackend* find_backend(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.m);
  return find_locked(r, name);
}

std::vector<std::string> backend_names() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.m);
  std::vector<std::string> names;
  names.reserve(r.backends.size());
  for (const KernelBackend* be : r.backends) names.emplace_back(be->name);
  return names;
}

const KernelBackend* default_backend() {
  const KernelBackend* be = g_default.load(std::memory_order_acquire);
  if (be != nullptr) return be;
  be = resolve_default();
  g_default.store(be, std::memory_order_release);
  return be;
}

void set_default_backend(const std::string& name) {
  if (name.empty()) {
    g_default.store(nullptr, std::memory_order_release);
    return;
  }
  const KernelBackend* be = find_backend(name);
  ALF_CHECK(be != nullptr) << "set_default_backend: unknown backend '" << name
                           << "'";
  g_default.store(be, std::memory_order_release);
}

void pad_f32(const float* src, size_t planes, size_t h, size_t w, size_t pad,
             float* dst) {
  detail::pad_planes(src, planes, h, w, pad, 0.0f, dst,
                     [](const float* s, float* d, size_t n) {
                       std::memcpy(d, s, n * sizeof(float));
                     });
}

const KernelBackend* best_quantized_backend() {
  for (const char* name : {"int8-vnni", "int8-avx2"}) {
    const KernelBackend* be = find_backend(name);
    if (be != nullptr && mask_allows(be)) return be;
  }
  return int8_backend();
}

}  // namespace alf::kernels
