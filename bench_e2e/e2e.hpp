// Shared pieces of the end-to-end benchmark: the fixture (four compiled
// ResNet-20 blobs at the paper's CIFAR geometry, seeded image pools and
// their reference logits), statistics that count failures as +inf, the
// open-loop arrival schedule, the in-memory span tracer, and the result
// record every workload fills.
//
// The benchmark only ever calls the system through its public surface:
// Plan::compile / plan::save / plan::load, ExecContext::run_rows,
// ModelServer::submit, WireClient, and the alf_served daemon.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/plan.hpp"

namespace alf::e2e {

using Clock = std::chrono::steady_clock;
constexpr double kInf = std::numeric_limits<double>::infinity();

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- Fixture -----------------------------------------------------------------

constexpr size_t kBatch = 32;        ///< compiled batch of every blob
constexpr size_t kHw = 32;           ///< CIFAR input geometry
constexpr size_t kInC = 3;
constexpr size_t kImageFloats = kInC * kHw * kHw;
constexpr size_t kPool = 64;         ///< distinct images per model
constexpr size_t kNumModels = 4;
constexpr double kSloMs = 50.0;      ///< latency limit of goodput
constexpr int kColdStarts = 5;       ///< set-ups per run; setup_s is the median

/// Served model names, in the fixed order every table uses.
inline constexpr const char* kModelNames[kNumModels] = {
    "resnet20_f32", "resnet20_int8", "alf_resnet20_f32", "alf_resnet20_int8"};

struct Model {
  std::string name;
  std::string blob;  ///< path of the compiled plan
  std::shared_ptr<const Plan> plan;
  /// kPool images followed by the first kBatch-1 again, so any run of up
  /// to kBatch consecutive pool images starting below kPool is contiguous.
  std::vector<float> pool;
  std::vector<float> ref;  ///< kPool x classes logits, one image per run

  const float* images(size_t start) const {
    return pool.data() + start * kImageFloats;
  }
  /// True when `logits` matches the reference of pool image `img`: bit for
  /// bit on quantized plans, within 1e-5 of the row's largest logit on
  /// float plans (see e2e.cpp).
  bool row_ok(size_t img, const float* logits) const;
};

/// Compiles the four blobs into `dir` with the heuristic (untuned) plan
/// choices, so every run serves the same plans. Weights are fixed (Rng 17
/// plus BN warm-up); only the inputs depend on the run seed.
void compile_blobs(const std::string& dir);

/// Loads the blobs in `dir`, draws each model's image pool from `seed`,
/// and computes the reference logits.
std::vector<Model> load_fixture(const std::string& dir, uint64_t seed);

/// Multiply-accumulates of one image under `plan` (conv + linear steps).
double plan_macs(const Plan& plan);

/// min(hardware threads, 4): the thread count of the offline engine and of
/// blob compilation (the chunk grid is frozen at compile time).
int bench_threads();

/// VmHWM of process `pid` (0 = self) in KiB; 0 when unreadable.
long vm_hwm_kib(int pid);

/// fork + execv(args[0], args) with stdout on `out_fd` and stderr on
/// `err_fd` (-1 keeps the benchmark's own). The child is SIGKILLed if the
/// benchmark dies first, so no run leaves a process behind. Returns the
/// pid; throws std::runtime_error when fork fails.
int spawn_child(const std::vector<std::string>& args, int out_fd, int err_fd);

/// Gives the calling thread real-time priority (SCHED_FIFO, reset on fork)
/// so a load-generator thread wakes on schedule instead of queueing behind
/// the CPU-bound server threads it measures; its work per wake-up is a few
/// tens of microseconds. False where the host does not permit it.
bool raise_priority();

/// Waits for child `pid` for up to `timeout_s`, then SIGKILLs it and waits
/// again. Returns its exit status, or 128 + signal when it was killed.
int reap_child(int pid, double timeout_s);

// --- Statistics --------------------------------------------------------------

/// Nearest-rank percentile, p in [0, 1]. Failed operations enter the
/// sample as +inf, so they sort last and a tail that includes them reads
/// +inf instead of silently improving. NaN for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// True when at least ten samples lie beyond the p-th nearest rank of a
/// sample of n — the rule for the highest percentile a sample supports.
inline bool supports_percentile(size_t n, double p) {
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n >= rank + 10;
}

/// The p-th percentile of `v`, or NaN (null in the record) when the sample
/// does not support it.
inline double supported_percentile(const std::vector<double>& v, double p) {
  return supports_percentile(v.size(), p) ? percentile(v, p) : std::nan("");
}

/// Offered rate where the SLO-miss share crosses 1%, linearly interpolated
/// between ladder steps. A step also fails when its achieved rate is below
/// 0.97x its offered rate. `censored` is -1 when step 1 already fails (the
/// knee is at or below rates[0]) and +1 when no step fails (at or above
/// the last rate); the reported rate is then that step's rate.
struct Knee {
  double rps = 0.0;
  int censored = 0;
};
inline Knee knee_rps(const std::vector<double>& offered,
                     const std::vector<double>& achieved,
                     const std::vector<double>& miss_frac) {
  constexpr double kMissLimit = 0.01;
  const auto fails = [&](size_t i) {
    return miss_frac[i] > kMissLimit || achieved[i] < 0.97 * offered[i];
  };
  for (size_t i = 0; i < offered.size(); ++i) {
    if (!fails(i)) continue;
    if (i == 0) return {offered[0], -1};
    const double m0 = miss_frac[i - 1], m1 = miss_frac[i];
    // A step failing on achieved rate alone gives no miss slope to follow.
    if (m1 <= kMissLimit || m1 <= m0) return {offered[i - 1], 0};
    const double f = (kMissLimit - m0) / (m1 - m0);
    return {offered[i - 1] + f * (offered[i] - offered[i - 1]), 0};
  }
  return {offered.empty() ? 0.0 : offered.back(), 1};
}

// --- Arrival schedule --------------------------------------------------------

/// One stretch of constant offered rate: `warm_s` discarded, then
/// `measure_s` measured.
struct Phase {
  double rps = 0.0;
  double warm_s = 0.0;
  double measure_s = 0.0;
};

/// Traffic mix: which models a request targets and how many images it
/// carries.
enum class Mix {
  kSteady,  ///< 1 image; resnet20_f32 / alf_resnet20_f32 50/50
  kLadder,  ///< 1, 2-4 or 8 images (P 0.5/0.35/0.15); all four models
};

struct Req {
  double t_s = 0.0;  ///< intended send instant from the schedule origin
  uint32_t phase = 0;
  bool measured = false;
  uint8_t model = 0;
  uint8_t rows = 1;
  uint8_t start = 0;  ///< first pool image
};

/// Open-loop arrivals drawn before the first byte moves. The warm-up and
/// the measured stretch of each phase hold exactly round(rps * length)
/// requests at uniform instants — a Poisson process conditioned on its
/// count — and the model/size mix holds exactly in each stretch, shuffled.
/// So the offered load of a run does not vary with the seed; the arrival
/// order and the images do.
std::vector<Req> make_schedule(const std::vector<Phase>& phases, Mix mix,
                               uint64_t seed);

// --- Tracing -----------------------------------------------------------------

/// In-memory span recorder, written as Chrome trace-event JSON at exit.
/// Each span has a name (its layer is the prefix before the first '.'),
/// start and end, its own id, the id of the span that caused it, and the
/// request id (the wire seq). Request-scoped spans that overlap on one
/// thread are written as async events; the rest as complete events.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  bool on() const { return on_; }
  /// Reserves `n` consecutive span ids and returns the first.
  uint64_t reserve_ids(uint64_t n) { return next_.fetch_add(n); }
  /// Records a finished span; returns its id (`id` 0 allocates one).
  uint64_t span(const char* name, Clock::time_point t0, Clock::time_point t1,
                uint64_t req = 0, uint64_t parent = 0, uint64_t id = 0,
                bool async = false);
  size_t size() const;
  /// Writes {"traceEvents": [...]}; false on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double t0_us, t1_us;
    uint64_t id, parent, req;
    uint32_t tid;
    bool async;
  };
  const bool on_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_{1};
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

// --- Results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Minimal JSON object writer for the details record (non-finite numbers
/// become null).
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(k, buf);
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonObj& raw(const std::string& k, const std::string& json) {
    s_ += (s_.empty() ? "{" : ", ") + ("\"" + k + "\": ") + json;
    return *this;
  }
  std::string done() const { return s_.empty() ? "{}" : s_ + "}"; }

 private:
  std::string s_;
};

inline std::string json_array(const std::vector<std::string>& items) {
  std::string s = "[";
  for (size_t i = 0; i < items.size(); ++i) s += (i ? ", " : "") + items[i];
  return s + "]";
}

inline std::string json_numbers(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (const double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", x);
    items.push_back(buf);
  }
  return json_array(items);
}

/// What one workload run reports.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end
  std::vector<Metric> layers;   ///< per-layer (traced runs only)
  JsonObj details;              ///< everything else, for the record file
  std::vector<std::string> problems;  ///< why `correct` is false

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// --- Workloads (wire.cpp, layers.cpp) ----------------------------------------

/// Row counts the layer sweep times ExecContext::run_rows at.
inline constexpr size_t kSweepRows[3] = {1, 8, 32};

/// Median run_rows wall time per model and kSweepRows entry (layer sweep).
struct EngineTimes {
  double run_ms[kNumModels][3] = {};
};

/// An open-loop workload over the wire. The latency metrics pool the
/// measured requests of phases [gated_lo, gated_hi]; the traced run
/// replays phase gated_hi in process.
struct WireSpec {
  std::vector<Phase> phases;
  Mix mix = Mix::kSteady;
  size_t gated_lo = 0, gated_hi = 0;
  size_t goodput = 0;  ///< phase whose goodput is images_per_s
  double replay_s = 10.0;  ///< traced runs: in-process replay length
};

/// Cold-starts alf_served (set-up), drives it with `spec`'s schedule for
/// `seed`, drains it, and checks every answer. Traced runs also replay the
/// gated phase through an in-process ModelServer and fill Result::layers
/// with the gen/net/serve metrics (`et` gives the engine times that
/// serve.wait_est_ms subtracts).
Result run_wire(const WireSpec& spec, const std::vector<Model>& models,
                const std::string& workdir, uint64_t seed, Tracer& tr,
                const EngineTimes& et);

/// Closed-loop batch-32 run_rows over the four blobs in `plan_dir`, in a
/// fresh child process (`self_exe --engine-child ...`) so its set-up and
/// peak RSS are the engine's alone.
Result run_engine_offline(const std::string& self_exe,
                          const std::string& plan_dir, uint64_t seed,
                          double seconds);

/// The child side of run_engine_offline; prints its samples on stdout.
int engine_child_main(const std::string& plan_dir, uint64_t seed,
                      double seconds);

/// Traced runs: per-model engine (run_rows at 1/8/32 rows), kernels (each
/// step's GEMM), plan_io (blob load) and hwmodel (Eyeriss mapper) metrics.
std::vector<Metric> layer_sweep(const std::vector<Model>& models, Tracer& tr,
                                EngineTimes* times, JsonObj* details);

}  // namespace alf::e2e
