#include "e2e.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "alf/alf_conv.hpp"
#include "core/rng.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "models/zoo.hpp"

namespace alf::e2e {

namespace fs = std::filesystem;

bool Model::row_ok(size_t img, const float* logits) const {
  const size_t classes = plan->classes();
  const float* want = ref.data() + (img % kPool) * classes;
  if (plan->quantized())
    return std::memcmp(want, logits, classes * sizeof(float)) == 0;
  // Float plans round differently when a chunk packs several images into
  // one GEMM (measured: up to ~2e-7 of the row's largest logit), so they
  // are held to 1e-5 of it; anything coarser is a wrong answer.
  float scale = 0.0f;
  for (size_t c = 0; c < classes; ++c) scale = std::max(scale, std::abs(want[c]));
  for (size_t c = 0; c < classes; ++c)
    if (!(std::abs(want[c] - logits[c]) <= 1e-5f * scale)) return false;
  return true;
}

namespace {

void fill_uniform(float* dst, size_t n, Rng& rng) {
  for (size_t i = 0; i < n; ++i)
    dst[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

/// A few training-mode forwards so BatchNorm running statistics move off
/// their (0, 1) initialization; BN folding is trivial otherwise.
void warm_bn(Sequential& model, Rng& rng) {
  for (int pass = 0; pass < 2; ++pass) {
    Tensor x({8, kInC, kHw, kHw});
    fill_uniform(x.data(), x.numel(), rng);
    model.forward(x, /*train=*/true);
  }
}

}  // namespace

void compile_blobs(const std::string& dir) {
  fs::create_directories(dir);
  ModelConfig mc;
  mc.base_width = 16;
  mc.in_hw = kHw;
  mc.in_channels = kInC;
  for (const bool alf : {false, true}) {
    Rng rng(17);
    std::unique_ptr<Sequential> model;
    if (alf) {
      // The paper's operating point without a training run: keep every
      // third code filter of each ALF block; the deployed kernels only see
      // the surviving-filter count.
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
      opts.name = std::string(alf ? "alf_resnet20" : "resnet20") +
                  (*backend ? "_int8" : "_f32");
      opts.tune = TuneMode::kHeuristic;
      plan::save(*Plan::compile(*model, kBatch, kInC, kHw, kHw, opts),
                 dir + "/" + opts.name + ".plan");
    }
  }
}

std::vector<Model> load_fixture(const std::string& dir, uint64_t seed) {
  std::vector<Model> models(kNumModels);
  for (size_t m = 0; m < kNumModels; ++m) {
    Model& md = models[m];
    md.name = kModelNames[m];
    md.blob = dir + "/" + md.name + ".plan";
    md.plan = plan::load(md.blob);
    Rng rng(seed * 1000003ull + m + 1);
    md.pool.resize((kPool + kBatch - 1) * kImageFloats);
    fill_uniform(md.pool.data(), kPool * kImageFloats, rng);
    std::memcpy(md.pool.data() + kPool * kImageFloats, md.pool.data(),
                (kBatch - 1) * kImageFloats * sizeof(float));
    const size_t classes = md.plan->classes();
    md.ref.resize(kPool * classes);
    ExecContext ctx(md.plan);
    for (size_t i = 0; i < kPool; ++i)
      ctx.run_rows(md.images(i), 1, md.ref.data() + i * classes);
  }
  return models;
}

double plan_macs(const Plan& plan) {
  double macs = 0.0;
  for (const Step& st : plan.steps()) {
    if (st.kind == OpKind::kConv)
      macs += static_cast<double>(st.out_c) * st.geom.col_rows() *
              st.geom.col_cols();
    else if (st.kind == OpKind::kLinear)
      macs += static_cast<double>(st.in_features) * st.out_features;
  }
  return macs;
}

int bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int n = 1;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    n = CPU_COUNT(&set);
  else
    n = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(n, 1, 4);
}

long vm_hwm_kib(int pid) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  return 0;
}

int spawn_child(const std::vector<std::string>& args, int out_fd,
                int err_fd) {
  std::vector<std::string> copy = args;
  std::vector<char*> argv;
  for (std::string& a : copy) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::dup2(out_fd, STDOUT_FILENO);
    if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid < 0)
    throw std::runtime_error("fork: " + std::string(std::strerror(errno)));
  return pid;
}

bool raise_priority() {
  sched_param sp{};
  sp.sched_priority = 10;
  return ::sched_setscheduler(0, SCHED_FIFO | SCHED_RESET_ON_FORK, &sp) == 0;
}

int reap_child(int pid, double timeout_s) {
  int status = 0;
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const pid_t rc = ::waitpid(pid, &status, WNOHANG);
    if (rc == pid) break;
    if (rc < 0 && errno != EINTR) return -1;
    if (Clock::now() > give_up) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

namespace {

/// The (model, rows) pairs of a stretch of n requests, in shuffled order.
/// The mix holds exactly, not just in expectation: with draws per request,
/// the share of 8-image requests in a 6 s step varies by a few percent
/// between seeds and moves the step's tail with it.
std::vector<std::pair<uint8_t, uint8_t>> stratified_mix(size_t n, Mix mix,
                                                        Rng& rng) {
  std::vector<std::pair<uint8_t, uint8_t>> v(n);
  if (mix == Mix::kSteady) {
    for (size_t i = 0; i < n; ++i) v[i] = {i % 2 ? 2 : 0, 1};
  } else {
    // Rows 1 / 2-4 / 8 at 0.5 / 0.35 / 0.15; models cycle within each
    // rows class, so every model sees the same size mix.
    const size_t ones = std::llround(0.5 * n);
    const size_t eights = std::llround(0.15 * n);
    for (size_t i = 0; i < n; ++i) {
      const uint8_t rows = i < ones            ? 1
                           : i >= n - eights   ? 8
                                               : 2 + (i - ones) % 3;
      v[i] = {static_cast<uint8_t>(i % kNumModels), rows};
    }
  }
  const std::vector<size_t> perm = rng.permutation(n);
  std::vector<std::pair<uint8_t, uint8_t>> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = v[perm[i]];
  return out;
}

}  // namespace

std::vector<Req> make_schedule(const std::vector<Phase>& phases, Mix mix,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Req> out;
  double origin = 0.0;
  for (size_t p = 0; p < phases.size(); ++p) {
    const Phase& ph = phases[p];
    for (const bool measured : {false, true}) {
      const double t0 = measured ? ph.warm_s : 0.0;
      const double len = measured ? ph.measure_s : ph.warm_s;
      const size_t n = static_cast<size_t>(std::llround(ph.rps * len));
      std::vector<double> u(n);
      for (double& x : u) x = t0 + rng.uniform() * len;
      std::sort(u.begin(), u.end());
      const auto kinds = stratified_mix(n, mix, rng);
      for (size_t i = 0; i < n; ++i) {
        Req r;
        r.t_s = origin + u[i];
        r.phase = static_cast<uint32_t>(p);
        r.measured = measured;
        r.model = kinds[i].first;
        r.rows = kinds[i].second;
        r.start = static_cast<uint8_t>(rng.uniform_index(kPool));
        out.push_back(r);
      }
    }
    origin += ph.warm_s + ph.measure_s;
  }
  return out;
}

// --- Tracer ------------------------------------------------------------------

namespace {

uint32_t thread_index() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t idx = next.fetch_add(1);
  return idx;
}

}  // namespace

uint64_t Tracer::span(const char* name, Clock::time_point t0,
                      Clock::time_point t1, uint64_t req, uint64_t parent,
                      uint64_t id, bool async) {
  if (!on_) return 0;
  if (id == 0) id = next_.fetch_add(1);
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  const Span s{name, us(t0), us(t1), id, parent, req, thread_index(), async};
  std::lock_guard<std::mutex> lk(m_);
  spans_.push_back(s);
  return id;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return spans_.size();
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(m_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  bool first = true;
  for (const Span& s : spans_) {
    const std::string layer(s.name, std::strcspn(s.name, "."));
    const auto args = [&] {
      return "{\"span\": " + std::to_string(s.id) +
             ", \"parent\": " + std::to_string(s.parent) +
             ", \"req\": " + std::to_string(s.req) + "}";
    };
    if (s.async) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"b\", "
                   "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": %s}",
                   first ? "" : ",", s.name, layer.c_str(),
                   static_cast<unsigned long long>(s.id), s.t0_us, s.tid,
                   args().c_str());
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"e\", "
                   "\"id\": %llu, \"ts\": %.3f, \"pid\": 1, \"tid\": %u}",
                   s.name, layer.c_str(),
                   static_cast<unsigned long long>(s.id), s.t1_us, s.tid);
    } else {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": %s}",
                   first ? "" : ",", s.name, layer.c_str(), s.t0_us,
                   s.t1_us - s.t0_us, s.tid, args().c_str());
    }
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace alf::e2e
