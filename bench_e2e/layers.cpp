// The engine and below: the offline closed-loop workload (run in a child
// process), and the traced layer sweep — run_rows at 1/8/32 rows, every
// step's GEMM through the step's own kernel backend, blob load times, and
// the Eyeriss mapper's modeled cycles for the same layers.
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/parallel.hpp"
#include "e2e.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "hwmodel/mapper.hpp"
#include "kernels/backend.hpp"

namespace alf::e2e {
namespace {

constexpr double kWarmS = 1.0;

/// Median of at least `min_reps` timings of fn(), repeated until
/// `min_total_ms` has been spent; each timing is also a span.
template <typename Fn>
double median_ms(Tracer& tr, const char* span, uint64_t req, int min_reps,
                 double min_total_ms, Fn&& fn) {
  fn();  // warm-up
  std::vector<double> ms;
  double total = 0.0;
  while (static_cast<int>(ms.size()) < min_reps || total < min_total_ms) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    tr.span(span, t0, t1, req);
    ms.push_back(ms_between(t0, t1));
    total += ms.back();
  }
  return percentile(ms, 0.5);
}

/// Times the GEMM work of one conv/linear step over a full batch, issued
/// as ExecContext issues it — the step's backend, strategy, chunk grid and
/// shapes, on the process pool — but on scratch operands and without the
/// unfold, quantize, border-repair, epilogue and scatter work around it.
/// Step time minus this is the step's non-GEMM overhead.
class StepGemm {
 public:
  StepGemm(const Plan& plan, const Step& st) : st_(st) {
    const size_t n = kBatch;
    if (st.quantized) {
      // The zero-point the engine uses for this step's activation grid.
      const int32_t levels = (1 << (st.qbits - 1)) - 1;
      zp_ = st.in_nonneg ? -levels : 0;
    }
    if (st.kind == OpKind::kLinear) {
      a_.assign(n * st.in_features, 0.01f);
      c_.assign(n * st.out_features, 0.0f);
      qa_.assign(n * st.in_features, 1);
      scales_.assign(n, 0.01f);
      return;
    }
    const ConvGeom& g = st.geom;
    const size_t nch = std::min(plan.step_chunks(st), n);
    chunk_ = (n + nch - 1) / nch;
    nchunks_ = (n + chunk_ - 1) / chunk_;
    const size_t ld = chunk_ * g.col_cols();
    if (st.shift_gemm) {
      a_.assign(n * st.in_sz, 0.01f);
      c_.assign(n * st.out_sz, 0.0f);
    } else {
      a_.assign(nchunks_ * g.col_rows() * ld, 0.01f);
      c_.assign(nchunks_ * st.out_c * ld, 0.0f);
      qa_.assign(st.quantized ? nchunks_ * g.col_rows() * ld : 0, 1);
      scales_.assign(ld, 0.01f);
    }
  }

  void run() {
    const Step& st = st_;
    if (st.kind == OpKind::kLinear) {
      const size_t n = kBatch;
      if (st.quantized) {
        kernels::QgemmParams p;
        p.a_scales = scales_.data();
        p.b_scales = st.qw_scales.data();
        p.a_zp = zp_;
        st.be->qgemm(qa_.data(), st.in_features, st.qw.data(),
                     st.out_features, c_.data(), st.out_features, n,
                     st.in_features, st.out_features, p);
      } else {
        st.be->gemm(a_.data(), st.in_features, false, st.w.data(),
                    st.in_features, true, c_.data(), st.out_features, n,
                    st.in_features, st.out_features, 1.0f, 0.0f);
      }
      return;
    }
    const auto process = [this](size_t lo, size_t hi) {
      for (size_t ci = lo; ci < hi; ++ci) chunk(ci);
    };
    if (nchunks_ == 1)
      process(0, 1);
    else
      parallel_for_chunked(0, nchunks_, process, /*min_per_worker=*/1);
  }

 private:
  void chunk(size_t ci) {
    const Step& st = st_;
    const ConvGeom& g = st.geom;
    const size_t i0 = ci * chunk_;
    const size_t i1 = std::min(kBatch, i0 + chunk_);
    if (st.shift_gemm) {
      const size_t hw = g.in_h * g.in_w, ww = g.in_w, k = g.kernel;
      const size_t cin = g.in_c, co = st.out_c;
      const long pad = static_cast<long>(g.pad);
      for (size_t i = i0; i < i1; ++i) {
        const float* x = a_.data() + i * st.in_sz;
        float* y = c_.data() + i * st.out_sz;
        if (k == 1) {
          st.be->gemm(st.w.data(), cin, false, x, hw, false, y, hw, co, cin,
                      hw, 1.0f, 0.0f);
          continue;
        }
        for (size_t kh = 0; kh < k; ++kh)
          for (size_t kw = 0; kw < k; ++kw) {
            const long shift =
                (static_cast<long>(kh) - pad) * static_cast<long>(ww) +
                (static_cast<long>(kw) - pad);
            const size_t c0 = shift < 0 ? static_cast<size_t>(-shift) : 0;
            const size_t c1 = shift > 0 ? hw - static_cast<size_t>(shift) : hw;
            if (c0 >= c1) continue;
            st.be->gemm(st.w9.data() + (kh * k + kw) * co * cin, cin, false,
                        x + static_cast<long>(c0) + shift, hw, false, y + c0,
                        hw, co, cin, c1 - c0, 1.0f, 1.0f);
          }
      }
      return;
    }
    const size_t rows = g.col_rows();
    const size_t ld = (i1 - i0) * g.col_cols();
    const size_t stride = chunk_ * g.col_cols();
    float* res = c_.data() + ci * st.out_c * stride;
    if (st.quantized) {
      kernels::QgemmParams p;
      p.a_scales = st.qw_scales.data();
      p.b_scales = scales_.data();
      p.b_zp = zp_;
      st.be->qgemm(st.qw.data(), rows, qa_.data() + ci * rows * stride, ld,
                   res, ld, st.out_c, rows, ld, p);
    } else {
      st.be->gemm(st.w.data(), rows, false, a_.data() + ci * rows * stride, ld,
                  false, res, ld, st.out_c, rows, ld, 1.0f, 0.0f);
    }
  }

  const Step& st_;
  int32_t zp_ = 0;
  size_t chunk_ = kBatch, nchunks_ = 1;
  std::vector<float> a_, c_, scales_;
  std::vector<int8_t> qa_;
};

const char* step_strategy(const Step& st) {
  if (st.kind == OpKind::kLinear) return st.quantized ? "linear-q" : "linear";
  if (st.quantized) return "im2col-q";
  return st.shift_gemm ? "shift" : "im2col";
}

/// Reads a child's whole stdout.
std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t k = ::read(fd, buf, sizeof(buf));
    if (k > 0) {
      out.append(buf, static_cast<size_t>(k));
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    return out;
  }
}

}  // namespace

int engine_child_main(const std::string& plan_dir, uint64_t seed,
                      double seconds) {
  // Set-up, kColdStarts times: plan::load of the four blobs, one context
  // each, and the first batch-32 run (first touch of arena and weights).
  std::vector<float> first_in(kBatch * kImageFloats, 0.5f);
  std::vector<float> out;
  std::vector<ExecContext> ctxs;
  for (int k = 0; k < kColdStarts; ++k) {
    ctxs.clear();
    const Clock::time_point t0 = Clock::now();
    for (const char* name : kModelNames) {
      ctxs.emplace_back(plan::load(plan_dir + "/" + name + ".plan"));
      out.resize(kBatch * ctxs.back().plan().classes());
      ctxs.back().run_rows(first_in.data(), kBatch, out.data());
    }
    std::printf("setup_s %.9f\n", ms_between(t0, Clock::now()) / 1e3);
  }

  const std::vector<Model> models = load_fixture(plan_dir, seed);
  uint64_t warm_wrong = 0;
  const auto round = [&](size_t r, bool report) {
    double total = 0.0;
    for (size_t m = 0; m < kNumModels; ++m) {
      const size_t start = (r * 29 + m * 13) % kPool;
      const Clock::time_point t0 = Clock::now();
      ctxs[m].run_rows(models[m].images(start), kBatch, out.data());
      const double ms = ms_between(t0, Clock::now());
      total += ms;
      const size_t classes = ctxs[m].plan().classes();
      bool good = true;
      for (size_t i = 0; i < kBatch; ++i)
        good = good && models[m].row_ok(start + i, out.data() + i * classes);
      if (report)
        std::printf("call %zu %.9f %d\n", m, ms, good ? 1 : 0);
      else
        warm_wrong += good ? 0 : 1;
    }
    if (report) std::printf("round %.9f\n", total);
  };
  size_t r = 0;
  for (const Clock::time_point end = Clock::now() +
                                     std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(kWarmS));
       Clock::now() < end;)
    round(r++, false);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    round(r++, true);
  } while (Clock::now() < end);
  std::printf("warm_wrong %llu\nrss_kib %ld\n",
              static_cast<unsigned long long>(warm_wrong), vm_hwm_kib(0));
  return std::fflush(stdout) == 0 ? 0 : 1;
}

Result run_engine_offline(const std::string& self_exe,
                          const std::string& plan_dir, uint64_t seed,
                          double seconds) {
  Result res;
  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2: " + std::string(std::strerror(errno)));
  int pid = -1;
  try {
    pid = spawn_child({self_exe, "--engine-child", "--plan-dir", plan_dir,
                       "--seed", std::to_string(seed), "--seconds",
                       std::to_string(seconds)},
                      out[1], -1);
  } catch (...) {
    ::close(out[0]);
    ::close(out[1]);
    throw;
  }
  ::close(out[1]);
  const std::string text = read_all(out[0]);
  ::close(out[0]);
  const int code = reap_child(pid, 60.0);
  if (code != 0)
    res.fail("engine child exited with " + std::to_string(code));

  std::vector<double> setup_s, rounds;
  std::vector<double> calls[kNumModels];
  long rss_kib = 0;
  uint64_t warm_wrong = 0;
  std::istringstream in(text);
  std::string key;
  while (in >> key) {
    if (key == "setup_s") {
      double v = 0;
      in >> v;
      setup_s.push_back(v);
    } else if (key == "call") {
      size_t m = 0;
      double ms = 0;
      int good = 0;
      in >> m >> ms >> good;
      if (m >= kNumModels) continue;
      calls[m].push_back(ms);
      ++res.attempted;
      if (!good) ++res.failed;
    } else if (key == "round") {
      double v = 0;
      in >> v;
      rounds.push_back(v);
    } else if (key == "rss_kib") {
      in >> rss_kib;
    } else if (key == "warm_wrong") {
      in >> warm_wrong;
    }
  }
  if (setup_s.empty() || rounds.empty()) {
    res.fail("engine child reported no samples");
    return res;
  }
  if (res.failed + warm_wrong)
    res.fail(std::to_string(res.failed + warm_wrong) +
             " batches with wrong logits");

  double busy_ms = 0.0;
  for (const double v : rounds) busy_ms += v;
  std::vector<std::string> per_model;
  for (size_t m = 0; m < kNumModels; ++m) {
    double sum = 0.0;
    for (const double v : calls[m]) sum += v;
    per_model.push_back(
        JsonObj()
            .str("model", kModelNames[m])
            .num("batches", static_cast<double>(calls[m].size()))
            .num("p50_ms", percentile(calls[m], 0.5))
            .num("p90_ms", percentile(calls[m], 0.9))
            .num("images_per_s", calls[m].size() * kBatch / sum * 1e3)
            .done());
  }
  res.details.raw("models", json_array(per_model))
      .raw("setup_s", json_numbers(setup_s))
      .num("rounds", static_cast<double>(rounds.size()))
      .num("round_p90_ms", supported_percentile(rounds, 0.9))
      .num("threads", bench_threads());
  res.metrics = {
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"lat_p50_ms", percentile(rounds, 0.5), "ms"},
      {"lat_p50_ms.resnet20_f32", percentile(calls[0], 0.5), "ms"},
      {"lat_p50_ms.alf_resnet20_f32", percentile(calls[2], 0.5), "ms"},
      {"images_per_s",
       rounds.size() * kNumModels * kBatch / busy_ms * 1e3, "1/s"},
      {"peak_rss_mib", rss_kib / 1024.0, "MiB"},
  };
  return res;
}

std::vector<Metric> layer_sweep(const std::vector<Model>& models, Tracer& tr,
                                EngineTimes* times, JsonObj* details) {
  std::vector<Metric> engine, gmacs, load, kib, gemm, share, cycles, macs;
  std::vector<std::string> steps_json;
  std::map<std::string, double> mapped;  // workload key -> modeled cycles
  for (size_t m = 0; m < models.size(); ++m) {
    const Model& md = models[m];
    const Plan& plan = *md.plan;
    const std::string name = md.name;

    load.push_back({"plan_io.load_ms." + name,
                    median_ms(tr, "plan_io.load", m, 5, 0.0,
                              [&] { plan::load(md.blob); }),
                    "ms"});
    kib.push_back(
        {"plan_io.blob_kib." + name,
         static_cast<double>(std::filesystem::file_size(md.blob)) / 1024.0,
         "KiB"});

    // run_rows at 1 and 8 rows runs inline, as on a serving worker; the
    // full batch runs on the process pool, as offline.
    static const char* const kSpan[3] = {"engine.run_rows.b1",
                                         "engine.run_rows.b8",
                                         "engine.run_rows.b32"};
    ExecContext ctx(md.plan);
    std::vector<float> out(kBatch * plan.classes());
    for (size_t b = 0; b < 3; ++b) {
      const size_t rows = kSweepRows[b];
      std::optional<InlineExecutionGuard> inline_run;
      if (rows < kBatch) inline_run.emplace();
      times->run_ms[m][b] = median_ms(tr, kSpan[b], m, 5, 250.0, [&] {
        ctx.run_rows(md.images(0), rows, out.data());
      });
      engine.push_back({"engine.run_ms." + name + ".b" + std::to_string(rows),
                        times->run_ms[m][b], "ms"});
    }
    const double run32 = times->run_ms[m][2];
    gmacs.push_back({"engine.gmacs." + name + ".b32",
                     plan_macs(plan) * kBatch / (run32 * 1e6), "GMAC/s"});

    double gemm_ms = 0.0, hw_cycles = 0.0, hw_macs = 0.0;
    const EyerissConfig arch = plan.quantized()
                                   ? scaled_to_bits(EyerissConfig{}, 8)
                                   : EyerissConfig{};
    for (size_t si = 0; si < plan.steps().size(); ++si) {
      const Step& st = plan.steps()[si];
      if (st.kind != OpKind::kConv && st.kind != OpKind::kLinear) continue;
      StepGemm probe(plan, st);
      const double ms =
          median_ms(tr, "kernels.step", si, 5, 0.0, [&] { probe.run(); });
      gemm_ms += ms;
      double cyc = 0.0, mac = 0.0;
      if (st.kind == OpKind::kConv) {
        // The accelerator model of the same layer, per image.
        ConvWorkload w;
        w.name = st.name;
        w.r = w.s = st.geom.kernel;
        w.p = st.geom.out_h();
        w.q = st.geom.out_w();
        w.c = st.geom.in_c;
        w.m = st.out_c;
        w.stride = st.geom.stride;
        const std::string key =
            std::to_string(w.r) + "/" + std::to_string(w.p) + "x" +
            std::to_string(w.q) + "/" + std::to_string(w.c) + "->" +
            std::to_string(w.m) + "/s" + std::to_string(w.stride) +
            (plan.quantized() ? "/q" : "/f");
        auto it = mapped.find(key);
        if (it == mapped.end())
          it = mapped.emplace(key, map_layer(w, arch, MapperConfig{}).cycles)
                   .first;
        cyc = it->second;
        mac = static_cast<double>(w.macs());
      }
      hw_cycles += cyc;
      hw_macs += mac;
      steps_json.push_back(JsonObj()
                               .str("model", name)
                               .num("step", static_cast<double>(si))
                               .str("strategy", step_strategy(st))
                               .str("backend", st.be ? st.be->name : "")
                               .num("gemm_ms_b32", ms)
                               .num("hw_cycles", cyc)
                               .num("hw_macs", mac)
                               .done());
    }
    gemm.push_back({"kernels.gemm_ms." + name + ".b32", gemm_ms, "ms"});
    share.push_back(
        {"kernels.gemm_share." + name + ".b32", gemm_ms / run32, "fraction"});
    cycles.push_back({"hwmodel.cycles." + name, hw_cycles, "cycles"});
    macs.push_back({"hwmodel.macs." + name, hw_macs, "count"});
  }
  details->raw("steps", json_array(steps_json));
  std::vector<Metric> all;
  for (auto* group : {&engine, &gmacs, &load, &kib, &gemm, &share, &cycles,
                      &macs})
    all.insert(all.end(), group->begin(), group->end());
  return all;
}

}  // namespace alf::e2e
