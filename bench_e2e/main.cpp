// alf_e2e_bench: end-to-end and per-layer benchmark of the ALF serving
// stack at the paper's CIFAR geometry. bench_e2e/run.py builds and drives
// it; bench_e2e/README.md describes the workloads and metrics.
//
//   alf_e2e_bench --workload wire_steady|wire_ladder|engine_offline
//                 --seed N --seconds S [--workdir DIR]
//                 [--trace-out trace.json] [--record run.json]
//   alf_e2e_bench --selftest --trace-out trace.json
//
// Prints every metric as "name value unit", then one JSON line with the
// result: the end-to-end metrics untraced, the per-layer metrics with
// --trace-out. Exits 1 if any answer was wrong, a drain check failed, or a
// metric could not be measured.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>

#include "core/parallel.hpp"
#include "e2e.hpp"

namespace {

using namespace alf;
using namespace alf::e2e;
namespace fs = std::filesystem;

// Offered loads are absolute: every build under test gets the same
// arrivals. Calibrated on a 4-core x86 host against the 2-worker daemon:
// the steady rate sits near half the knee of its single-image mix. Ladder
// step 1 misses the 50 ms SLO for ~0.5% of requests, the knee (1% misses)
// lies near step 2, and step 4 misses for more than 5%.
constexpr double kSteadyRps = 300.0;
constexpr double kLadderRps[4] = {90.0, 130.0, 170.0, 240.0};

WireSpec steady_spec(double seconds) {
  WireSpec w;
  w.phases = {{kSteadyRps, 5.0, seconds}};
  w.mix = Mix::kSteady;
  w.replay_s = std::min(10.0, seconds);
  return w;
}

// The gated numbers come from steps 2-3, around the knee. Step 1's light
// load leaves the daemon in a slow state for whole steps on some arrival
// patterns (p50 doubles at 20% CPU), and step 4's backlog grows for the
// rest of the step, so their latencies swing by 20-90% between seeds;
// they are recorded, not gated.
WireSpec ladder_spec(double seconds) {
  WireSpec w;
  for (const double r : kLadderRps) w.phases.push_back({r, 2.0, seconds / 4});
  w.mix = Mix::kLadder;
  w.gated_lo = 1;
  w.gated_hi = 2;
  w.goodput = 2;
  w.replay_s = seconds / 4;
  return w;
}

/// The metric names a run must emit — the contract BENCHMARK.json lists.
std::vector<std::string> metric_names(bool traced) {
  if (!traced)
    return {"setup_s", "lat_p50_ms", "lat_p50_ms.resnet20_f32",
            "lat_p50_ms.alf_resnet20_f32", "images_per_s", "peak_rss_mib"};
  std::vector<std::string> v = {
      "gen.lag_ms.p99",       "net.send_us.p50",      "net.send_us.p99",
      "net.overhead_ms.p50",  "net.frames",           "net.shed",
      "net.rejected",         "net.orphaned",         "serve.latency_ms.p50",
      "serve.latency_ms.p99", "serve.submit_us.p99",  "serve.wait_est_ms.p50",
      "serve.expired",        "serve.rejected",       "serve.dropped_oldest",
      "trace.overhead.lat_p50_ms"};
  for (const char* m : kModelNames) {
    const std::string s = m;
    for (const std::string& name :
         {"serve.avg_fill." + s, "serve.batches." + s,
          "engine.run_ms." + s + ".b1", "engine.run_ms." + s + ".b8",
          "engine.run_ms." + s + ".b32", "engine.gmacs." + s + ".b32",
          "plan_io.load_ms." + s, "plan_io.blob_kib." + s,
          "kernels.gemm_ms." + s + ".b32", "kernels.gemm_share." + s + ".b32",
          "hwmodel.cycles." + s, "hwmodel.macs." + s})
      v.push_back(name);
  }
  return v;
}

std::string result_json(const Result& r, const std::vector<Metric>& ms) {
  std::string s = std::string("{\"correct\": ") +
                  (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) +
                  ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    // A non-finite value already failed the run; keep the line valid JSON.
    if (std::isfinite(ms[i].value))
      std::snprintf(buf, sizeof(buf), "%.17g", ms[i].value);
    else
      std::snprintf(buf, sizeof(buf), "null");
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

int selftest(const std::string& trace_out) {
  int bad = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  // Failures enter the latency sample as +inf and sort last.
  expect(percentile({3, 1, kInf, 2}, 0.5) == 2, "p50 with one failure");
  expect(std::isinf(percentile({3, 1, kInf, 2}, 0.99)), "p99 sees a failure");
  expect(percentile({3, 1, kInf, 2}, 0.0) == 1, "p0 is the minimum");
  std::vector<double> hundred(100, 1.0);
  hundred[99] = kInf;
  expect(percentile(hundred, 0.99) == 1.0, "1 failure in 100 is beyond p99");
  hundred[98] = kInf;
  expect(std::isinf(percentile(hundred, 0.99)), "2 failures in 100 reach p99");
  // A percentile needs ten samples beyond it.
  expect(supports_percentile(1000, 0.99) && !supports_percentile(999, 0.99),
         "p99 needs 1000 samples");
  expect(supports_percentile(100, 0.9) && !supports_percentile(99, 0.9),
         "p90 needs 100 samples");
  // Knee interpolation and its censored ends.
  const std::vector<double> rates = {200, 260, 330, 420};
  Knee k = knee_rps(rates, rates, {0.0, 0.005, 0.02, 0.2});
  expect(std::abs(k.rps - (260.0 + 70.0 / 3.0)) < 1e-9 && k.censored == 0,
         "knee interpolates between steps 2 and 3");
  k = knee_rps(rates, rates, {0.0, 0.0, 0.0, 0.009});
  expect(k.rps == 420 && k.censored == 1, "knee never crossed");
  k = knee_rps(rates, rates, {0.05, 0.1, 0.2, 0.3});
  expect(k.rps == 200 && k.censored == -1, "knee crossed at step 1");
  k = knee_rps(rates, {200, 260, 300, 300}, {0.0, 0.0, 0.0, 0.0});
  expect(k.rps == 260 && k.censored == 0, "achieved rate below 0.97x fails");
  // Schedules are a function of the seed, with exact per-phase counts.
  const std::vector<Phase> ph = {{100, 1, 2}, {50, 0, 2}};
  const std::vector<Req> a = make_schedule(ph, Mix::kLadder, 7);
  const std::vector<Req> b = make_schedule(ph, Mix::kLadder, 7);
  const std::vector<Req> c = make_schedule(ph, Mix::kLadder, 8);
  expect(a.size() == 400 && a.size() == c.size(), "exact counts per phase");
  bool same = true, sorted = true, differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].t_s == b[i].t_s && a[i].model == b[i].model &&
           a[i].rows == b[i].rows && a[i].start == b[i].start;
    sorted = sorted && (i == 0 || a[i - 1].t_s <= a[i].t_s);
    differs = differs || a[i].t_s != c[i].t_s;
  }
  expect(same && sorted && differs, "schedule determinism");
  // The ladder mix holds exactly in every stretch (here 200 requests).
  size_t ones = 0, eights = 0, per_model[kNumModels] = {};
  for (const Req& r : a)
    if (r.measured && r.phase == 0) {
      ones += r.rows == 1;
      eights += r.rows == 8;
      per_model[r.model]++;
    }
  expect(ones == 100 && eights == 30 && per_model[0] == 50 &&
             per_model[3] == 50,
         "stratified ladder mix");
  // Both span shapes land in the trace; run.py parses it.
  Tracer tr(true);
  const Clock::time_point t0 = Clock::now();
  const uint64_t req = tr.span("wire.request", t0,
                               t0 + std::chrono::milliseconds(2), 5, 0, 0,
                               /*async=*/true);
  tr.span("gen.send", t0, t0 + std::chrono::microseconds(40), 5, req);
  expect(tr.size() == 2 && tr.write(trace_out), "trace written");
  for (const bool traced : {false, true})
    for (const std::string& n : metric_names(traced))
      std::printf("metric %s %s\n", traced ? "per_layer" : "end_to_end",
                  n.c_str());
  std::printf("selftest %s\n", bad ? "FAILED" : "ok");
  return bad ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: alf_e2e_bench --workload "
               "wire_steady|wire_ladder|engine_offline --seed N --seconds S\n"
               "                     [--workdir DIR] [--trace-out FILE] "
               "[--record FILE]\n"
               "       alf_e2e_bench --selftest --trace-out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, workdir, trace_out, record, plan_dir;
  uint64_t seed = 1;
  double seconds = 24.0;
  bool selftest_mode = false, engine_child = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--selftest") {
      selftest_mode = true;
    } else if (a == "--engine-child") {
      engine_child = true;
    } else if (v == nullptr) {
      return usage();
    } else {
      ++i;
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
      else if (a == "--seconds") seconds = std::atof(v);
      else if (a == "--workdir") workdir = v;
      else if (a == "--trace-out") trace_out = v;
      else if (a == "--record") record = v;
      else if (a == "--plan-dir") plan_dir = v;
      else return usage();
    }
  }
  if (!(seconds >= 1.0 && seconds <= 600.0)) return usage();
  set_parallel_threads(bench_threads());
  if (selftest_mode) return trace_out.empty() ? usage() : selftest(trace_out);
  if (engine_child) return engine_child_main(plan_dir, seed, seconds);
  if (workload != "wire_steady" && workload != "wire_ladder" &&
      workload != "engine_offline")
    return usage();
  if (workdir.empty())
    workdir = (fs::current_path() /
               (".alf_e2e_work-" + std::to_string(::getpid())))
                  .string();

  int rc = 1;
  try {
    fs::create_directories(workdir);
    plan_dir = workdir + "/plans";
    compile_blobs(plan_dir);
    const std::vector<Model> models = load_fixture(plan_dir, seed);
    Tracer tr(!trace_out.empty());
    EngineTimes et;
    JsonObj sweep_details;
    std::vector<Metric> sweep;
    if (tr.on()) sweep = layer_sweep(models, tr, &et, &sweep_details);

    Result res;
    if (workload == "wire_steady") {
      res = run_wire(steady_spec(seconds), models, workdir, seed, tr, et);
    } else if (workload == "wire_ladder") {
      res = run_wire(ladder_spec(seconds), models, workdir, seed, tr, et);
    } else {
      res = run_engine_offline(fs::read_symlink("/proc/self/exe").string(),
                               plan_dir, seed, seconds);
      if (tr.on()) {
        // No request path in this workload: a short steady probe over the
        // wire supplies the gen/net/serve layers of the traced run.
        WireSpec probe = steady_spec(std::min(10.0, seconds));
        probe.phases[0].warm_s = 2.0;
        Result p = run_wire(probe, models, workdir, seed, tr, et);
        res.layers = p.layers;
        for (const std::string& why : p.problems) res.fail("probe: " + why);
      }
    }

    std::vector<Metric> out = res.metrics;
    if (tr.on()) {
      out = res.layers;
      out.insert(out.end(), sweep.begin(), sweep.end());
    }
    std::set<std::string> emitted, expected;
    for (const Metric& m : out) {
      emitted.insert(m.name);
      if (!std::isfinite(m.value)) res.fail(m.name + " is not finite");
    }
    for (const std::string& n : metric_names(tr.on())) expected.insert(n);
    if (emitted != expected) res.fail("emitted metric names drifted");

    if (tr.on() && !tr.write(trace_out)) res.fail("cannot write " + trace_out);
    if (!record.empty()) {
      std::FILE* f = std::fopen(record.c_str(), "w");
      if (f == nullptr) {
        res.fail("cannot write " + record);
      } else {
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
                     "%g, \"traced\": %s,\n \"result\": %s,\n \"details\": "
                     "%s,\n \"sweep\": %s}\n",
                     workload.c_str(), static_cast<unsigned long long>(seed),
                     seconds, tr.on() ? "true" : "false",
                     result_json(res, out).c_str(), res.details.done().c_str(),
                     sweep_details.done().c_str());
        std::fclose(f);
      }
    }
    for (const std::string& why : res.problems)
      std::fprintf(stderr, "error: %s\n", why.c_str());
    for (const Metric& m : out)
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("%s\n", result_json(res, out).c_str());
    rc = res.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alf_e2e_bench: %s\n", e.what());
  }
  std::error_code ec;
  fs::remove_all(workdir, ec);
  return rc;
}
