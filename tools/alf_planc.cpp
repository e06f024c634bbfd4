// alf_planc — the compile-once half of compile-once/deploy-many.
//
// --out DIR compiles the model zoo (float and int8 twins of each net) and
// saves one plan blob per model (engine/plan_io.hpp); deployment hosts
// then load the blobs (serve --plan-dir, ModelServer::add_models_from_dir)
// instead of paying BN folding + quantization + panel packing per process.
// --check DIR is the deploy-side gate: load + verify + smoke-run every
// blob, reporting the cold-start cost actually bought.
//
// Models are seeded exactly like bench/serve.cpp (Rng(17) + the shared
// warm_bn), so a generated resnet20_f32.plan is bit-identical in weights
// to the plan serve would compile itself at the same scale.
//
//   alf_planc --out DIR   [--quick|--full] [--batch N]
//   alf_planc --check DIR
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "engine/exec_context.hpp"
#include "engine/plan_io.hpp"
#include "models/zoo.hpp"

using namespace alf;
using namespace alf::bench;

namespace {

namespace fs = std::filesystem;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The zoo a blob directory carries: every builder serve/bench compile.
struct ZooEntry {
  const char* name;
  std::unique_ptr<Sequential> (*build)(const ModelConfig&, Rng&,
                                       const ConvMaker&);
};

int compile_dir(const std::string& dir, const Scale& s, size_t batch) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "alf_planc: cannot create '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  ModelConfig mc;
  mc.base_width = s.width;
  mc.in_hw = s.hw;

  const ZooEntry zoo[] = {
      {"plain20", &build_plain20},
      {"resnet18", &build_resnet18},
      {"resnet20", &build_resnet20},
  };

  Table table("alf_planc --out " + dir);
  table.set_header({"blob", "compile[ms]", "save[ms]", "size[KiB]"});
  for (const ZooEntry& z : zoo) {
    // Fresh fixed seed per model: the blob is reproducible, and resnet20
    // matches what serve compiles from its own Rng(17) replicas.
    Rng rng(17);
    auto model = z.build(mc, rng, standard_conv_maker(mc.init, &rng));
    warm_bn(*model, mc.in_channels, s.hw, rng);
    for (const char* backend : {"", "int8"}) {
      const bool quant = *backend != '\0';
      const std::string stem =
          std::string(z.name) + (quant ? "_int8" : "_f32");
      const auto t0 = std::chrono::steady_clock::now();
      EngineOptions opts;
      opts.backend = backend;
      opts.bits = 8;
      opts.name = stem;
      auto plan = Plan::compile(*model, batch, mc.in_channels, s.hw, s.hw,
                                opts);
      const double compile_ms = ms_since(t0);
      const std::string path = dir + "/" + stem + ".plan";
      const auto t1 = std::chrono::steady_clock::now();
      plan::save(*plan, path);
      const double save_ms = ms_since(t1);
      const double kib =
          static_cast<double>(fs::file_size(path)) / 1024.0;
      table.add_row({stem + ".plan", Table::fmt(compile_ms, 2),
                     Table::fmt(save_ms, 2), Table::fmt(kib, 1)});
    }
  }
  table.print();
  return 0;
}

int check_dir(const std::string& dir) {
  std::vector<fs::path> blobs;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".plan") blobs.push_back(e.path());
  }
  if (ec || blobs.empty()) {
    std::fprintf(stderr, "alf_planc: no *.plan blobs in '%s'\n",
                 dir.c_str());
    return 1;
  }
  std::sort(blobs.begin(), blobs.end());

  Rng rng(29);
  Table table("alf_planc --check " + dir);
  table.set_header({"blob", "backend", "steps", "load[ms]", "smoke"});
  double total_load_ms = 0.0;
  for (const fs::path& p : blobs) {
    const auto t0 = std::chrono::steady_clock::now();
    auto plan = plan::load(p.string());  // load runs Plan::verify() too
    const double load_ms = ms_since(t0);
    total_load_ms += load_ms;
    ExecContext ctx(plan);
    const Tensor x =
        random_input({1, plan->in_c(), plan->in_h(), plan->in_w()}, rng);
    const Tensor out = ctx.run(x);
    bool finite = out.numel() == plan->classes();
    for (size_t i = 0; i < out.numel(); ++i)
      finite = finite && std::isfinite(out.at(i));
    table.add_row({p.filename().string(), plan->backend_name(),
                   Table::fmt_int(static_cast<long long>(
                       plan->steps().size())),
                   Table::fmt(load_ms, 2), finite ? "ok" : "FAIL"});
    if (!finite) {
      table.print();
      std::fprintf(stderr, "alf_planc: smoke run of '%s' failed\n",
                   p.string().c_str());
      return 1;
    }
  }
  table.print();
  std::printf("%zu blobs, %.2fms total cold start (%.2fms/model)\n",
              blobs.size(), total_load_ms,
              total_load_ms / static_cast<double>(blobs.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Scale s = parse_scale(argc, argv);
  std::string out_dir, check;
  size_t batch = s.batch;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--out") == 0) out_dir = argv[i + 1];
    if (std::strcmp(argv[i], "--check") == 0) check = argv[i + 1];
    if (std::strcmp(argv[i], "--batch") == 0)
      batch = static_cast<size_t>(std::max(1L, std::atol(argv[i + 1])));
  }
  if (out_dir.empty() == check.empty()) {
    std::fprintf(stderr,
                 "usage: alf_planc --out DIR [--quick|--full] [--batch N]\n"
                 "       alf_planc --check DIR\n");
    return 2;
  }
  try {
    return check.empty() ? compile_dir(out_dir, s, batch)
                         : check_dir(check);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alf_planc: %s\n", e.what());
    return 1;
  }
}
