// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure).
//
// Every harness runs at a reduced default scale so the whole suite finishes
// in minutes on a laptop-class single core (see EXPERIMENTS.md for the
// scaled-vs-paper hyper-parameter mapping). Flags:
//   --quick   even smaller (CI smoke run)
//   --full    closer to paper scale (minutes -> hours)
// Params/OPs columns are ALWAYS computed on the full-scale architecture via
// the analytic cost models; only *training* runs are scaled.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "alf/deploy.hpp"
#include "alf/trainer.hpp"
#include "core/check.hpp"
#include "core/table.hpp"
#include "models/cost.hpp"
#include "models/zoo.hpp"

namespace alf::bench {

// ---------------------------------------------------------------------------
// Machine-readable benchmark emission (--json <path>). Every harness prints
// human tables; with --json it additionally writes a BENCH_*.json record so
// the perf trajectory is diffable per-PR (see ROADMAP).
// ---------------------------------------------------------------------------

/// Escapes `s` for embedding inside a JSON string literal: `"` and `\`
/// get a backslash, common control characters use their short forms, and
/// the rest of C0 is emitted as \u00XX. Every string field of BenchJson
/// goes through this — row names carry free-form config descriptions
/// (quotes included), and an unescaped one would corrupt the BENCH_*.json
/// trajectory record.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Nearest-rank percentile of the sample `v`, p in [0, 1]: the smallest
/// element such that at least ceil(p * n) values are <= it (p = 0 gives the
/// minimum, p = 1 the maximum). Used by the serve load generator; takes
/// the sample by value and sorts the copy.
inline double percentile(std::vector<double> v, double p) {
  ALF_CHECK(!v.empty()) << "percentile of an empty sample";
  ALF_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(v.size(), rank) - 1];
}

/// Uniform [-1, 1) input tensor — the stand-in image batch every engine
/// and serving harness replays.
inline Tensor random_input(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.numel(); ++i)
    t.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

/// Runs a few training-mode forwards so BatchNorm running statistics move
/// off their (0, 1) initialization — BN folding is trivial otherwise.
inline void warm_bn(Sequential& model, size_t in_c, size_t hw, Rng& rng,
                    int passes = 2, size_t batch = 8) {
  for (int p = 0; p < passes; ++p) {
    Tensor x = random_input({batch, in_c, hw, hw}, rng);
    model.forward(x, /*train=*/true);
  }
}

/// One benchmark measurement. NaN columns are omitted from the JSON.
struct BenchRow {
  std::string name;
  double wall_ms = std::nan("");
  double gmadds_per_s = std::nan("");
  double accuracy = std::nan("");     ///< fraction in [0, 1]
  double compression = std::nan("");  ///< remaining-parameter fraction
  std::map<std::string, double> extra;
  /// Free-form string annotations (CPU features, backend names, ...);
  /// emitted as JSON string fields alongside the numeric extras.
  std::map<std::string, std::string> extra_str;
};

/// Collects rows and writes `{"bench":..., "scale":..., "rows":[...]}`.
class BenchJson {
 public:
  BenchJson(std::string bench, std::string scale)
      : bench_(std::move(bench)), scale_(std::move(scale)) {}

  /// Appends a row and returns it for field assignment.
  BenchRow& row(std::string name) {
    rows_.push_back(BenchRow{});
    rows_.back().name = std::move(name);
    return rows_.back();
  }

  bool empty() const { return rows_.empty(); }

  /// Writes the JSON file; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"bench\": \"%s\", \"scale\": \"%s\", \"rows\": [",
                 json_escape(bench_).c_str(), json_escape(scale_).c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const BenchRow& r = rows_[i];
      std::fprintf(f, "%s\n  {\"name\": \"%s\"", i == 0 ? "" : ",",
                   json_escape(r.name).c_str());
      const auto field = [f](const std::string& key, double v) {
        if (!std::isnan(v))
          std::fprintf(f, ", \"%s\": %.6g", json_escape(key).c_str(), v);
      };
      field("wall_ms", r.wall_ms);
      field("gmadds_per_s", r.gmadds_per_s);
      field("accuracy", r.accuracy);
      field("compression", r.compression);
      for (const auto& [key, v] : r.extra) field(key, v);
      for (const auto& [key, v] : r.extra_str)
        std::fprintf(f, ", \"%s\": \"%s\"", json_escape(key).c_str(),
                     json_escape(v).c_str());
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string bench_, scale_;
  std::vector<BenchRow> rows_;
};

/// Returns the value of `--json <path>` (empty if absent).
inline std::string parse_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  return "";
}

/// Experiment scale selected by command-line flags.
struct Scale {
  const char* name = "default";
  size_t train_n = 512;
  size_t test_n = 256;
  size_t hw = 16;          ///< training resolution (paper: 32)
  size_t width = 8;        ///< base width of the CIFAR models (paper: 16)
  size_t epochs = 24;
  size_t batch = 32;
  size_t sweep_train_n = 256;  ///< smaller set for many-config sweeps
  size_t sweep_epochs = 8;
  size_t ae_steps = 2;       ///< autoencoder steps per task step
  float lr_ae = 1e-3f;       ///< autoencoder lr (paper value)
  float lr_mask_mult = 80.0f;  ///< mask-lr multiplier (scaled schedule)
  float threshold = 0.15f;   ///< scaled clipping threshold (paper: 1e-4)
  float pr_max = 0.62f;      ///< scaled pruning ceiling (paper: 0.85)
  size_t mask_warmup = 64;   ///< AE steps before mask updates begin
};

inline Scale parse_scale(int argc, char** argv) {
  Scale s;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      s.name = "quick";
      s.train_n = 256;
      s.test_n = 128;
      s.epochs = 10;
      s.sweep_train_n = 128;
      s.sweep_epochs = 4;
      // Few optimizer steps: compensate with a faster mask descent so the
      // pruning equilibrium is still reached.
      s.lr_mask_mult = 200.0f;
      s.mask_warmup = 24;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      s.name = "full";
      s.train_n = 2048;
      s.test_n = 512;
      s.hw = 32;
      s.width = 16;
      s.epochs = 48;
      s.sweep_train_n = 1024;
      s.sweep_epochs = 16;
      s.lr_mask_mult = 40.0f;
      s.threshold = 0.1f;
      s.pr_max = 0.7f;
      s.mask_warmup = 256;
    }
  }
  return s;
}

/// The CIFAR-10 substitute at the selected resolution.
inline DataConfig cifar_task(const Scale& s) {
  DataConfig cfg = DataConfig::cifar_like();
  cfg.height = cfg.width = s.hw;
  cfg.max_shift = static_cast<int>(s.hw / 16);
  return cfg;
}

/// The ImageNet substitute (more classes) at the selected resolution.
inline DataConfig imagenet_task(const Scale& s) {
  DataConfig cfg = DataConfig::imagenet_like();
  cfg.height = cfg.width = s.hw;
  cfg.max_shift = static_cast<int>(s.hw / 16);
  return cfg;
}

/// ALF hyper-parameters at the selected scale (paper defaults otherwise).
/// Near-identity autoencoder init keeps the STE a descent direction (see
/// DESIGN.md "STE validity"); the Fig. 2b harness sweeps the paper's
/// rand/he/xavier alternatives explicitly.
inline AlfConfig alf_config(const Scale& s) {
  AlfConfig cfg;
  cfg.lr_ae = s.lr_ae;
  cfg.lr_mask_mult = s.lr_mask_mult;
  cfg.threshold = s.threshold;
  cfg.pr_max = s.pr_max;
  cfg.mask_warmup_steps = s.mask_warmup;
  cfg.wae_init = Init::kIdentity;
  return cfg;
}

/// Task-training hyper-parameters at the selected scale.
inline TrainConfig train_config(const Scale& s, uint64_t seed = 7) {
  TrainConfig cfg;
  cfg.epochs = s.epochs;
  cfg.batch_size = s.batch;
  cfg.task.lr = 0.05f;
  cfg.lr_milestones = {s.epochs / 2, (3 * s.epochs) / 4};
  cfg.ae_steps_per_batch = s.ae_steps;
  cfg.seed = seed;
  return cfg;
}

/// Per-layer remaining-filter fractions keyed by conv name.
inline std::map<std::string, double> fractions_by_name(
    const std::vector<AlfConv*>& blocks) {
  std::map<std::string, double> out;
  for (AlfConv* b : blocks) out[b->name()] = b->remaining_fraction();
  return out;
}

/// Keep fractions for baseline pruning keyed by conv name.
inline std::map<std::string, double> keep_by_name(
    const std::vector<Conv2d*>& convs, const std::vector<double>& fracs) {
  std::map<std::string, double> out;
  for (size_t i = 0; i < convs.size(); ++i) out[convs[i]->name()] = fracs[i];
  return out;
}

/// Signed " (+N%)"/" (-N%)" delta-vs-baseline suffix shared by params_cell
/// and ops_cell. Negative is the compression direction (value < base); a
/// model that *grew* past baseline reports "(+N%)", not "(--N%)".
inline std::string delta_suffix(double value, double base) {
  const double delta = 100.0 * (value / base - 1.0);
  return std::string(" (") + (delta < 0.0 ? "-" : "+") +
         Table::fmt(std::abs(delta), 0) + "%)";
}

/// "0.07M (-70%)"-style cell.
inline std::string params_cell(unsigned long long params,
                               unsigned long long base) {
  std::string cell = Table::fmt(params / 1e6, 2) + "M";
  if (base != 0 && params != base)
    cell += delta_suffix(static_cast<double>(params),
                         static_cast<double>(base));
  return cell;
}

/// "31.5 (-61%)"-style OPs cell in millions.
inline std::string ops_cell(unsigned long long ops, unsigned long long base) {
  std::string cell = Table::fmt(ops / 1e6, 1);
  if (base != 0 && ops != base)
    cell += delta_suffix(static_cast<double>(ops), static_cast<double>(base));
  return cell;
}

}  // namespace alf::bench
