// Per-shape autotuner: enumerate candidate (backend, tile) choices for one
// conv/linear shape, microbenchmark each on realistic data, and return the
// winner. The chunk grid is not a candidate dimension: a plan runs all its
// per-image steps on its one grid (engine/exec_context.hpp).
//
// The tuner plugs into Plan::compile (TuneMode::kCached / kFull): compile
// extracts a TuneShape per GEMM-bearing step, asks choose(), and bakes the
// returned AlgoChoice into the Step. Decisions persist in the AlgoCache
// (tune/algo_cache.hpp) keyed by shape_key(), so a shape is measured once
// per host; a warm cache means a kCached compile performs ZERO measurement
// runs (asserted by tests on tune::stats().measure_runs).
//
// Measurement builds a throwaway single-layer model of the exact shape,
// compiles it with the candidate FORCED (EngineOptions::force_choices) and
// tuning disabled (kHeuristic — the recursion guard), then times min-of-K
// forward passes on fixed-seed random data. min-of-K because the noise on
// a shared machine is one-sided; K is set_reps() (alf_planc --quick lowers
// it).
//
// Winner selection starts from the heuristic choice and requires a >3%
// improvement to move off it, so `tuned >= heuristic` holds modulo noise
// by construction — the tuner can only ever confirm or beat the built-in
// predicates, never regress them.
#pragma once

#include <string>
#include <vector>

#include "engine/plan.hpp"
#include "tensor/ops.hpp"
#include "tune/algo_cache.hpp"

namespace alf::tune {

/// Everything that determines which candidates are legal for one step and
/// how fast each runs — the microbenchmark reproduces exactly this shape.
struct TuneShape {
  bool is_conv = true;
  ConvGeom geom;            ///< conv geometry (is_conv)
  size_t out_c = 0;         ///< conv output channels
  size_t in_features = 0;   ///< linear (is_conv == false)
  size_t out_features = 0;
  bool quantized = false;   ///< step lowered to the int8 datapath
  int qbits = 8;
  bool in_nonneg = false;   ///< asymmetric activation grid (quantized)
  size_t batch = 1;         ///< plan batch size
  size_t chunks = 1;        ///< the plan's compile-time chunk grid (key only)
  std::string plan_backend; ///< plan backend name (datapath anchor)
};

/// Stable cache key of a shape, e.g.
///   conv:c16:h32:w32:k3:s1:p1:o16:q0:nn0:b8:t4
///   linear:i256:o10:q1:nn1:b8
/// The backend SET is in the cache stamp, not the key; the datapath is in
/// the key via q/nn/qbits.
std::string shape_key(const TuneShape& shape);

/// Legal candidates for the shape under the current feature mask: the
/// heuristic default first, then every usable backend, plus tiles (only on
/// backends whose convs issue a GEMM: no conv entry).
/// Every candidate is bit-reproducible on its own; candidates may differ
/// from each other in float rounding (different k-blocking), which is why
/// the choice is cached — one choice, one result.
std::vector<AlgoChoice> candidates(const TuneShape& shape);

/// Times one candidate on the shape: forced compile + warmup + min-of-reps
/// forward passes. Returns milliseconds per batch.
double measure_choice(const TuneShape& shape, const AlgoChoice& choice);

/// The decision for a shape under `mode` (kCached consults and fills
/// `cache`; kFull re-measures and overwrites). The caller saves the cache
/// once after all steps (AlgoCache::save).
AlgoChoice choose(const TuneShape& shape, TuneMode mode, AlgoCache& cache);

/// Measurement repetitions per candidate (min-of-K); default 3.
void set_reps(int reps);
int reps();

}  // namespace alf::tune
