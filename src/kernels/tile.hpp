// TileParams: per-call cache-blocking override for the f32 GEMM kernels.
//
// The built-in backends tuned their blocking constants (scalar's
// kBlockK/kBlockN, simd's kMc/kKc/kNc) for a generic L2; the per-shape
// autotuner (src/tune/) instead measures a small grid of alternatives per
// conv shape that still runs a GEMM (a backend without a gathered conv
// entry) and records the winner in the plan. A backend that can
// re-block per call exposes a `gemm_tiled` entry (kernels/backend.hpp)
// taking this struct; a zero field means "this backend's default", so the
// all-zero TileParams is always a valid candidate and reproduces the
// untuned kernel exactly.
//
// Blocking choices never change results: every backend keeps its global
// k-block accumulation-order contract *per (kc)*, so two different
// TileParams may differ in float rounding (different k grids), but one
// TileParams is bit-stable across thread counts, contexts, and batch
// packings — which is all the determinism contract promises.
//
// This header is deliberately tiny and dependency-free: the engine's Step
// (engine/plan.hpp) embeds a TileParams by value without pulling in the
// backend registry.
#pragma once

#include <cstdint>

namespace alf::kernels {

struct TileParams {
  uint32_t mc = 0;  ///< A-block rows per pack (simd); 0 = backend default
  uint32_t kc = 0;  ///< k extent of one accumulation block; 0 = default
  uint32_t nc = 0;  ///< column extent of one B block; 0 = default

  bool is_default() const { return mc == 0 && kc == 0 && nc == 0; }

  friend bool operator==(const TileParams& a, const TileParams& b) {
    return a.mc == b.mc && a.kc == b.kc && a.nc == b.nc;
  }
  friend bool operator!=(const TileParams& a, const TileParams& b) {
    return !(a == b);
  }
};

}  // namespace alf::kernels
