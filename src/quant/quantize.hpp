// Post-training weight quantization — the paper's Sec. II notes that
// quantization "is orthogonal to this work and can be applied in
// conjunction with the proposed ALF method"; this module demonstrates that
// claim (see tests/test_quant.cpp and examples/compare_pruners.cpp).
//
// Scheme: uniform symmetric quantization to the integer grid
// [-2^(bits-1)+1, 2^(bits-1)-1] with a per-tensor max-abs scale. Two
// consumers share it:
//   - fake-quant (quantize_dequantize / quantize_model_weights): values are
//     rounded to the grid and immediately de-quantized, so the float
//     pipeline is unchanged while weights carry exactly `bits` bits.
//   - packed export (quantize_tensor / quantize_view): values are rounded
//     to the grid and *kept* as int8 panels + scale, feeding the kernel
//     layer's real int8 qgemm (kernels/backend.hpp) — this is how a
//     compiled Plan lowers whole conv/linear steps to integer
//     arithmetic (Plan::compile with backend="int8").
#pragma once

#include <cstdint>
#include <vector>

#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace alf {

/// Per-tensor quantization parameters.
struct QuantParams {
  int bits = 8;
  float scale = 1.0f;  ///< float value of one integer step

  /// Largest representable magnitude.
  float max_value() const {
    return scale * static_cast<float>((1 << (bits - 1)) - 1);
  }
};

/// Chooses a symmetric max-abs scale for `t`. bits must be in [2, 16].
QuantParams calibrate_quant(const Tensor& t, int bits);

/// In-place fake quantization of `t` with the given parameters.
/// Returns the mean squared quantization error.
double quantize_dequantize(Tensor& t, const QuantParams& params);

/// Result of quantizing a whole model.
struct ModelQuantStats {
  size_t tensors = 0;
  double mean_sq_error = 0.0;  ///< averaged over quantized tensors
};

/// Fake-quantizes every task parameter of the model (conv/FC weights and
/// biases; BatchNorm scale/shift are left in float, the usual practice).
ModelQuantStats quantize_model_weights(Sequential& model, int bits);

/// Metadata of a packed int8 panel: the source shape and the grid, WITHOUT
/// the payload bytes. This is the split compiled plans keep — metadata in
/// the step list, the int8 payload resident in the plan's single weight
/// arena — so a serialized plan mmaps its panels back in place instead of
/// re-quantizing (engine/plan_io.hpp). Standalone users get the owning
/// bundle below.
struct PackedInt8Meta {
  Shape shape;
  QuantParams params;  ///< scale chosen by max-abs calibration

  /// De-quantized float value of one grid element (exact: grid * scale).
  float dequant_value(int8_t q) const {
    return static_cast<float>(q) * params.scale;
  }
};

/// Owning bundle: metadata plus the payload, the packed int8 form the
/// kernel layer's qgemm consumes — row-major int8 values on the symmetric
/// grid, one per source element. `bits` <= 8 narrows the grid (Table 3
/// bit-width sweeps) while the storage stays int8.
struct PackedInt8 : PackedInt8Meta {
  std::vector<int8_t> data;

  /// De-quantized float value of element i.
  float dequant(size_t i) const { return dequant_value(data[i]); }
};

/// Calibrates (max-abs symmetric) and packs `t` to int8. bits in [2, 8].
PackedInt8 quantize_tensor(const Tensor& t, int bits);

/// Arena-resident form: calibrates `t` and packs it into caller storage
/// `dst` (t.numel() bytes, e.g. a slice of a plan's weight arena);
/// returns only the metadata. quantize_tensor composes this with an
/// owning buffer.
PackedInt8Meta quantize_tensor_into(const Tensor& t, int bits, int8_t* dst);

/// Raw packing core: rounds `n` floats onto the symmetric grid of
/// `params` and stores them as int8. Used per-run by the engine to
/// quantize activations into arena scratch without allocating.
void quantize_view(const float* src, size_t n, const QuantParams& params,
                   int8_t* dst);

/// Max-abs over a raw range (the calibration statistic for quantize_view).
float max_abs_view(const float* src, size_t n);

}  // namespace alf
