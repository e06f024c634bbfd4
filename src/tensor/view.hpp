// Non-owning weight views: how compiled plans reference their payloads.
//
// A compiled Plan (engine/plan.hpp) stores every weight payload — folded
// float matrices, int8 panels, per-channel scales — in ONE page-aligned
// arena, and its steps address them through the two view types here
// instead of owning containers. The payoff is that a plan's
// weights are relocatable: alf::plan::save writes the arena as a single
// blob section and load mmaps it back read-only, rebinding the views by
// (offset, dims) fixup with no copy, no re-quantize, no re-pack
// (engine/plan_io.hpp). The kernels never notice — the view API mirrors
// the Tensor/std::vector subset they already consumed.
//
// Both types are trivially copyable handles (pointer + extents) with
// reference semantics; they never allocate and never free. Lifetime is the
// caller's problem by design: inside the engine every view points into the
// plan's arena, which outlives every ExecContext that runs it.
#pragma once

#include <cstddef>

#include "core/check.hpp"

namespace alf {

/// Non-owning, read-only view of a contiguous row-major float tensor of
/// rank <= 3. Mirrors the const subset of Tensor that the execution layer
/// uses (data/empty/numel/rank/dim/at), so a Step field can change from
/// `Tensor` to `TensorView` without touching the kernels.
class TensorView {
 public:
  static constexpr size_t kMaxRank = 3;

  /// Empty view (rank 0, no data) — the "this step has no such weight"
  /// state, matching Tensor's default construction.
  TensorView() = default;

  /// View of `data` with the given dims (rank = count of dims, <= 3).
  /// `data` may be null only when the element count is zero.
  TensorView(const float* data, const size_t* dims, size_t rank)
      : data_(data), rank_(rank) {
    ALF_CHECK(rank <= kMaxRank) << "TensorView rank " << rank;
    numel_ = rank > 0 ? 1 : 0;
    for (size_t d = 0; d < rank; ++d) {
      dims_[d] = dims[d];
      numel_ *= dims[d];
    }
    ALF_CHECK(data_ != nullptr || numel_ == 0) << "null TensorView data";
  }

  TensorView(const float* data, std::initializer_list<size_t> dims)
      : TensorView(data, dims.begin(), dims.size()) {}

  const float* data() const { return data_; }
  bool empty() const { return numel_ == 0; }
  size_t numel() const { return numel_; }
  size_t rank() const { return rank_; }

  /// Size of dimension `d`; checked.
  size_t dim(size_t d) const {
    ALF_CHECK(d < rank_) << "TensorView dim " << d << " of rank " << rank_;
    return dims_[d];
  }

  /// Bounds-checked flat element access.
  float at(size_t i) const {
    ALF_CHECK(i < numel_) << "TensorView index " << i << " of " << numel_;
    return data_[i];
  }

  /// Bounds-checked 2-D access; requires rank()==2.
  float at(size_t r, size_t c) const {
    ALF_CHECK(rank_ == 2 && r < dims_[0] && c < dims_[1])
        << "TensorView at(" << r << ", " << c << ")";
    return data_[r * dims_[1] + c];
  }

 private:
  const float* data_ = nullptr;
  size_t dims_[kMaxRank] = {0, 0, 0};
  size_t rank_ = 0;
  size_t numel_ = 0;
};

/// Non-owning, read-only view of a contiguous element run — the
/// std::vector stand-in for a Step's int8 panel (`qw`) and per-channel
/// scales (`qw_scales`). Iterable so range-for call sites keep compiling.
template <typename T>
class ConstSpan {
 public:
  ConstSpan() = default;

  ConstSpan(const T* data, size_t size) : data_(data), size_(size) {
    ALF_CHECK(data_ != nullptr || size_ == 0) << "null ConstSpan data";
  }

  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T operator[](size_t i) const {
    ALF_CHECK(i < size_) << "ConstSpan index " << i << " of " << size_;
    return data_[i];
  }

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  const T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace alf
