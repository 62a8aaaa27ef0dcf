// tensor.h — dense row-major float32 tensor used throughout the neural
// network library and the image simulator. Value-semantic: copying a Tensor
// deep-copies its buffer, which keeps ownership trivial to reason about
// (the network layers hold their parameters and activation caches by value).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace sne {

/// Shape of a tensor; at most 4 axes are used in practice (NCHW).
using Shape = std::vector<std::int64_t>;

class TensorView;
class ConstTensorView;

/// Dense row-major float tensor.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Every extent must be > 0.
  explicit Tensor(Shape shape);

  /// Tensor of the given shape with every element set to `fill`.
  Tensor(Shape shape, float fill);

  /// Tensor wrapping a copy of existing data; data.size() must equal the
  /// product of extents.
  Tensor(Shape shape, std::vector<float> data);

  /// 1-d tensor from an initializer list (convenience for tests).
  static Tensor from(std::initializer_list<float> values);

  /// Factory: elements drawn i.i.d. from N(mean, stddev).
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// Factory: elements drawn i.i.d. from U[lo, hi).
  static Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi);

  const Shape& shape() const noexcept { return shape_; }
  std::int64_t rank() const noexcept {
    return static_cast<std::int64_t>(shape_.size());
  }
  std::int64_t extent(std::int64_t axis) const;
  std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(data_.size());
  }
  bool empty() const noexcept { return data_.empty(); }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }
  std::span<float> flat() noexcept { return data_; }
  std::span<const float> flat() const noexcept { return data_; }

  /// Flat element access (bounds-checked in debug builds only).
  float& operator[](std::int64_t i) noexcept { return data_[i]; }
  float operator[](std::int64_t i) const noexcept { return data_[i]; }

  /// Multi-axis access; rank must match the number of indices.
  float& at(std::int64_t i0);
  float& at(std::int64_t i0, std::int64_t i1);
  float& at(std::int64_t i0, std::int64_t i1, std::int64_t i2);
  float& at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
            std::int64_t i3);
  float at(std::int64_t i0) const;
  float at(std::int64_t i0, std::int64_t i1) const;
  float at(std::int64_t i0, std::int64_t i1, std::int64_t i2) const;
  float at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
           std::int64_t i3) const;

  /// Returns a tensor with the same data and a new shape; element counts
  /// must match. A -1 extent is inferred from the remaining extents.
  /// The rvalue overload moves the buffer instead of deep-copying it, so
  /// `std::move(t).reshaped(...)` is free — used when feeding an owned
  /// sample into a model as a batch of one, and at the conv→FC flatten
  /// boundary of the inference path.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  /// Non-owning views over this tensor's buffer (tensor/view.h). A view
  /// is invalidated by anything that can reallocate or retag the buffer:
  /// resize, assignment, move-from, destruction.
  TensorView view();
  ConstTensorView view() const;

  /// Convenience: view().slice(axis, begin, end).
  TensorView slice(std::int64_t axis, std::int64_t begin, std::int64_t end);
  ConstTensorView slice(std::int64_t axis, std::int64_t begin,
                        std::int64_t end) const;

  /// In-place reshape/resize: sets the shape and grows or shrinks the
  /// buffer to match. Existing capacity is reused, so repeated resizes to
  /// shapes that fit do not allocate — the contract the inference arena
  /// relies on. When the element count is unchanged the data is preserved
  /// (a pure reshape); grown elements are zero-initialized.
  void resize(const Shape& new_shape);
  void resize(std::initializer_list<std::int64_t> new_shape);
  /// Span overload so `out.resize(view.shape())` works; reuses the shape
  /// vector's capacity, so same-rank resizes stay allocation-free.
  void resize(std::span<const std::int64_t> new_shape);

  /// In-place fills.
  void fill(float v) noexcept;
  void zero() noexcept { fill(0.0f); }

  // ---- elementwise arithmetic (shapes must match exactly) ----
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(const Tensor& rhs);
  Tensor& operator+=(float rhs) noexcept;
  Tensor& operator*=(float rhs) noexcept;
  friend Tensor operator+(Tensor lhs, const Tensor& rhs) { return lhs += rhs; }
  friend Tensor operator-(Tensor lhs, const Tensor& rhs) { return lhs -= rhs; }
  friend Tensor operator*(Tensor lhs, const Tensor& rhs) { return lhs *= rhs; }
  friend Tensor operator*(Tensor lhs, float rhs) { return lhs *= rhs; }
  friend Tensor operator*(float lhs, Tensor rhs) { return rhs *= lhs; }

  /// out += alpha * rhs (fused multiply-accumulate over the buffer).
  void axpy(float alpha, const Tensor& rhs);

  // ---- reductions ----
  float sum() const noexcept;
  float mean() const noexcept;
  float min() const;
  float max() const;
  /// Index of the maximum element (first on ties). Requires size() > 0.
  std::int64_t argmax() const;
  /// Square root of the sum of squared elements.
  float l2_norm() const noexcept;

  /// Human-readable "[2, 3, 4]" shape string for error messages and logs.
  std::string shape_string() const;

  /// True when both shape and every element match exactly.
  bool equals(const Tensor& other) const noexcept;

  /// True when shapes match and elements agree within `tol`.
  bool allclose(const Tensor& other, float tol = 1e-5f) const noexcept;

 private:
  std::int64_t flat_index(std::span<const std::int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

/// Throws std::invalid_argument with a descriptive message when the two
/// shapes differ. Used by the arithmetic operators and the nn library.
void check_same_shape(const Tensor& a, const Tensor& b, const char* op);

/// Product of extents; validates that every extent is positive.
std::int64_t shape_numel(const Shape& shape);

/// Resolves a requested reshape target against an element count: at most
/// one -1 extent is inferred from the rest, and the resolved shape's
/// element count must equal `size`. Shared by Tensor::reshaped and
/// TensorView::reshaped.
Shape resolve_reshape_shape(Shape new_shape, std::int64_t size);

}  // namespace sne
