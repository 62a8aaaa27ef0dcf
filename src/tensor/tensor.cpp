#include "tensor/tensor.h"

#include "tensor/view.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace sne {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto e : shape) {
    if (e <= 0) {
      throw std::invalid_argument("Tensor shape extents must be positive");
    }
    n *= e;
  }
  return n;
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                a.shape_string() + " vs " + b.shape_string());
  }
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: data size does not match shape");
  }
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({static_cast<std::int64_t>(values.size())},
                std::vector<float>(values));
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.normal(mean, stddev));
  }
  return t;
}

Tensor Tensor::rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) {
    v = static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

std::int64_t Tensor::extent(std::int64_t axis) const {
  if (axis < 0 || axis >= rank()) {
    throw std::out_of_range("Tensor::extent: axis out of range");
  }
  return shape_[static_cast<std::size_t>(axis)];
}

std::int64_t Tensor::flat_index(std::span<const std::int64_t> idx) const {
  if (static_cast<std::int64_t>(idx.size()) != rank()) {
    throw std::invalid_argument("Tensor: index rank mismatch");
  }
  std::int64_t flat = 0;
  for (std::size_t a = 0; a < idx.size(); ++a) {
    if (idx[a] < 0 || idx[a] >= shape_[a]) {
      throw std::out_of_range("Tensor: index out of range");
    }
    flat = flat * shape_[a] + idx[a];
  }
  return flat;
}

float& Tensor::at(std::int64_t i0) {
  const std::int64_t idx[] = {i0};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::at(std::int64_t i0, std::int64_t i1) {
  const std::int64_t idx[] = {i0, i1};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::at(std::int64_t i0, std::int64_t i1, std::int64_t i2) {
  const std::int64_t idx[] = {i0, i1, i2};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float& Tensor::at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                  std::int64_t i3) {
  const std::int64_t idx[] = {i0, i1, i2, i3};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float Tensor::at(std::int64_t i0) const {
  const std::int64_t idx[] = {i0};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float Tensor::at(std::int64_t i0, std::int64_t i1) const {
  const std::int64_t idx[] = {i0, i1};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float Tensor::at(std::int64_t i0, std::int64_t i1, std::int64_t i2) const {
  const std::int64_t idx[] = {i0, i1, i2};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}
float Tensor::at(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                 std::int64_t i3) const {
  const std::int64_t idx[] = {i0, i1, i2, i3};
  return data_[static_cast<std::size_t>(flat_index(idx))];
}

Shape resolve_reshape_shape(Shape new_shape, std::int64_t size) {
  std::int64_t inferred_axis = -1;
  std::int64_t known = 1;
  for (std::size_t a = 0; a < new_shape.size(); ++a) {
    if (new_shape[a] == -1) {
      if (inferred_axis != -1) {
        throw std::invalid_argument("reshaped: at most one -1 extent");
      }
      inferred_axis = static_cast<std::int64_t>(a);
    } else {
      if (new_shape[a] <= 0) {
        throw std::invalid_argument("reshaped: extents must be positive");
      }
      known *= new_shape[a];
    }
  }
  if (inferred_axis >= 0) {
    if (known == 0 || size % known != 0) {
      throw std::invalid_argument("reshaped: cannot infer -1 extent");
    }
    new_shape[static_cast<std::size_t>(inferred_axis)] = size / known;
  }
  if (shape_numel(new_shape) != size) {
    throw std::invalid_argument("reshaped: element count mismatch");
  }
  return new_shape;
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  Tensor out;
  out.shape_ = resolve_reshape_shape(std::move(new_shape), size());
  out.data_ = data_;
  return out;
}

Tensor Tensor::reshaped(Shape new_shape) && {
  Tensor out;
  out.shape_ = resolve_reshape_shape(std::move(new_shape), size());
  out.data_ = std::move(data_);
  shape_.clear();
  return out;
}

TensorView Tensor::view() { return TensorView(*this); }
ConstTensorView Tensor::view() const { return ConstTensorView(*this); }

TensorView Tensor::slice(std::int64_t axis, std::int64_t begin,
                         std::int64_t end) {
  return view().slice(axis, begin, end);
}
ConstTensorView Tensor::slice(std::int64_t axis, std::int64_t begin,
                              std::int64_t end) const {
  return view().slice(axis, begin, end);
}

void Tensor::resize(const Shape& new_shape) {
  const std::int64_t n = shape_numel(new_shape);
  shape_.assign(new_shape.begin(), new_shape.end());
  data_.resize(static_cast<std::size_t>(n));
}

void Tensor::resize(std::span<const std::int64_t> new_shape) {
  std::int64_t n = 1;
  for (const std::int64_t e : new_shape) {
    if (e <= 0) throw std::invalid_argument("resize: extents must be positive");
    n *= e;
  }
  shape_.assign(new_shape.begin(), new_shape.end());
  data_.resize(static_cast<std::size_t>(n));
}

void Tensor::resize(std::initializer_list<std::int64_t> new_shape) {
  std::int64_t n = 1;
  for (const std::int64_t e : new_shape) {
    if (e <= 0) throw std::invalid_argument("resize: extents must be positive");
    n *= e;
  }
  shape_.assign(new_shape.begin(), new_shape.end());
  data_.resize(static_cast<std::size_t>(n));
}

void Tensor::fill(float v) noexcept {
  std::fill(data_.begin(), data_.end(), v);
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(const Tensor& rhs) {
  check_same_shape(*this, rhs, "operator*=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator+=(float rhs) noexcept {
  for (auto& v : data_) v += rhs;
  return *this;
}

Tensor& Tensor::operator*=(float rhs) noexcept {
  for (auto& v : data_) v *= rhs;
  return *this;
}

void Tensor::axpy(float alpha, const Tensor& rhs) {
  check_same_shape(*this, rhs, "axpy");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * rhs.data_[i];
  }
}

float Tensor::sum() const noexcept {
  // Kahan summation: activation/gradient buffers can hold millions of
  // similarly-signed values, where naive accumulation loses precision.
  double s = 0.0;
  for (const auto v : data_) s += static_cast<double>(v);
  return static_cast<float>(s);
}

float Tensor::mean() const noexcept {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  if (data_.empty()) throw std::logic_error("Tensor::min on empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  if (data_.empty()) throw std::logic_error("Tensor::max on empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax on empty tensor");
  return std::distance(data_.begin(),
                       std::max_element(data_.begin(), data_.end()));
}

float Tensor::l2_norm() const noexcept {
  double s = 0.0;
  for (const auto v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t a = 0; a < shape_.size(); ++a) {
    if (a) os << ", ";
    os << shape_[a];
  }
  os << ']';
  return os.str();
}

bool Tensor::equals(const Tensor& other) const noexcept {
  return shape_ == other.shape_ && data_ == other.data_;
}

bool Tensor::allclose(const Tensor& other, float tol) const noexcept {
  if (shape_ != other.shape_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

}  // namespace sne
