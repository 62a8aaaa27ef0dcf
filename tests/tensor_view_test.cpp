// tensor_view_test.cpp — the zero-copy view layer: aliasing (subview
// writes land in the parent buffer), lifetime and bounds guards, the
// contiguity contract of data(), strided gather/scatter round-trips, and
// the allocation-free construction pin the batch path and the inference
// arena rely on. Runs under the asan preset to make the aliasing and
// lifetime claims real.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "tensor/tensor.h"
#include "tensor/view.h"

// Allocation counter for the view-construction pin; armed only inside
// the measured window so gtest bookkeeping stays invisible.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sne {
namespace {

Tensor iota_tensor(Shape shape) {
  Tensor t(std::move(shape));
  std::iota(t.data(), t.data() + t.size(), 0.0f);
  return t;
}

TEST(TensorView, WholeTensorViewIsContiguousAndAliases) {
  Tensor t = iota_tensor({2, 3});
  ConstTensorView v = t;  // implicit
  EXPECT_EQ(v.rank(), 2);
  EXPECT_EQ(v.extent(0), 2);
  EXPECT_EQ(v.extent(1), 3);
  EXPECT_EQ(v.size(), 6);
  EXPECT_TRUE(v.is_contiguous());
  EXPECT_EQ(v.data(), t.data());  // aliasing, not a copy

  // Writes through a mutable view land in the tensor.
  t.view()[4] = 99.0f;
  EXPECT_FLOAT_EQ(t[4], 99.0f);
  EXPECT_FLOAT_EQ(v[4], 99.0f);
}

TEST(TensorView, LeadingAxisSliceIsContiguousRowWindow) {
  Tensor t = iota_tensor({4, 3});
  ConstTensorView row = t.view().slice(0, 2, 3);
  EXPECT_EQ(row.extent(0), 1);
  EXPECT_EQ(row.extent(1), 3);
  EXPECT_TRUE(row.is_contiguous());  // extent-1 axis is layout-neutral
  EXPECT_EQ(row.data(), t.data() + 2 * 3);
  EXPECT_FLOAT_EQ(row.at(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(row.at(0, 2), 8.0f);
}

TEST(TensorView, SubviewWritesLandInParent) {
  Tensor t({4, 3}, 0.0f);
  t.slice(0, 1, 3).fill(7.0f);
  for (std::int64_t i = 0; i < t.size(); ++i) {
    EXPECT_FLOAT_EQ(t[i], (i >= 3 && i < 9) ? 7.0f : 0.0f) << "i=" << i;
  }

  // Strided (non-leading-axis) subview: column 1 of every row.
  t.zero();
  t.slice(1, 1, 2).fill(5.0f);
  for (std::int64_t r = 0; r < 4; ++r) {
    EXPECT_FLOAT_EQ(t.at(r, 0), 0.0f);
    EXPECT_FLOAT_EQ(t.at(r, 1), 5.0f);
    EXPECT_FLOAT_EQ(t.at(r, 2), 0.0f);
  }
}

TEST(TensorView, NonLeadingSliceIsStridedAndDataThrows) {
  Tensor t = iota_tensor({3, 4});
  ConstTensorView col = t.view().slice(1, 1, 3);  // [3, 2], stride {4, 1}
  EXPECT_FALSE(col.is_contiguous());
  EXPECT_THROW(col.data(), std::logic_error);
  EXPECT_THROW(col.reshaped({6}), std::logic_error);
  // at() walks the strides correctly.
  EXPECT_FLOAT_EQ(col.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(col.at(2, 1), 10.0f);
}

TEST(TensorView, OutOfRangeSliceAndAccessThrow) {
  Tensor t = iota_tensor({3, 4});
  EXPECT_THROW(t.view().slice(2, 0, 1), std::out_of_range);   // bad axis
  EXPECT_THROW(t.view().slice(0, 0, 4), std::out_of_range);   // end too far
  EXPECT_THROW(t.view().slice(0, 2, 2), std::out_of_range);   // empty range
  EXPECT_THROW(t.view().slice(0, -1, 2), std::out_of_range);  // negative
  ConstTensorView v = t;
  EXPECT_THROW(v.at(3, 0), std::out_of_range);
  EXPECT_THROW(v.at(0, 4), std::out_of_range);
  EXPECT_THROW(v.at(0), std::invalid_argument);  // rank mismatch
  EXPECT_THROW(v.extent(2), std::out_of_range);
}

TEST(TensorView, StridedCopyRoundTrip) {
  Tensor t = iota_tensor({3, 5});
  ConstTensorView cols = t.view().slice(1, 1, 4);  // strided [3, 3]

  // Gather into a dense tensor...
  Tensor dense;
  cols.copy_to(dense);
  ASSERT_EQ(dense.shape(), (Shape{3, 3}));
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(dense.at(r, c), t.at(r, c + 1));
    }
  }

  // ...mutate, scatter back through the strided view, and check the
  // untouched columns survived.
  dense.fill(-1.0f);
  t.slice(1, 1, 4).copy_from(dense);
  for (std::int64_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(t.at(r, 0), static_cast<float>(r * 5));
    for (std::int64_t c = 1; c < 4; ++c) EXPECT_FLOAT_EQ(t.at(r, c), -1.0f);
    EXPECT_FLOAT_EQ(t.at(r, 4), static_cast<float>(r * 5 + 4));
  }
}

TEST(TensorView, CopyFromRequiresExactShape) {
  Tensor dst({2, 3});
  Tensor src({3, 2});
  EXPECT_THROW(dst.view().copy_from(src), std::invalid_argument);
  EXPECT_THROW(dst.view().copy_from(src.view().reshaped({6})),
               std::invalid_argument);
  // Matching shape goes through.
  dst.view().copy_from(src.view().reshaped({2, 3}));
}

TEST(TensorView, ReshapeIsViewReinterpretation) {
  Tensor t = iota_tensor({2, 2, 3});
  ConstTensorView flat = t.view().reshaped({2, -1});
  EXPECT_EQ(flat.extent(0), 2);
  EXPECT_EQ(flat.extent(1), 6);
  EXPECT_EQ(flat.data(), t.data());  // same storage, new coordinates
  EXPECT_THROW(t.view().reshaped({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.view().reshaped({-1, -1}), std::invalid_argument);
}

TEST(TensorView, BatchRowStagingPattern) {
  // The get_batch stacking pattern: each sample lands in its batch row
  // through slice(0, k, k+1).reshaped(sample shape).copy_from(sample).
  Tensor batch({3, 2, 2});
  for (std::int64_t k = 0; k < 3; ++k) {
    Tensor sample({2, 2}, static_cast<float>(k + 1));
    batch.slice(0, k, k + 1).reshaped(sample.shape()).copy_from(sample);
  }
  for (std::int64_t k = 0; k < 3; ++k) {
    for (std::int64_t i = 0; i < 4; ++i) {
      EXPECT_FLOAT_EQ(batch[k * 4 + i], static_cast<float>(k + 1));
    }
  }
}

TEST(TensorView, ConstructionSliceAndReshapeAreAllocationFree) {
  // The inference arena and snapshot batch path mint views per step;
  // view construction touching the allocator would break their
  // steady-state zero-allocation pins.
  Tensor t = iota_tensor({4, 2, 3, 3});
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  ConstTensorView v = t;
  ConstTensorView rows = v.slice(0, 1, 3);
  ConstTensorView flat = rows.reshaped({2, -1});
  TensorView w = t.view();
  TensorView wrow = w.slice(0, 0, 1);
  const float first = flat[0] + wrow[0] + v[0];
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0);
  EXPECT_FLOAT_EQ(first, 2.0f * t[0] + t[2 * 3 * 3]);
}

TEST(TensorView, RankLimitIsEnforced) {
  const float buf[1] = {0.0f};
  const std::vector<std::int64_t> shape(7, 1);  // kMaxRank is 6
  EXPECT_THROW(ConstTensorView(buf, ConstTensorView::Extents(shape)),
               std::invalid_argument);
}

}  // namespace
}  // namespace sne
