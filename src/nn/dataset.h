// dataset.h — supervised dataset abstraction and batching. Datasets are
// index-addressable and stateless so that the simulator can render samples
// lazily (images are regenerated on demand from compact parameters instead
// of being held in memory).
//
// Batching is a first-class dataset operation: get_batch(indices, first,
// count) stacks a run of samples into batch tensors, and datasets whose
// per-sample work is thread-safe (the simulator factories) override it to
// fan sample synthesis across the shared sne::ThreadPool. Batches are
// bitwise identical for any thread count because get(i) is deterministic
// in i and stacking always happens in index order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace sne::nn {

/// One supervised example.
struct Sample {
  Tensor x;
  Tensor y;
};

/// Whether a dataset's get_batch may evaluate samples concurrently on the
/// shared thread pool. Parallel requires the per-sample path to be
/// thread-safe (no mutable shared state between get(i) calls).
enum class BatchMode { Serial, Parallel };

/// Index-addressable dataset. get(i) must be deterministic in i.
class Dataset {
 public:
  virtual ~Dataset() = default;
  virtual std::int64_t size() const = 0;
  virtual Sample get(std::int64_t index) const = 0;

  /// Stacks samples dataset[indices[first..first+count)] into the
  /// caller-provided batch tensors: out.x gains a leading batch axis, y
  /// likewise. `out` is resized (capacity is reused, so a warm buffer
  /// makes steady-state batching allocation-free for in-memory datasets)
  /// and every sample is written directly into its batch row through a
  /// subview — no intermediate stacking copy. The default evaluates
  /// get() serially in index order; overrides may synthesize samples
  /// concurrently but must produce bitwise-identical batches. Throws if
  /// any sample's x or y shape differs from the first one's.
  virtual void get_batch_into(const std::vector<std::int64_t>& indices,
                              std::size_t first, std::size_t count,
                              Sample& out) const;

  /// Allocating convenience wrapper over get_batch_into.
  Sample get_batch(const std::vector<std::int64_t>& indices,
                   std::size_t first, std::size_t count) const;
};

/// In-memory dataset over pre-materialized samples.
class VectorDataset final : public Dataset {
 public:
  explicit VectorDataset(std::vector<Sample> samples)
      : samples_(std::move(samples)) {}

  std::int64_t size() const override {
    return static_cast<std::int64_t>(samples_.size());
  }
  Sample get(std::int64_t index) const override {
    return samples_.at(static_cast<std::size_t>(index));
  }
  /// Stacks straight from the stored samples (no per-sample Tensor copy
  /// through get()).
  void get_batch_into(const std::vector<std::int64_t>& indices,
                      std::size_t first, std::size_t count,
                      Sample& out) const override;

 private:
  std::vector<Sample> samples_;
};

/// Dataset computed on the fly from a generator function. Constructed
/// with BatchMode::Parallel, get_batch fans generator calls across the
/// shared thread pool — the mode every simulator-backed factory uses,
/// since their generators only touch the stateless lazy renderers.
class LazyDataset final : public Dataset {
 public:
  LazyDataset(std::int64_t n, std::function<Sample(std::int64_t)> generator,
              BatchMode mode = BatchMode::Serial)
      : n_(n), generator_(std::move(generator)), mode_(mode) {}

  std::int64_t size() const override { return n_; }
  Sample get(std::int64_t index) const override { return generator_(index); }
  void get_batch_into(const std::vector<std::int64_t>& indices,
                      std::size_t first, std::size_t count,
                      Sample& out) const override;

 private:
  std::int64_t n_;
  std::function<Sample(std::int64_t)> generator_;
  BatchMode mode_ = BatchMode::Serial;
};

/// View of a subset of another dataset (used for train/val/test splits).
class SubsetDataset final : public Dataset {
 public:
  SubsetDataset(const Dataset& base, std::vector<std::int64_t> indices)
      : base_(&base), indices_(std::move(indices)) {}

  std::int64_t size() const override {
    return static_cast<std::int64_t>(indices_.size());
  }
  Sample get(std::int64_t index) const override {
    return base_->get(indices_.at(static_cast<std::size_t>(index)));
  }
  /// Remaps the index run and delegates to the base dataset, so a subset
  /// of a batch-parallel dataset stays batch-parallel.
  void get_batch_into(const std::vector<std::int64_t>& indices,
                      std::size_t first, std::size_t count,
                      Sample& out) const override;

 private:
  const Dataset* base_;
  std::vector<std::int64_t> indices_;
};

/// Evaluates every sample of a dataset once and stores the results in
/// memory. Batches flow through a prefetching DataLoader, so datasets
/// with a parallel get_batch materialize on the shared pool while the
/// stored copies are written. Worth it for small-footprint samples
/// (feature vectors, flux sequences) that are consumed over many epochs;
/// image datasets should stay lazy.
VectorDataset materialize(const Dataset& dataset);

/// Backwards-compatible wrapper over Dataset::get_batch.
Sample make_batch(const Dataset& dataset,
                  const std::vector<std::int64_t>& indices, std::size_t first,
                  std::size_t count);

/// Deterministic shuffled index split into train/val/test by fractions
/// (paper: 80/10/10). Fractions must sum to ≤ 1; remainder goes to test.
struct SplitIndices {
  std::vector<std::int64_t> train;
  std::vector<std::int64_t> val;
  std::vector<std::int64_t> test;
};
SplitIndices split_indices(std::int64_t n, double train_fraction,
                           double val_fraction, Rng& rng);

}  // namespace sne::nn
