// trainer.h — generic mini-batch training loop shared by the flux CNN,
// the light-curve classifier, the joint model and the GRU baseline. The
// loop is deliberately plain: shuffle, batch, forward, loss, backward,
// clip, step — with per-epoch train/validation statistics collected for
// the convergence figures (Fig. 12). Batches are delivered by a
// DataLoader, so sample synthesis overlaps with the forward/backward
// pass (and fans across the pool for batch-parallel datasets) without
// changing any statistic: results are bitwise identical for any
// prefetch depth or thread count.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nn/data_loader.h"
#include "nn/dataset.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/optimizer.h"

namespace sne::nn {

/// Loss adapter: maps (prediction, target) to value + gradient.
using LossFn = std::function<LossResult(const Tensor&, const Tensor&)>;

/// Optional scalar metric (e.g. binary accuracy) computed alongside loss.
using MetricFn = std::function<float(const Tensor&, const Tensor&)>;

/// Per-epoch statistics; validation fields are NaN when no validation set
/// was supplied.
struct EpochStats {
  std::int64_t epoch = 0;
  float train_loss = 0.0f;
  float val_loss = 0.0f;
  float train_metric = 0.0f;
  float val_metric = 0.0f;
};

/// Epoch-event sink: fit() invokes it after every epoch with the fresh
/// statistics. The library never writes to stdout itself — attach a
/// progress bar or logger to observe training.
using EpochSink = std::function<void(const EpochStats&)>;

struct TrainConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 32;
  float grad_clip = 0.0f;   ///< 0 disables clipping
  float lr_decay = 1.0f;    ///< learning rate ×= lr_decay after each epoch
  std::uint64_t shuffle_seed = 1;
  /// Called after every epoch. Null = silent.
  EpochSink on_epoch;
};

/// Aggregate result of evaluate(): mean loss (and metric) over a dataset.
struct EvalStats {
  float loss = 0.0f;
  float metric = 0.0f;
};

class Trainer {
 public:
  /// The trainer borrows the model and optimizer; both must outlive it.
  Trainer(Module& model, Optimizer& optimizer, LossFn loss,
          MetricFn metric = nullptr);

  /// Runs config.epochs passes over `train`; when `val` is non-null the
  /// model is evaluated on it (in inference mode) after every epoch.
  /// Batches come from a shuffling DataLoader (seeded by
  /// config.shuffle_seed; the prefetch depth is the process-wide
  /// sne::RuntimeConfig::current().prefetch).
  std::vector<EpochStats> fit(const Dataset& train, const Dataset* val,
                              const TrainConfig& config);

  /// Single gradient pass over one batch; returns the batch loss. Exposed
  /// for fine-grained loops (fine-tuning schedules); fit() routes every
  /// batch through here so clipping/step logic cannot diverge. When
  /// `prediction_out` is non-null it receives the forward output (for
  /// metric computation without a second forward pass).
  float train_batch(const Sample& batch, float grad_clip = 0.0f,
                    Tensor* prediction_out = nullptr);

  /// Mean loss/metric over a dataset in inference mode, computed through
  /// the cache-free Module::infer_into path (no activation caches are
  /// written). Batches are prefetched one ahead of the scoring step.
  /// Restores training mode afterwards if it was set.
  EvalStats evaluate(const Dataset& data, std::int64_t batch_size = 64);

  /// Model predictions over a dataset in inference mode, one row per
  /// sample, concatenated along axis 0. Uses the cache-free
  /// Module::infer_into path with one batch of prefetch.
  Tensor predict(const Dataset& data, std::int64_t batch_size = 64);

 private:
  Module& model_;
  Optimizer& optimizer_;
  LossFn loss_;
  MetricFn metric_;
};

}  // namespace sne::nn
