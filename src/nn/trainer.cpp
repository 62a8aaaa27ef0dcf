#include "nn/trainer.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"

namespace sne::nn {

namespace {

// Loader over a dataset read start-to-end in index order (evaluation,
// prediction): no shuffle; the runtime prefetch depth decides whether
// rendering overlaps scoring.
DataLoaderConfig sequential_loader_config(std::int64_t batch_size) {
  DataLoaderConfig cfg;
  cfg.batch_size = batch_size;
  cfg.shuffle = false;
  return cfg;
}

}  // namespace

Trainer::Trainer(Module& model, Optimizer& optimizer, LossFn loss,
                 MetricFn metric)
    : model_(model),
      optimizer_(optimizer),
      loss_(std::move(loss)),
      metric_(std::move(metric)) {
  if (!loss_) throw std::invalid_argument("Trainer: loss function required");
}

float Trainer::train_batch(const Sample& batch, float grad_clip,
                           Tensor* prediction_out) {
  model_.set_training(true);
  optimizer_.zero_grad();
  Tensor prediction;
  LossResult loss;
  {
    obs::Span span("train.forward");
    prediction = model_.forward(batch.x);
    loss = loss_(prediction, batch.y);
  }
  {
    obs::Span span("train.backward");
    model_.backward(loss.grad);
  }
  {
    obs::Span span("train.step");
    if (grad_clip > 0.0f) optimizer_.clip_grad_norm(grad_clip);
    optimizer_.step();
  }
  if (prediction_out != nullptr) *prediction_out = std::move(prediction);
  return loss.value;
}

std::vector<EpochStats> Trainer::fit(const Dataset& train, const Dataset* val,
                                     const TrainConfig& config) {
  if (train.size() == 0) throw std::invalid_argument("fit: empty train set");
  if (config.epochs <= 0 || config.batch_size <= 0) {
    throw std::invalid_argument("fit: epochs and batch_size must be positive");
  }

  DataLoaderConfig loader_cfg;
  loader_cfg.batch_size = config.batch_size;
  loader_cfg.shuffle = true;
  loader_cfg.shuffle_seed = config.shuffle_seed;
  DataLoader loader(train, loader_cfg);

  std::vector<EpochStats> history;
  history.reserve(static_cast<std::size_t>(config.epochs));

  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    obs::Span epoch_span("train.epoch", epoch);
    model_.set_training(true);
    double loss_sum = 0.0;
    double metric_sum = 0.0;
    std::int64_t seen = 0;

    loader.start_epoch();
    Sample batch;
    for (;;) {
      bool more;
      {
        // Time the training thread spends waiting on data — the render
        // itself when prefetch is 0, queue wait when batches come from
        // the background thread.
        obs::Span wait("train.data_wait");
        more = loader.next(batch);
      }
      if (!more) break;
      const std::int64_t count = batch.x.extent(0);
      Tensor prediction;
      const float batch_loss = train_batch(
          batch, config.grad_clip, metric_ ? &prediction : nullptr);

      loss_sum += static_cast<double>(batch_loss) * static_cast<double>(count);
      if (metric_) {
        metric_sum += static_cast<double>(metric_(prediction, batch.y)) *
                      static_cast<double>(count);
      }
      seen += count;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = static_cast<float>(loss_sum / seen);
    stats.train_metric =
        metric_ ? static_cast<float>(metric_sum / seen)
                : std::numeric_limits<float>::quiet_NaN();
    if (val != nullptr && val->size() > 0) {
      obs::Span span("train.validate", epoch);
      const EvalStats v = evaluate(*val);
      stats.val_loss = v.loss;
      stats.val_metric = v.metric;
    } else {
      stats.val_loss = std::numeric_limits<float>::quiet_NaN();
      stats.val_metric = std::numeric_limits<float>::quiet_NaN();
    }
    if (config.on_epoch) config.on_epoch(stats);
    if (config.lr_decay != 1.0f) {
      optimizer_.set_learning_rate(optimizer_.learning_rate() *
                                   config.lr_decay);
    }
    history.push_back(stats);
  }
  return history;
}

EvalStats Trainer::evaluate(const Dataset& data, std::int64_t batch_size) {
  if (data.size() == 0) throw std::invalid_argument("evaluate: empty dataset");
  obs::Span span("trainer.evaluate", data.size());
  const bool was_training = model_.is_training();
  model_.set_training(false);

  double loss_sum = 0.0;
  double metric_sum = 0.0;
  std::int64_t seen = 0;
  Tensor prediction;  // reused across batches by the cache-free path
  DataLoader loader(data, sequential_loader_config(batch_size));
  loader.start_epoch();
  Sample batch;
  while (loader.next(batch)) {
    const std::int64_t count = batch.x.extent(0);
    model_.infer_into(batch.x, prediction);
    const LossResult loss = loss_(prediction, batch.y);
    loss_sum += static_cast<double>(loss.value) * static_cast<double>(count);
    if (metric_) {
      metric_sum += static_cast<double>(metric_(prediction, batch.y)) *
                    static_cast<double>(count);
    }
    seen += count;
  }
  model_.set_training(was_training);

  EvalStats out;
  out.loss = static_cast<float>(loss_sum / seen);
  out.metric = metric_ ? static_cast<float>(metric_sum / seen)
                       : std::numeric_limits<float>::quiet_NaN();
  return out;
}

Tensor Trainer::predict(const Dataset& data, std::int64_t batch_size) {
  if (data.size() == 0) throw std::invalid_argument("predict: empty dataset");
  obs::Span span("trainer.predict", data.size());
  const bool was_training = model_.is_training();
  model_.set_training(false);

  Tensor out;
  std::int64_t row_size = 0;
  std::int64_t written = 0;
  Tensor prediction;  // reused across batches by the cache-free path
  DataLoader loader(data, sequential_loader_config(batch_size));
  loader.start_epoch();
  Sample batch;
  while (loader.next(batch)) {
    const std::int64_t count = batch.x.extent(0);
    model_.infer_into(batch.x, prediction);
    if (out.empty()) {
      row_size = prediction.size() / prediction.extent(0);
      Shape shape = prediction.shape();
      shape[0] = data.size();
      out = Tensor(std::move(shape));
    }
    std::copy(prediction.data(), prediction.data() + prediction.size(),
              out.data() + written * row_size);
    written += count;
  }
  model_.set_training(was_training);
  return out;
}

}  // namespace sne::nn
