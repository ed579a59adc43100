#include "core/trainer.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/epoch_engine.h"
#include "optim/optim.h"
#include "runtime/timer.h"
#include "tensor/tensor_ops.h"

namespace pgti::core {

Tensor step_target(const Tensor& y, std::size_t t) {
  return y.select(1, static_cast<std::int64_t>(t)).contiguous();
}

Variable seq_loss(const std::vector<Variable>& outputs, const Tensor& y) {
  Variable total;
  for (std::size_t t = 0; t < outputs.size(); ++t) {
    Variable step = ag::mae_loss(outputs[t], step_target(y, t));
    total = t == 0 ? step : ag::add(total, step);
  }
  return ag::mul_scalar(total, 1.0f / static_cast<float>(outputs.size()));
}

double seq_mae(const std::vector<Variable>& outputs, const Tensor& y) {
  double acc = 0.0;
  for (std::size_t t = 0; t < outputs.size(); ++t) {
    acc += ops::mae(outputs[t].value(), step_target(y, t));
  }
  return acc / static_cast<double>(outputs.size());
}

double seq_mse(const std::vector<Variable>& outputs, const Tensor& y) {
  double acc = 0.0;
  for (std::size_t t = 0; t < outputs.size(); ++t) {
    acc += ops::mse(outputs[t].value(), step_target(y, t));
  }
  return acc / static_cast<double>(outputs.size());
}

TrainResult Trainer::run() {
  TrainResult result;
  auto& tracker = MemoryTracker::instance();
  SimDevice* device = cfg_.use_device ? &DeviceManager::instance().gpu(0) : nullptr;
  if (device) device->reset_stats();

  const data::DatasetSpec& spec = cfg_.spec;
  SensorNetwork net = data::network_for(spec);
  std::optional<Tensor> raw = data::generate_signal(spec, net, cfg_.seed);

  tracker.reset_peak(kHostSpace);
  if (device) tracker.reset_peak(device->space());
  const bool timeline = cfg_.record_timeline;
  if (timeline) {
    tracker.clear_timeline(kHostSpace);
    if (device) tracker.clear_timeline(device->space());
    tracker.sample(kHostSpace, 0.0, "start");
  }

  // --- preprocessing ---------------------------------------------------
  WallTimer pre_timer;
  std::optional<data::StandardDataset> standard_ds;
  std::optional<data::PaddedStandardDataset> padded_ds;
  std::optional<data::IndexDataset> index_ds;
  std::unique_ptr<data::SnapshotSource> source;
  switch (cfg_.mode) {
    case BatchingMode::kStandard:
      standard_ds.emplace(*raw, spec);
      source = std::make_unique<data::StandardSource>(*standard_ds);
      break;
    case BatchingMode::kPadded:
      padded_ds.emplace(*raw, spec);
      source = std::make_unique<data::PaddedSource>(*padded_ds);
      break;
    case BatchingMode::kIndex:
      index_ds.emplace(*raw, spec);
      source = std::make_unique<data::IndexSource>(*index_ds);
      break;
    case BatchingMode::kGpuIndex:
      if (!device) throw std::logic_error("kGpuIndex requires use_device");
      index_ds.emplace(*raw, spec, *device);
      source = std::make_unique<data::IndexSource>(*index_ds);
      break;
  }
  result.preprocess_seconds = pre_timer.seconds();
  raw.reset();  // drop the raw file copy, as the reference workflow does
  result.resident_host_bytes = tracker.current(kHostSpace);
  if (timeline) {
    tracker.sample(kHostSpace, 0.05, "preprocess done");
    if (device) tracker.sample(device->space(), 0.05, "preprocess done");
  }

  // --- model ------------------------------------------------------------
  ModelBundle bundle = make_model(cfg_.model, spec, net, cfg_.hidden_dim,
                                  cfg_.diffusion_steps, cfg_.num_layers, cfg_.seed);
  if (device) {
    // Parameter upload is a real transfer on the ledger.
    for (Variable p : bundle.model->parameters()) {
      p.mutable_value() = device->upload(p.value());
    }
  }
  std::vector<Variable> params = bundle.model->parameters();
  result.model_parameters = bundle.model->parameter_count();
  optim::Adam::Options adam_opt;
  adam_opt.lr = cfg_.lr;
  optim::Adam opt(params, adam_opt);

  // --- loaders -----------------------------------------------------------
  const data::SplitRanges& splits = source->splits();
  data::LoaderOptions train_opt;
  train_opt.batch_size = spec.batch_size;
  train_opt.sampler = data::SamplerOptions{cfg_.shuffle, 0, 1, cfg_.seed, spec.batch_size};
  train_opt.drop_last = true;
  train_opt.device = device;
  train_opt.prefetch_lookahead = cfg_.prefetch_depth;
  data::DataLoader train_loader(*source, train_opt, splits.train_begin, splits.train_end);

  data::LoaderOptions eval_opt = train_opt;
  eval_opt.sampler.mode = data::ShuffleMode::kNone;
  eval_opt.drop_last = false;
  data::DataLoader val_loader(*source, eval_opt, splits.val_begin, splits.val_end);
  data::DataLoader test_loader(*source, eval_opt, splits.test_begin, splits.test_end);

  result.train_samples = splits.train_end - splits.train_begin;
  const double sigma = source->scaler().stddev;

  // --- the shared pipeline (DESIGN.md §12) -------------------------------
  // The same EpochEngine that drives every DistTrainer rank drives the
  // single-process workflow; prefetch_depth > 0 stages (and, on device
  // runs, uploads) batches ahead of compute through a depth-N
  // PrefetchLoader whose slots live in the compute space.
  EpochEngine::Hooks hooks;
  if (timeline) {
    hooks.on_train_step = [&](int epoch, std::int64_t batches) {
      if (batches % 8 != 0) return;
      const double prog = 0.05 + 0.95 * (static_cast<double>(epoch) +
                                         static_cast<double>(batches) /
                                             static_cast<double>(std::max<std::int64_t>(
                                                 1, train_loader.batches_per_epoch()))) /
                                     static_cast<double>(cfg_.epochs);
      tracker.sample(kHostSpace, prog, "train");
      if (device) tracker.sample(device->space(), prog, "train");
    };
  }
  EpochEngine engine(*bundle.model, opt, hooks);
  BatchPipeline train_pipe(train_loader, cfg_.prefetch_depth);
  BatchPipeline val_pipe(val_loader, cfg_.prefetch_depth);
  BatchPipeline test_pipe(test_loader, cfg_.prefetch_depth);
  const std::int64_t train_cap =
      cfg_.max_batches_per_epoch > 0 ? cfg_.max_batches_per_epoch : -1;
  const std::int64_t eval_cap = cfg_.max_val_batches > 0 ? cfg_.max_val_batches : -1;

  // --- training loop -------------------------------------------------------
  WallTimer train_timer;
  result.best_val_mae = 1e30;
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    WallTimer epoch_timer;
    const EpochEngine::EpochSums train = engine.train_epoch(train_pipe, epoch, train_cap);
    const EpochEngine::EpochSums val =
        engine.eval_epoch(val_pipe, eval_cap, EpochEngine::Metric::kMae);

    EpochMetrics em;
    em.epoch = epoch;
    em.train_mae = train.batches > 0
                       ? train.sum / static_cast<double>(train.batches) * sigma
                       : 0.0;
    em.val_mae = val.batches > 0 ? val.sum / static_cast<double>(val.batches) * sigma
                                 : 0.0;
    em.wall_seconds = epoch_timer.seconds();
    result.curve.push_back(em);
    if (em.val_mae < result.best_val_mae && val.batches > 0) {
      result.best_val_mae = em.val_mae;
    }
  }
  result.train_seconds = train_timer.seconds();
  result.allocs_last_step = engine.allocs_last_step();

  // Final test MSE (normalized units; Table 6 reports this).
  {
    const EpochEngine::EpochSums test =
        engine.eval_epoch(test_pipe, eval_cap, EpochEngine::Metric::kMse);
    result.final_test_mse =
        test.batches > 0 ? test.sum / static_cast<double>(test.batches) : 0.0;
  }

  result.peak_host_bytes = tracker.peak(kHostSpace);
  if (device) {
    result.peak_device_bytes = tracker.peak(device->space());
    result.transfers = device->stats();
    result.modeled_transfer_seconds = result.transfers.modeled_seconds;
    // Batch staging the prefetch workers ran ahead of compute hid its
    // modeled upload time; everything else (the parameter upload, all
    // depth-0 staging) stays exposed.
    result.exposed_transfer_seconds =
        result.modeled_transfer_seconds - engine.overlapped_transfer_seconds();
  }
  if (timeline) tracker.sample(kHostSpace, 1.0, "done");
  return result;
}

}  // namespace pgti::core
