// The training workloads.
//
//  * train-index  — core::Trainer::run, index-batching, one host worker.
//  * ddp-baseline — core::DistTrainer::run, the materialized DistStore
//                   baseline at W=4.
//  * ddp-index    — the same job with distributed index-batching.
//
// A measured run stands the job up several times (run() with zero
// epochs), then repeats the full run() until the time budget is spent,
// and reports medians.  A traced run first makes one untraced run() as
// the reference, then drives the same job through the public layer
// calls itself (BatchPipeline::next, SeqModel::forward_seq,
// core::seq_loss, Variable::backward, OverlappedGradBucket::drain,
// Adam::step), timing each call from outside, and checks that its
// per-epoch losses are bit-identical to the reference's.  Counters the
// public run() already returns (preprocessing time, store traffic,
// modeled all-reduce time) are read from the reference.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/dist_trainer.h"
#include "core/epoch_engine.h"
#include "core/model_factory.h"
#include "core/trainer.h"
#include "data/index_dataset.h"
#include "data/snapshot_provider.h"
#include "data/synthetic.h"
#include "dist/comm.h"
#include "dist/ddp.h"
#include "dist/dist_store.h"
#include "dist/overlap.h"
#include "optim/optim.h"
#include "runtime/arena.h"
#include "runtime/memory_tracker.h"
#include "trace.h"

namespace pgti::benchmark {
namespace {

using Curve = std::vector<core::EpochMetrics>;

/// Sizes of one training workload.
struct Shape {
  std::int64_t batch = 0;   ///< samples per step per rank
  std::int64_t hidden = 0;
  int world = 1;
  std::int64_t steps = 0;   ///< train steps per epoch
  int epochs = 0;           ///< epochs per measured run()
  int traced_epochs = 0;    ///< epochs of the traced run (>= 2: epoch 0 plans)
  int min_reps = 0;         ///< measured run() repetitions, at least
  int setups = 0;           ///< set-up-only run()s of a measured run
};

constexpr std::int64_t kValBatches = 2;  // per epoch, and for the final test pass

// The set-ups and three repetitions of a measured run fit the 20 s
// budget on a 4-core host, except on ddp-baseline, whose set-up alone
// takes more than a second.
Shape index_shape(const Options& opt) {
  if (opt.smoke) return {64, 32, 1, 3, 2, 2, 1, 1};
  return {64, 32, 1, 12, 3, 3, 3, 6};
}

Shape ddp_shape(const Options& opt, bool baseline) {
  if (opt.smoke) return {32, 16, 4, 3, 2, 2, 1, 1};
  return {32, 16, 4, 14, 3, 3, 3, baseline ? 3 : 6};
}

core::TrainConfig index_config(const Options& opt, const Shape& s, int epochs) {
  core::TrainConfig c;
  c.spec = pems_bay_n41(opt.smoke);
  c.spec.batch_size = s.batch;
  c.model = core::ModelKind::kPgtDcrnn;
  c.mode = core::BatchingMode::kIndex;
  c.epochs = epochs;
  c.hidden_dim = s.hidden;
  c.diffusion_steps = 2;
  c.num_layers = 2;
  c.seed = opt.seed;
  c.use_device = false;
  c.max_batches_per_epoch = s.steps;
  c.max_val_batches = kValBatches;
  c.prefetch_depth = 0;
  return c;
}

core::DistConfig ddp_config(const Options& opt, const Shape& s, core::DistMode mode,
                            int epochs) {
  core::DistConfig c;
  c.spec = pems_bay_n41(opt.smoke);
  c.spec.batch_size = s.batch;
  c.model = core::ModelKind::kPgtDcrnn;
  c.mode = mode;
  c.world = s.world;
  c.epochs = epochs;
  c.hidden_dim = s.hidden;
  c.diffusion_steps = 2;
  c.seed = opt.seed;
  c.max_batches_per_epoch = s.steps;
  c.max_val_batches = kValBatches;
  c.prefetch_depth = 2;
  c.grad_overlap = core::GradOverlap::kStrict;
  return c;
}

/// Bit-identical train and validation MAE over the first `epochs`
/// epochs of both curves.
bool same_curve(const Curve& a, const Curve& b, std::size_t epochs) {
  if (a.size() < epochs || b.size() < epochs) return false;
  for (std::size_t e = 0; e < epochs; ++e) {
    if (std::memcmp(&a[e].train_mae, &b[e].train_mae, sizeof(double)) != 0 ||
        std::memcmp(&a[e].val_mae, &b[e].val_mae, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

bool finite_curve(const Curve& c) {
  for (const core::EpochMetrics& m : c) {
    if (!std::isfinite(m.train_mae) || !std::isfinite(m.val_mae)) return false;
  }
  return !c.empty();
}

/// Steady throughput: samples over epochs >= 1 divided by their wall.
double steady_samples_per_s(const Curve& c, double samples_per_epoch) {
  double wall = 0.0;
  for (std::size_t e = 1; e < c.size(); ++e) wall += c[e].wall_seconds;
  return wall > 0.0 ? samples_per_epoch * static_cast<double>(c.size() - 1) / wall : 0.0;
}

/// One public run(): its wall time and what its result reports.
struct Rep {
  double wall = 0.0;
  Curve curve;
  std::size_t peak_host_bytes = 0;
  double preprocess_s = 0.0;
  double modeled_allreduce_s = 0.0;  ///< DistTrainer only
  dist::StoreStats store{};          ///< DistTrainer only; zero without a store
};

Rep run_public(const core::TrainConfig& cfg) {
  const auto t0 = Clock::now();
  const core::TrainResult r = core::Trainer(cfg).run();
  return {.wall = seconds_between(t0, Clock::now()),
          .curve = r.curve,
          .peak_host_bytes = r.peak_host_bytes,
          .preprocess_s = r.preprocess_seconds};
}

Rep run_public(const core::DistConfig& cfg) {
  const auto t0 = Clock::now();
  const core::DistResult r = core::DistTrainer(cfg).run();
  return {.wall = seconds_between(t0, Clock::now()),
          .curve = r.curve,
          .peak_host_bytes = r.peak_host_bytes,
          .preprocess_s = r.preprocess_seconds,
          .modeled_allreduce_s = r.modeled_allreduce_seconds,
          .store = r.store};
}

/// Runs the job with zero epochs shape.setups times, then with
/// shape.epochs at least shape.min_reps times and while another
/// repetition fits in the budget; reports the end-to-end metrics as
/// medians.  Every run() is one set-up sample: the whole wall of a
/// zero-epoch run, and a full run's wall minus its epochs.
void measured_runs(const Options& opt, const Shape& shape,
                   const std::function<Rep(int epochs)>& run_job, Report& report) {
  const double samples_per_epoch =
      static_cast<double>(shape.steps * shape.batch * shape.world);
  const std::int64_t steps_per_rep = shape.steps * shape.epochs;
  std::vector<double> setup, workflow, throughput, step_ms, peak_mb;
  const auto t0 = Clock::now();
  for (int i = 0; i < shape.setups; ++i) setup.push_back(run_job(0).wall);
  Curve first;
  bool all_ok = true;
  int reps = 0;
  double longest = 0.0;
  while (reps < shape.min_reps || seconds_between(t0, Clock::now()) + longest <= opt.seconds) {
    const Rep rep = run_job(shape.epochs);
    ++reps;
    longest = std::max(longest, rep.wall);
    double epochs_wall = 0.0;
    for (std::size_t e = 0; e < rep.curve.size(); ++e) {
      epochs_wall += rep.curve[e].wall_seconds;
      if (e >= 1) {
        step_ms.push_back(rep.curve[e].wall_seconds * 1e3 /
                          static_cast<double>(shape.steps));
      }
    }
    setup.push_back(rep.wall - epochs_wall);
    workflow.push_back(rep.wall);
    throughput.push_back(steady_samples_per_s(rep.curve, samples_per_epoch));
    peak_mb.push_back(static_cast<double>(rep.peak_host_bytes) / 1e6);
    const bool ok = finite_curve(rep.curve) &&
                    (first.empty() || same_curve(rep.curve, first, first.size()));
    if (first.empty()) first = rep.curve;
    all_ok = all_ok && ok;
    report.ops(steps_per_rep, ok ? 0 : steps_per_rep);
  }
  report.gate(all_ok, "losses are finite and bit-identical across repeated runs");
  report.set("setup_s", median(setup));
  report.set("workflow_s", median(workflow));
  report.set("items_per_s", median(throughput));
  report.set("latency_p50_ms", median(step_ms));
  report.set("peak_host_mb", median(peak_mb));
}

// ------------------------------------------------------------ traced runs

/// One traced train step's phase times, in ms.
struct StepRecord {
  int epoch = 0;
  double next = 0, forward = 0, loss = 0, zero_grad = 0, backward = 0, drain = 0,
         optim = 0, release = 0, step = 0;
  std::uint64_t heap_allocs = 0;

  double phase_sum() const {
    return next + forward + loss + zero_grad + backward + drain + optim + release;
  }
};

/// What one rank of a traced run records.
struct RankTrace {
  RankTrace(int rank, const Shape& s, int epochs)
      : spans(rank, static_cast<std::size_t>(epochs) *
                        (static_cast<std::size_t>(s.steps) * 9 + 4)) {
    steps.reserve(static_cast<std::size_t>(epochs * s.steps));
  }
  SpanBuffer spans;
  std::vector<StepRecord> steps;
  std::vector<double> epoch_wall;
  std::int64_t batches = 0;  ///< train steps + validation batches delivered
  /// Collective traffic charged during steady train steps (rank 0).
  std::uint64_t allreduce_calls = 0, allreduce_bytes = 0;
  std::int64_t steady_steps = 0;
};

/// EpochEngine::train_epoch's step sequence, with every layer call
/// timed and recorded as a span whose parent is the step span.
core::EpochEngine::EpochSums traced_train_epoch(core::BatchPipeline& pipe, int epoch,
                                                std::int64_t steps,
                                                nn::SeqModel& model, optim::Adam& opt,
                                                dist::OverlappedGradBucket* grads,
                                                runtime::TensorArena& arena,
                                                RankTrace& tr) {
  pipe.start_epoch(epoch, steps);
  core::EpochEngine::EpochSums sums;
  data::Batch batch;
  auto& tracker = MemoryTracker::instance();
  SpanBuffer& sp = tr.spans;
  while (sums.batches < steps) {
    StepRecord rec;
    rec.epoch = epoch;
    const auto begin = Clock::now();
    const std::int32_t step = sp.open("step", begin, sums.batches);
    {
      runtime::ArenaScope scope(arena);
      const std::uint64_t heap_before = tracker.heap_allocs_total();
      const auto t0 = Clock::now();
      if (!pipe.next(batch)) throw std::logic_error("traced epoch ended early");
      const auto t1 = Clock::now();
      std::vector<Variable> outputs = model.forward_seq(batch.x);
      const auto t2 = Clock::now();
      Variable loss = core::seq_loss(outputs, batch.y);
      const auto t3 = Clock::now();
      opt.zero_grad();
      const auto t4 = Clock::now();
      loss.backward(grads);
      const auto t5 = Clock::now();
      if (grads) grads->drain();
      const auto t6 = Clock::now();
      opt.step();
      const auto t7 = Clock::now();
      rec.heap_allocs = tracker.heap_allocs_total() - heap_before;
      sums.sum += static_cast<double>(loss.value().item());
      ++sums.batches;
      const auto t8 = Clock::now();
      outputs.clear();
      loss = Variable();
      const auto t9 = Clock::now();
      rec.next = ms_between(t0, t1);
      rec.forward = ms_between(t1, t2);
      rec.loss = ms_between(t2, t3);
      rec.zero_grad = ms_between(t3, t4);
      rec.backward = ms_between(t4, t5);
      rec.drain = ms_between(t5, t6);
      rec.optim = ms_between(t6, t7);
      rec.release = ms_between(t8, t9);
      sp.add("data.next", t0, t1, step);
      sp.add("nn.forward", t1, t2, step);
      sp.add("core.loss", t2, t3, step);
      sp.add("optim.zero_grad", t3, t4, step);
      sp.add("autograd.backward", t4, t5, step);
      if (grads) sp.add("dist.grad_drain", t5, t6, step);
      sp.add("optim.step", t6, t7, step);
      sp.add("autograd.release", t8, t9, step);
    }
    const auto end = Clock::now();
    sp.close(step, end);
    rec.step = ms_between(begin, end);
    tr.steps.push_back(rec);
  }
  return sums;
}

struct TracedRun {
  Curve curve;
  std::vector<std::unique_ptr<RankTrace>> ranks;
  double signal_s = 0.0;
  Clock::time_point origin;
};

/// The single-worker traced run: Trainer::run's workflow (host,
/// kIndex, prefetch 0) with the training loop driven from here.
TracedRun traced_single(const core::TrainConfig& cfg, const Shape& shape) {
  TracedRun run;
  run.origin = Clock::now();
  run.ranks.push_back(std::make_unique<RankTrace>(0, shape, cfg.epochs));
  RankTrace& tr = *run.ranks[0];
  const data::DatasetSpec& spec = cfg.spec;
  const SensorNetwork net = data::network_for(spec);
  auto t0 = Clock::now();
  std::optional<Tensor> raw = data::generate_signal(spec, net, cfg.seed);
  auto t1 = Clock::now();
  data::IndexDataset ds(*raw, spec);
  auto t2 = Clock::now();
  raw.reset();
  run.signal_s = seconds_between(t0, t1);
  tr.spans.add("data.signal", t0, t1, -1);
  tr.spans.add("data.preprocess", t1, t2, -1);
  data::IndexSource source(ds);

  core::ModelBundle bundle = core::make_model(cfg.model, spec, net, cfg.hidden_dim,
                                              cfg.diffusion_steps, cfg.num_layers,
                                              cfg.seed);
  std::vector<Variable> params = bundle.model->parameters();
  optim::Adam::Options adam;
  adam.lr = cfg.lr;
  optim::Adam opt(params, adam);

  const data::SplitRanges& splits = source.splits();
  data::LoaderOptions train_opt;
  train_opt.batch_size = spec.batch_size;
  train_opt.sampler = data::SamplerOptions{cfg.shuffle, 0, 1, cfg.seed, spec.batch_size};
  train_opt.drop_last = true;
  train_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader train_loader(source, train_opt, splits.train_begin, splits.train_end);
  data::LoaderOptions eval_opt = train_opt;
  eval_opt.sampler.mode = data::ShuffleMode::kNone;
  eval_opt.drop_last = false;
  data::DataLoader val_loader(source, eval_opt, splits.val_begin, splits.val_end);
  const double sigma = source.scaler().stddev;

  core::EpochEngine eval_engine(*bundle.model, opt);
  core::BatchPipeline train_pipe(train_loader, cfg.prefetch_depth);
  core::BatchPipeline val_pipe(val_loader, cfg.prefetch_depth);
  runtime::TensorArena arena;
  const std::int64_t steps = std::min(cfg.max_batches_per_epoch, train_loader.batches_per_epoch());
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const auto e0 = Clock::now();
    const std::int32_t ep = tr.spans.open("epoch", e0, epoch);
    const auto train = traced_train_epoch(train_pipe, epoch, steps, *bundle.model, opt,
                                          nullptr, arena, tr);
    const auto v0 = Clock::now();
    const auto val = eval_engine.eval_epoch(val_pipe, cfg.max_val_batches,
                                            core::EpochEngine::Metric::kMae);
    const auto e1 = Clock::now();
    tr.spans.add("eval", v0, e1, ep);
    tr.spans.close(ep, e1);
    tr.batches += train.batches + val.batches;
    core::EpochMetrics em;
    em.epoch = epoch;
    em.train_mae = train.batches > 0
                       ? train.sum / static_cast<double>(train.batches) * sigma
                       : 0.0;
    em.val_mae =
        val.batches > 0 ? val.sum / static_cast<double>(val.batches) * sigma : 0.0;
    em.wall_seconds = seconds_between(e0, e1);
    tr.epoch_wall.push_back(em.wall_seconds);
    run.curve.push_back(em);
  }
  return run;
}

/// Shared, rank-independent inputs of the distributed traced run.
struct DistShared {
  const core::DistConfig& cfg;
  const SensorNetwork& net;
  const Tensor& raw;
  const data::SplitRanges& splits;
  dist::DistStore* store;  ///< null for distributed index-batching
};

/// One rank of DistTrainer's workflow (the kDistributedIndex and
/// kBaselineDdp strategies, strict gradient overlap), with the training
/// loop driven from here.
void traced_rank(dist::Communicator& comm, const DistShared& sh, TracedRun& run) {
  const core::DistConfig& cfg = sh.cfg;
  const data::DatasetSpec& spec = cfg.spec;
  const int rank = comm.rank();
  const int world = comm.world();
  RankTrace& tr = *run.ranks[static_cast<std::size_t>(rank)];

  // Data plane: the shared store, or this rank's full index copy.
  std::optional<data::IndexDataset> index;
  std::optional<data::IndexProvider> index_provider;
  data::SnapshotProvider* provider = sh.store;
  if (!provider) {
    const auto p0 = Clock::now();
    index.emplace(sh.raw, spec);
    index_provider.emplace(*index);
    provider = &*index_provider;
    tr.spans.add("data.preprocess", p0, Clock::now(), -1);
  }
  data::RankSource train_source(*provider, rank);
  data::RankSource val_source(*provider, rank);

  core::ModelBundle bundle = core::make_model(cfg.model, spec, sh.net, cfg.hidden_dim,
                                              cfg.diffusion_steps, 2, cfg.seed);
  std::vector<Variable> params = bundle.model->parameters();
  dist::broadcast_parameters(comm, params, /*root=*/0);
  optim::Adam::Options adam;
  adam.lr = cfg.lr;
  optim::Adam opt(params, adam);
  dist::OverlappedGradBucket grads(comm, params, dist::OverlappedGradBucket::Mode::kStrict,
                                   comm.network());

  data::LoaderOptions train_opt;
  train_opt.batch_size = spec.batch_size;
  train_opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, rank, world,
                                           cfg.seed, spec.batch_size};
  train_opt.drop_last = true;
  train_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader train_loader(train_source, train_opt, sh.splits.train_begin,
                                sh.splits.train_end);
  data::LoaderOptions val_opt;
  val_opt.batch_size = spec.batch_size;
  val_opt.sampler = data::SamplerOptions{data::ShuffleMode::kNone, rank, world, cfg.seed,
                                         spec.batch_size};
  val_opt.drop_last = false;
  val_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader val_loader(val_source, val_opt, sh.splits.val_begin, sh.splits.val_end);
  core::BatchPipeline train_pipe(train_loader, cfg.prefetch_depth, [&] {
    provider->notify_batch_delivered(rank);
    comm.charge_seconds(provider->drain_modeled_seconds(rank));
  });
  core::BatchPipeline val_pipe(val_loader, cfg.prefetch_depth, [&] {
    provider->notify_batch_delivered(rank);
    comm.charge_seconds(provider->drain_modeled_seconds(rank));
  });
  core::EpochEngine eval_engine(*bundle.model, opt);
  runtime::TensorArena arena;

  std::int64_t steps = std::min(train_loader.batches_per_epoch(), cfg.max_batches_per_epoch);
  for (double other : comm.allgather(static_cast<double>(steps))) {
    steps = std::min(steps, static_cast<std::int64_t>(other));
  }
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    comm.barrier();
    const auto e0 = Clock::now();
    const std::int32_t ep = tr.spans.open("epoch", e0, epoch);
    const dist::CommStats before = comm.context().stats();
    const auto train = traced_train_epoch(train_pipe, epoch, steps, *bundle.model, opt,
                                          &grads, arena, tr);
    const dist::CommStats after = comm.context().stats();
    if (epoch >= 1) {
      tr.allreduce_calls += after.allreduce_count - before.allreduce_count;
      tr.allreduce_bytes += after.allreduce_bytes - before.allreduce_bytes;
      tr.steady_steps += train.batches;
    }
    const auto v0 = Clock::now();
    const auto val = eval_engine.eval_epoch(val_pipe, cfg.max_val_batches,
                                            core::EpochEngine::Metric::kMae);
    grads.flush();
    const double g_train_sum = comm.allreduce_scalar_sum(train.sum);
    const double g_train_cnt = comm.allreduce_scalar_sum(static_cast<double>(train.batches));
    const double g_val_sum = comm.allreduce_scalar_sum(val.sum);
    const double g_val_cnt = comm.allreduce_scalar_sum(static_cast<double>(val.batches));
    const auto e1 = Clock::now();
    tr.spans.add("eval+reduce", v0, e1, ep);
    tr.spans.close(ep, e1);
    tr.batches += train.batches + val.batches;
    tr.epoch_wall.push_back(seconds_between(e0, e1));
    if (rank == 0) {
      const double sigma = train_source.scaler().stddev;
      core::EpochMetrics em;
      em.epoch = epoch;
      em.train_mae = g_train_cnt > 0 ? g_train_sum / g_train_cnt * sigma : 0.0;
      em.val_mae = g_val_cnt > 0 ? g_val_sum / g_val_cnt * sigma : 0.0;
      em.wall_seconds = seconds_between(e0, e1);
      run.curve[static_cast<std::size_t>(epoch)] = em;
    }
  }
  grads.finish();
  comm.barrier();
}

TracedRun traced_dist(const core::DistConfig& cfg, const Shape& shape) {
  TracedRun run;
  run.origin = Clock::now();
  for (int r = 0; r < cfg.world; ++r) {
    run.ranks.push_back(std::make_unique<RankTrace>(r, shape, cfg.epochs));
  }
  run.curve.resize(static_cast<std::size_t>(cfg.epochs));
  const data::DatasetSpec& spec = cfg.spec;
  const SensorNetwork net = data::network_for(spec);
  const auto t0 = Clock::now();
  const Tensor raw = data::generate_signal(spec, net, cfg.seed);
  const auto t1 = Clock::now();
  run.signal_s = seconds_between(t0, t1);
  run.ranks[0]->spans.add("data.signal", t0, t1, -1);

  dist::Cluster cluster(cfg.world);
  const data::SplitRanges splits = data::split_ranges(spec.num_snapshots());
  std::optional<dist::DistStore> store;
  if (cfg.mode == core::DistMode::kBaselineDdp) {
    const auto s0 = Clock::now();
    store.emplace(data::StandardDataset(raw, spec), cfg.world, cluster.network(),
                  /*consolidate_requests=*/true, cfg.store_cache_snapshots,
                  cfg.store_cache_bytes, /*async_prefetch=*/cfg.prefetch_depth > 0);
    if (cfg.prefetch_depth > 0) store->set_delivery_driven_classification(true);
    run.ranks[0]->spans.add("data.preprocess", s0, Clock::now(), -1);
  }
  const DistShared shared{cfg, net, raw, splits, store ? &*store : nullptr};
  cluster.run([&](dist::Communicator& comm) { traced_rank(comm, shared, run); });
  return run;
}

std::vector<double> column(const std::vector<StepRecord>& steps,
                           double StepRecord::*field) {
  std::vector<double> out;
  for (const StepRecord& s : steps) {
    if (s.epoch >= 1) out.push_back(s.*field);
  }
  return out;
}

/// Per-layer metrics of a traced run (rank 0's steady steps), the
/// counters of the untraced reference run of the same job, and the
/// tracing-overhead ratio between the two.
void report_traced(const Options& opt, const Shape& shape, const TracedRun& run,
                   const Rep& reference, Report& report) {
  const RankTrace& r0 = *run.ranks[0];
  const std::vector<StepRecord>& st = r0.steps;
  const auto p50 = [&](double StepRecord::*f) { return percentile(column(st, f), 0.5); };
  double next_sum = 0.0, step_sum = 0.0, allocs = 0.0, worst_gap = 0.0;
  std::int64_t steady = 0;
  for (const StepRecord& s : st) {
    worst_gap = std::max(worst_gap, std::abs(s.step - s.phase_sum()) / s.step);
    if (s.epoch < 1) continue;
    next_sum += s.next;
    step_sum += s.step;
    allocs += static_cast<double>(s.heap_allocs);
    ++steady;
  }
  report.gate(worst_gap <= 0.05, "traced phases sum to the step wall within 5% (worst " +
                                     std::to_string(worst_gap * 100.0) + "%)");
  std::size_t dropped = 0;
  for (const auto& r : run.ranks) dropped += r->spans.dropped();
  report.gate(dropped == 0, "span buffers held every span");

  report.set("nn.forward_ms.p50", p50(&StepRecord::forward));
  report.set("autograd.backward_ms.p50", p50(&StepRecord::backward));
  report.set("core.loss_ms.p50", p50(&StepRecord::loss));
  report.set("optim.step_ms.p50", p50(&StepRecord::optim));
  report.set("core.step_ms.p50", p50(&StepRecord::step));
  report.set("core.step_ms.p90", percentile(column(st, &StepRecord::step), 0.9));
  report.set("core.first_epoch_s", r0.epoch_wall.front());
  report.set("data.next_ms.p50", p50(&StepRecord::next));
  report.set("data.next_share", step_sum > 0 ? next_sum / step_sum : 0.0);
  report.set("data.signal_s", run.signal_s);
  report.set("data.preprocess_s", reference.preprocess_s);
  report.set("runtime.heap_allocs_per_step",
             allocs / static_cast<double>(std::max<std::int64_t>(steady, 1)));
  const double samples_per_epoch =
      static_cast<double>(shape.steps * shape.batch * shape.world);
  const double untraced = steady_samples_per_s(reference.curve, samples_per_epoch);
  const double traced = steady_samples_per_s(run.curve, samples_per_epoch);
  report.set("core.trace_overhead", untraced > 0 ? traced / untraced : 0.0);

  if (run.ranks.size() > 1) {
    const double steps = static_cast<double>(std::max<std::int64_t>(r0.steady_steps, 1));
    report.set("dist.grad_drain_ms.p50", p50(&StepRecord::drain));
    report.set("dist.allreduce_calls_per_step", static_cast<double>(r0.allreduce_calls) / steps);
    report.set("dist.allreduce_bytes_per_step", static_cast<double>(r0.allreduce_bytes) / steps);
    report.set("dist.modeled_allreduce_s", reference.modeled_allreduce_s);
    // The reference run delivered the same batches as the traced one.
    std::int64_t batches = 0;
    for (const auto& r : run.ranks) batches += r->batches;
    const double per_batch = 1.0 / static_cast<double>(std::max<std::int64_t>(batches, 1));
    const dist::StoreStats& s = reference.store;
    report.set("dist.store.bytes_copied_per_step", static_cast<double>(s.bytes_copied) * per_batch);
    report.set("dist.store.remote_snapshots_per_step",
               static_cast<double>(s.remote_snapshots) * per_batch);
    report.set("dist.store.request_messages_per_step",
               static_cast<double>(s.request_messages) * per_batch);
    report.set("dist.store.cache_hit_ratio",
               s.remote_snapshots > 0 ? static_cast<double>(s.cache_hits) /
                                            static_cast<double>(s.remote_snapshots)
                                      : 0.0);
    report.set("dist.store.modeled_exposed_fetch_s", s.exposed_seconds);
    const double fetch = s.overlapped_seconds + s.exposed_seconds;
    report.set("dist.store.modeled_overlapped_share",
               fetch > 0 ? s.overlapped_seconds / fetch : 0.0);
  }

  if (!opt.trace_out.empty()) {
    std::vector<const SpanBuffer*> buffers;
    for (const auto& r : run.ranks) buffers.push_back(&r->spans);
    write_chrome_trace(opt.trace_out + "/" + opt.workload + ".trace.json", run.origin,
                       buffers);
  }
}

/// ddp-baseline and ddp-index must train bit-identically; checks the
/// first epoch against a one-epoch run of the other strategy.
bool cross_strategy_gate(const Options& opt, const Shape& shape, bool baseline,
                         const Curve& curve, Report& report) {
  const core::DistConfig other = ddp_config(
      opt, shape,
      baseline ? core::DistMode::kDistributedIndex : core::DistMode::kBaselineDdp, 1);
  const Rep ref = run_public(other);
  return report.gate(same_curve(ref.curve, curve, 1),
                     "ddp-baseline and ddp-index epoch-0 losses are bit-identical");
}

}  // namespace

void run_train_index(const Options& opt, Report& report) {
  const Shape shape = index_shape(opt);
  if (!opt.trace) {
    measured_runs(opt, shape,
                  [&](int epochs) { return run_public(index_config(opt, shape, epochs)); },
                  report);
    return;
  }
  const core::TrainConfig cfg = index_config(opt, shape, shape.traced_epochs);
  const Rep reference = run_public(cfg);
  const TracedRun run = traced_single(cfg, shape);
  const bool ok = report.gate(same_curve(run.curve, reference.curve, run.curve.size()),
                              "traced per-epoch losses are bit-identical to the untraced run");
  // The reference's and the traced run's steps; a failed check fails both.
  const std::int64_t steps = shape.steps * cfg.epochs * 2;
  report.ops(steps, ok ? 0 : steps);
  report_traced(opt, shape, run, reference, report);
  probe_kernels(cfg.spec, shape.batch, shape.hidden, report);
}

void run_ddp(const Options& opt, bool baseline, Report& report) {
  const Shape shape = ddp_shape(opt, baseline);
  const core::DistMode mode =
      baseline ? core::DistMode::kBaselineDdp : core::DistMode::kDistributedIndex;
  if (!opt.trace) {
    measured_runs(opt, shape,
                  [&](int epochs) { return run_public(ddp_config(opt, shape, mode, epochs)); },
                  report);
    return;
  }
  const core::DistConfig cfg = ddp_config(opt, shape, mode, shape.traced_epochs);
  const Rep reference = run_public(cfg);
  const TracedRun run = traced_dist(cfg, shape);
  bool ok = report.gate(same_curve(run.curve, reference.curve, run.curve.size()),
                        "traced per-epoch losses are bit-identical to the untraced run");
  const dist::StoreStats& store = reference.store;
  ok &= report.gate(store.remote_bytes == store.bytes_copied + store.cache_hit_bytes,
                    "store keeps remote_bytes == bytes_copied + cache_hit_bytes");
  ok &= cross_strategy_gate(opt, shape, baseline, reference.curve, report);
  // The reference's, the traced run's and the other strategy's steps; a
  // failed check fails them all.
  const std::int64_t steps = shape.steps * (cfg.epochs * 2 + 1);
  report.ops(steps, ok ? 0 : steps);
  report_traced(opt, shape, run, reference, report);
  probe_kernels(cfg.spec, shape.batch, shape.hidden, report);
}

}  // namespace pgti::benchmark
