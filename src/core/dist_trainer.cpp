#include "core/dist_trainer.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/epoch_engine.h"
#include "core/trainer.h"
#include "data/snapshot_provider.h"
#include "dist/ddp.h"
#include "dist/dist_store.h"
#include "dist/overlap.h"
#include "optim/optim.h"
#include "runtime/timer.h"

namespace pgti::core {
namespace {

data::ShuffleMode train_shuffle_for(DistMode mode) {
  switch (mode) {
    case DistMode::kDistributedIndex:
    case DistMode::kBaselineDdp:
      return data::ShuffleMode::kGlobal;
    case DistMode::kGeneralizedIndex:
    case DistMode::kBaselineDdpBatchShuffle:
      return data::ShuffleMode::kBatchLevel;
  }
  return data::ShuffleMode::kGlobal;
}

bool uses_store(DistMode mode) {
  return mode == DistMode::kBaselineDdp || mode == DistMode::kBaselineDdpBatchShuffle;
}

/// One training job: the set-up every rank needs, whichever rank it
/// is, and the results rank 0 writes.  In-process, run() builds one
/// Job that all W rank threads share; in a multi-process run every
/// rank process builds an identical copy deterministically from the
/// config (same seed, same synthetic signal), which is why no shared
/// memory is required.
struct Job {
  /// Builds the signal, resets the host peak, then builds the store
  /// (the store-backed baselines, priced on `network`) or fits the
  /// generalized-index scaler: peak_host_bytes counts from the reset.
  Job(const DistConfig& config, const dist::NetworkModel& network);

  /// Assembles the result from rank 0's writes and `context`'s ledger.
  DistResult finish(const dist::CommContext& context);

  const DistConfig& cfg;
  const SensorNetwork net;
  const Tensor raw;
  const data::SplitRanges splits;
  std::optional<dist::DistStore> store;  ///< the store-backed baselines only
  data::StandardScaler global_scaler;    ///< kGeneralizedIndex only
  double shared_pre_seconds = 0.0;

  // Written by rank 0.
  std::vector<EpochMetrics> curve;
  double local_pre_seconds = 0.0;
  DistResult result;
};

Job::Job(const DistConfig& config, const dist::NetworkModel& network)
    : cfg(config),
      net(data::network_for(config.spec)),
      raw(data::generate_signal(config.spec, net, config.seed)),
      splits(data::split_ranges(config.spec.num_snapshots())),
      curve(static_cast<std::size_t>(config.epochs)) {
  MemoryTracker::instance().reset_peak(kHostSpace);

  // Shared pieces, built once (Dask would distribute them; memory-wise
  // this favours the baseline, which the paper also observes at high
  // worker counts).
  WallTimer pre_timer;
  if (uses_store(cfg.mode)) {
    // The baseline's data plane is a real partitioned store: the
    // materialized snapshots live in the store, each rank owns a
    // contiguous shard, and remote batches move actual bytes through a
    // bounded per-rank cache.  The store owns its cache defaults
    // (store_cache_snapshots < 0 resolves inside it).  Whoever
    // announces a batch stages it — with prefetch_depth > 0, each
    // rank's PrefetchLoader worker — and the overlap split is
    // classified when batches reach the consumer (the per-batch
    // pipeline hook in rank_main), so only the exposed share of
    // modeled fetch time is charged.
    store.emplace(data::StandardDataset(raw, cfg.spec), cfg.world, network,
                  cfg.store_cache_snapshots, cfg.store_cache_bytes);
  } else if (cfg.mode == DistMode::kGeneralizedIndex) {
    Tensor stage1 = data::add_time_feature(raw, cfg.spec, kHostSpace);
    global_scaler = data::fit_scaler(stage1, cfg.spec);
  }
  shared_pre_seconds = pre_timer.seconds();
}

DistResult Job::finish(const dist::CommContext& context) {
  result.world = cfg.world;
  result.curve = std::move(curve);
  result.preprocess_seconds = shared_pre_seconds + local_pre_seconds;
  result.best_val_mae = 1e30;
  result.train_wall_seconds = 0.0;
  for (const EpochMetrics& em : result.curve) {
    result.train_wall_seconds += em.wall_seconds;
    if (em.val_mae > 0.0) result.best_val_mae = std::min(result.best_val_mae, em.val_mae);
  }
  result.peak_host_bytes = MemoryTracker::instance().peak(kHostSpace);
  // Rank 0 records every collective of the job (comm.h: rank 0, or a
  // broadcast's root, and every broadcast here is rooted at rank 0), so
  // its context's ledger is the job-level view; in a multi-process run
  // other ranks see zeros here, matching the "rank 0 writes"
  // convention.
  result.comm = context.stats();
  result.modeled_allreduce_seconds = context.collective_seconds();
  return std::move(result);
}

/// The per-rank training body, transport-agnostic: everything flows
/// through the Communicator — collectives, the NetworkModel, and
/// modeled-time charging (comm.charge_seconds hits the shared
/// CommContext, the same clock Cluster::charge_seconds feeds).
void rank_main(dist::Communicator& comm, Job& job) {
  const DistConfig& cfg = job.cfg;
  const data::DatasetSpec& spec = cfg.spec;
  const data::SplitRanges& splits = job.splits;
  const Tensor& raw = job.raw;
  dist::DistStore* store = job.store ? &*job.store : nullptr;
  const int rank = comm.rank();
  const int world = comm.world();

  // ---- local data plane -------------------------------------------
  // Both training modes flow through the SnapshotProvider seam: the
  // index family serves rank-local IndexDatasets, the baseline serves
  // the partitioned DistStore; the DataLoader cannot tell them apart.
  WallTimer local_pre;
  std::optional<data::IndexDataset> local_index;       // dist-index: full copy
  std::optional<data::IndexDataset> part_train;        // generalized
  std::optional<data::IndexDataset> part_val;          // generalized
  std::optional<data::IndexProvider> train_index_provider;
  std::optional<data::IndexProvider> val_index_provider;
  data::SnapshotProvider* train_provider = nullptr;
  data::SnapshotProvider* val_provider = nullptr;
  std::int64_t train_lo = splits.train_begin, train_hi = splits.train_end;
  std::int64_t val_lo = splits.val_begin, val_hi = splits.val_end;
  data::SamplerOptions train_sampler{train_shuffle_for(cfg.mode), rank, world,
                                     cfg.seed, spec.batch_size};
  data::SamplerOptions val_sampler{data::ShuffleMode::kNone, rank, world, cfg.seed,
                                   spec.batch_size};

  switch (cfg.mode) {
    case DistMode::kDistributedIndex: {
      local_index.emplace(raw, spec);  // full local copy per worker
      train_index_provider.emplace(*local_index);
      val_index_provider.emplace(*local_index);
      train_provider = &*train_index_provider;
      val_provider = &*val_index_provider;
      break;
    }
    case DistMode::kBaselineDdp:
    case DistMode::kBaselineDdpBatchShuffle: {
      train_provider = store;
      val_provider = store;
      break;
    }
    case DistMode::kGeneralizedIndex: {
      // Contiguous train partition (plus window overlap) owned locally.
      const std::int64_t n_train = splits.train_end - splits.train_begin;
      const std::int64_t chunk = (n_train + world - 1) / world;
      train_lo = std::min(splits.train_begin + chunk * rank, splits.train_end);
      train_hi = std::min(train_lo + chunk, splits.train_end);
      const std::int64_t entry_lo = train_lo;
      const std::int64_t entry_len =
          std::min(spec.entries, train_hi - 1 + 2 * spec.horizon) - entry_lo;
      part_train.emplace(raw.slice(0, entry_lo, entry_len).clone(), spec, entry_lo,
                         job.global_scaler, train_lo, train_hi);
      // Validation shard.
      const std::int64_t n_val = splits.val_end - splits.val_begin;
      const std::int64_t vchunk = (n_val + world - 1) / world;
      val_lo = std::min(splits.val_begin + vchunk * rank, splits.val_end);
      val_hi = std::min(val_lo + vchunk, splits.val_end);
      const std::int64_t ventry_lo = val_lo;
      const std::int64_t ventry_len =
          std::min(spec.entries, val_hi - 1 + 2 * spec.horizon) - ventry_lo;
      part_val.emplace(raw.slice(0, ventry_lo, std::max<std::int64_t>(ventry_len, 0))
                           .clone(),
                       spec, ventry_lo, job.global_scaler, val_lo, val_hi);
      train_index_provider.emplace(*part_train);
      val_index_provider.emplace(*part_val);
      train_provider = &*train_index_provider;
      val_provider = &*val_index_provider;
      // Partitioned data means each worker samples only its own
      // range; the loader sees world=1 over LOCAL snapshot ids
      // (IndexDataset::get maps them back to global windows).
      train_sampler.rank = 0;
      train_sampler.world = 1;
      val_sampler.rank = 0;
      val_sampler.world = 1;
      train_lo = 0;
      train_hi = part_train->num_snapshots();
      val_lo = 0;
      val_hi = part_val->num_snapshots();
      break;
    }
  }
  data::RankSource train_source(*train_provider, rank);
  data::RankSource val_source(*val_provider, rank);
  if (rank == 0) job.local_pre_seconds = local_pre.seconds();

  // ---- model replica -------------------------------------------------
  ModelBundle bundle = make_model(cfg.model, spec, job.net, cfg.hidden_dim,
                                  cfg.diffusion_steps, /*num_layers=*/2, cfg.seed);
  std::vector<Variable> params = bundle.model->parameters();
  dist::broadcast_parameters(comm, params, /*root=*/0);
  if (rank == 0) job.result.model_parameters = bundle.model->parameter_count();
  optim::Adam::Options adam_opt;
  adam_opt.lr = cfg.lr;
  optim::Adam opt(params, adam_opt);
  optim::LinearScalingSchedule schedule(cfg.lr, world, /*warmup_epochs=*/3);

  // Gradient plane: serial bucketed averaging, or ready-bucket
  // overlap where backward itself launches each bucket's all-reduce
  // on a per-rank comm thread (DESIGN.md §13).  Both share the same
  // bucket partition and the same deterministic tree, so kStrict is
  // bit-identical to kOff.
  std::optional<dist::GradBucket> bucket;
  std::optional<dist::OverlappedGradBucket> obucket;
  double serial_sync_seconds = 0.0;  // off-mode exposed accumulation
  if (cfg.grad_overlap == GradOverlap::kOff) {
    bucket.emplace(params);
  } else {
    obucket.emplace(comm, params,
                    cfg.grad_overlap == GradOverlap::kStale1
                        ? dist::OverlappedGradBucket::Mode::kStale1
                        : dist::OverlappedGradBucket::Mode::kStrict,
                    comm.network());
  }

  // ---- the shared pipeline (DESIGN.md §12) -----------------------------
  // Each rank drives the same EpochEngine the single-process Trainer
  // uses: loaders feed BatchPipelines (depth-N PrefetchLoader rings
  // when prefetch_depth > 0), the per-batch hook charges the cluster
  // the *exposed* share of modeled fetch time the provider
  // accumulated staging the batch, and the gradient hook runs the
  // DDP all-reduce between backward and step.  The production cap
  // passed at start_epoch keeps train/val workers of a rank from
  // announcing concurrently.
  data::LoaderOptions train_opt;
  train_opt.batch_size = spec.batch_size;
  train_opt.sampler = train_sampler;
  train_opt.drop_last = true;
  train_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader train_loader(train_source, train_opt, train_lo, train_hi);

  data::LoaderOptions val_opt;
  val_opt.batch_size = spec.batch_size;
  val_opt.sampler = val_sampler;
  val_opt.drop_last = false;
  val_opt.prefetch_lookahead = cfg.prefetch_depth;
  data::DataLoader val_loader(val_source, val_opt, val_lo, val_hi);

  BatchPipeline train_pipe(train_loader, cfg.prefetch_depth, [&] {
    train_provider->notify_batch_delivered(rank);
    comm.charge_seconds(train_provider->drain_modeled_seconds(rank));
  });
  BatchPipeline val_pipe(val_loader, cfg.prefetch_depth, [&] {
    val_provider->notify_batch_delivered(rank);
    comm.charge_seconds(val_provider->drain_modeled_seconds(rank));
  });
  EpochEngine::Hooks hooks;
  if (obucket) {
    hooks.grad_observer = &*obucket;
    hooks.sync_gradients = [&] { obucket->drain(); };
  } else {
    // Serial path: the whole bucket sweep sits on the critical path,
    // so every step exposes its full modeled sync cost.
    const double step_sync = bucket->modeled_sync_seconds(comm.network(), world);
    hooks.sync_gradients = [&, step_sync] {
      bucket->allreduce_average(comm, params);
      serial_sync_seconds += step_sync;
    };
  }
  EpochEngine engine(*bundle.model, opt, hooks);

  // Every rank must issue the SAME number of gradient all-reduces per
  // epoch or the collective deadlocks; ranks can own unequal shards
  // (ceil-chunking, partitioned mode), so synchronize on the global
  // minimum step count — the same contract PyTorch's
  // DistributedSampler enforces by padding.
  std::int64_t steps_per_epoch = train_loader.batches_per_epoch();
  if (cfg.max_batches_per_epoch > 0) {
    steps_per_epoch = std::min(steps_per_epoch, cfg.max_batches_per_epoch);
  }
  for (double other : comm.allgather(static_cast<double>(steps_per_epoch))) {
    steps_per_epoch = std::min(steps_per_epoch, static_cast<std::int64_t>(other));
  }
  const std::int64_t val_cap = cfg.max_val_batches > 0 ? cfg.max_val_batches : -1;

  // ---- training --------------------------------------------------------
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    if (cfg.scale_lr) opt.set_lr(schedule.lr_for_epoch(epoch));
    comm.barrier();
    WallTimer epoch_timer;
    const EpochEngine::EpochSums train =
        engine.train_epoch(train_pipe, epoch, steps_per_epoch);

    // Validation: each rank scores its shard; sums are all-reduced
    // ("AllReduce operations to calculate validation accuracy", §5.3.1).
    const EpochEngine::EpochSums val =
        engine.eval_epoch(val_pipe, val_cap, EpochEngine::Metric::kMae);

    // The comm thread must be quiescent before the main thread
    // enters collectives of its own (one collective thread per rank
    // at a time).  In stale mode the final step's reduces just ran
    // under eval compute; the still-unapplied results carry across
    // the epoch boundary.
    if (obucket) obucket->flush();

    const double g_train_sum = comm.allreduce_scalar_sum(train.sum);
    const double g_train_cnt =
        comm.allreduce_scalar_sum(static_cast<double>(train.batches));
    const double g_val_sum = comm.allreduce_scalar_sum(val.sum);
    const double g_val_cnt =
        comm.allreduce_scalar_sum(static_cast<double>(val.batches));

    if (rank == 0) {
      const double sigma = train_source.scaler().stddev;
      EpochMetrics em;
      em.epoch = epoch;
      em.train_mae = g_train_cnt > 0 ? g_train_sum / g_train_cnt * sigma : 0.0;
      em.val_mae = g_val_cnt > 0 ? g_val_sum / g_val_cnt * sigma : 0.0;
      em.wall_seconds = epoch_timer.seconds();
      job.curve[static_cast<std::size_t>(epoch)] = em;
    }
  }
  // Close out the gradient plane: any completed-but-unapplied stale
  // buckets never gated a step, so they classify as fully overlapped
  // (mirroring abandon_prefetches for the data plane).
  if (obucket) obucket->finish();
  if (rank == 0) {
    if (obucket) {
      job.result.grad_sync_overlapped_seconds = obucket->overlapped_seconds();
      job.result.grad_sync_exposed_seconds = obucket->exposed_seconds();
    } else {
      job.result.grad_sync_exposed_seconds = serial_sync_seconds;
    }
    job.result.allocs_last_step = engine.allocs_last_step();
  }
  comm.barrier();
}

}  // namespace

DistResult DistTrainer::run() {
  dist::Cluster cluster(cfg_.world);
  Job job(cfg_, cluster.network());
  cluster.run([&](dist::Communicator& comm) { rank_main(comm, job); });
  if (job.store) {
    dist::DistStore& store = *job.store;
    // Close out the prefetch pipeline: lookahead may have announced
    // batches a truncated epoch never consumed (fully overlapped by
    // definition — nobody waited), and classification since the last
    // in-loop drain still owes the cluster its exposed share.
    for (int r = 0; r < cfg_.world; ++r) {
      store.abandon_prefetches(r);
      cluster.charge_seconds(store.drain_modeled_seconds(r));
    }
    const dist::StoreStats stats = store.stats();
    // The fetch ledger is backed by real movement: every modeled
    // remote byte must have been physically copied or absorbed by the
    // bounded per-rank cache.  A mismatch means the model and the
    // byte-moving store disagree — fail loudly rather than report
    // fiction.
    if (stats.remote_bytes != stats.bytes_copied + stats.cache_hit_bytes) {
      throw std::logic_error(
          "DistTrainer: DistStore modeled remote bytes (" +
          std::to_string(stats.remote_bytes) + ") != bytes physically copied (" +
          std::to_string(stats.bytes_copied) + ") + cache-absorbed (" +
          std::to_string(stats.cache_hit_bytes) + ")");
    }
    job.result.store = stats;
    job.result.modeled_fetch_seconds = stats.exposed_seconds;
  }
  return job.finish(cluster.context());
}

DistResult DistTrainer::run_rank(dist::Communicator& comm) {
  if (uses_store(cfg_.mode)) {
    throw std::invalid_argument(
        "DistTrainer::run_rank: the store-backed baseline strategies "
        "(kBaselineDdp*) share one DistStore across ranks and require the "
        "in-process cluster (run()); use an index strategy for "
        "multi-process runs");
  }
  if (comm.world() != cfg_.world) {
    throw std::invalid_argument(
        "DistTrainer::run_rank: comm.world() != config world");
  }
  Job job(cfg_, comm.network());
  rank_main(comm, job);
  return job.finish(comm.context());
}

}  // namespace pgti::core
