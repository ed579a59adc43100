// Distributed data parallelism over autograd parameters.
//
// GradBucket implements PyTorch-DDP-style bucketed gradient averaging:
// parameter gradients are packed into a small number of flat buckets,
// each bucket is all-reduced once (amortizing per-collective latency —
// the ablation bench_kernels.cpp measures), and the averaged values are
// scattered back.  Because Communicator collectives are rank-ordered
// and bit-exact, replicas stay bit-identical after every step, which is
// what lets W-worker runs match the large-batch single-worker gradient
// exactly (tests/dist_test.cpp, Ddp.DistributedGradEqualsLargeBatchGrad).
//
// Construction preallocates every parameter's gradient tensor (zeros),
// so the steady-state pack/unpack path is pure memcpy: no per-step
// zero-fill for absent grads and no lazy allocations inside the sync.
// Replicas stay bit-identical even when ranks populate different
// subsets of gradients, because zeros enter the average exactly as the
// old fill-on-pack path produced.
//
// The bucket layout (buckets(), pack_bucket(), unpack_bucket()) is
// public so OverlappedGradBucket (dist/overlap.h) can reuse the same
// partition for ready-bucket all-reduces fired during backward.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/variable.h"
#include "dist/cluster_model.h"
#include "dist/comm.h"

namespace pgti::dist {

/// Flat-buffer gradient averager for a fixed parameter list.
class GradBucket {
 public:
  /// Default bucket capacity, in gradient elements (1 MiB of floats).
  static constexpr std::int64_t kDefaultBucketNumel = 1 << 18;

  /// A contiguous run of parameters reduced in one collective.
  struct Bucket {
    std::vector<std::size_t> param_indices;
    std::int64_t numel = 0;
  };

  /// Captures the parameter layout (shapes/order must not change
  /// afterwards) and preallocates every parameter's gradient.
  explicit GradBucket(std::vector<Variable>& params,
                      std::int64_t bucket_numel = kDefaultBucketNumel);

  /// Total gradient elements across all parameters.
  std::int64_t numel() const noexcept { return total_numel_; }
  /// Number of flat buckets the parameters were packed into.
  std::size_t bucket_count() const noexcept { return buckets_.size(); }
  /// The bucket partition, in reduction order.
  const std::vector<Bucket>& buckets() const noexcept { return buckets_; }

  /// Throws if `params` no longer matches the construction-time layout.
  void verify_layout(const std::vector<Variable>& params) const;

  /// Copies bucket `b`'s parameter gradients into `dst` (contiguous,
  /// buckets()[b].numel floats).  Grads exist from construction, so
  /// this is branch-free memcpy.
  void pack_bucket(std::size_t b, const std::vector<Variable>& params,
                   float* dst) const;
  /// Scatters `src` back into bucket `b`'s parameter gradients.
  void unpack_bucket(std::size_t b, std::vector<Variable>& params,
                     const float* src) const;

  /// Averages grads across ranks in place: pack, one allreduce_mean per
  /// bucket, unpack into every parameter.  `params` must match the
  /// construction-time list.
  void allreduce_average(Communicator& comm, std::vector<Variable>& params);

  /// Modeled wall seconds one full gradient sync costs on `net` — the
  /// sum over buckets of allreduce_seconds(numel * sizeof(float)).
  double modeled_sync_seconds(const NetworkModel& net, int world) const;

 private:
  std::vector<std::int64_t> param_numels_;
  std::vector<Bucket> buckets_;
  std::vector<float> flat_;
  std::int64_t total_numel_ = 0;
  std::int64_t max_bucket_numel_ = 0;
};

/// One-shot convenience: average `params`' gradients across ranks.
void allreduce_gradients(Communicator& comm, std::vector<Variable>& params);

/// Copies root's parameter values to every other rank so all replicas
/// start (or resume) bit-identical.
void broadcast_parameters(Communicator& comm, std::vector<Variable>& params,
                          int root);

}  // namespace pgti::dist
