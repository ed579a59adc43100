// Kernel rates at a workload's DCGRU gate shape, read against a host
// copy ceiling measured in the same run.
#include <cstring>
#include <vector>

#include "bench.h"
#include "data/synthetic.h"
#include "graph/csr.h"
#include "graph/spatial.h"
#include "runtime/arena.h"
#include "runtime/rng.h"
#include "tensor/tensor_ops.h"

namespace pgti::benchmark {
namespace {

/// Median seconds per call over five ~40 ms windows, after one warm-up
/// call.
template <class Fn>
double seconds_per_call(Fn&& fn) {
  fn();
  std::vector<double> per_call;
  for (int window = 0; window < 5; ++window) {
    int calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = seconds_between(t0, Clock::now());
    } while (elapsed < 0.04);
    per_call.push_back(elapsed / calls);
  }
  return median(per_call);
}

}  // namespace

void probe_kernels(const data::DatasetSpec& spec, std::int64_t batch, std::int64_t hidden,
                   Report& report) {
  // DCGRU gate projection: [B*N, (1 + 2K) * (F + H)] x [(1 + 2K) * (F + H), 2H]
  // with the dual random-walk supports and K = 2 diffusion steps.
  const std::int64_t nodes = spec.nodes;
  const std::int64_t channels = spec.features + hidden;
  const std::int64_t m = batch * nodes, k = 5 * channels, n = 2 * hidden;
  Rng rng(1);
  const Tensor a = Tensor::uniform({m, k}, rng, -1.0f, 1.0f);
  const Tensor b = Tensor::uniform({k, n}, rng, -1.0f, 1.0f);
  runtime::TensorArena arena;
  const double matmul_s = seconds_per_call([&] {
    runtime::ArenaScope scope(arena);
    (void)ops::matmul(a, b);
  });
  report.set("tensor.matmul_gflops", 2.0 * static_cast<double>(m * k * n) / matmul_s / 1e9);

  const SensorNetwork net = data::network_for(spec);
  const Csr support = dual_random_walk_supports(net.adjacency).front();
  const Tensor x = Tensor::uniform({batch, nodes, channels}, rng, -1.0f, 1.0f);
  const double spmm_s = seconds_per_call([&] {
    runtime::ArenaScope scope(arena);
    (void)support.spmm_batched(x);
  });
  // Bytes the kernel must move: the dense input and output once, plus
  // the CSR arrays once per batch slice.
  const double dense = 2.0 * static_cast<double>(x.numel()) * sizeof(float);
  const double csr = static_cast<double>(batch) *
                     (static_cast<double>(support.nnz()) * (sizeof(std::int64_t) + sizeof(float)) +
                      static_cast<double>(support.rows() + 1) * sizeof(std::int64_t));
  report.set("graph.spmm_gbps", (dense + csr) / spmm_s / 1e9);

  // Copy ceiling: a buffer well past the last-level cache, counted as
  // bytes read plus bytes written.
  const std::size_t bytes = std::size_t{32} << 20;
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  const double copy_s = seconds_per_call([&] {
    std::memcpy(dst.data(), src.data(), bytes);
    __asm__ __volatile__("" : : "r"(dst.data()) : "memory");  // keep the copy
  });
  report.set("runtime.host_memcpy_gbps", 2.0 * static_cast<double>(bytes) / copy_s / 1e9);
}

}  // namespace pgti::benchmark
