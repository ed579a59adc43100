// Shared pieces of the PGT-I benchmark harness: run options, the
// dataset every workload uses, the metric report, and small statistics
// helpers.  See benchmark/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset_spec.h"

namespace pgti::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement budget of one run
  bool trace = false;     ///< traced per-layer run instead of the measured one
  bool smoke = false;     ///< shrunken sizes: every gate, in seconds
  std::string out;        ///< JSON report path ("" = none)
  std::string trace_out;  ///< Chrome-trace directory ("" = none)
};

/// PeMS-BAY with `nodes` as DatasetSpec::scaled(8) sets it (41) and all
/// 52,105 entries kept: per-step compute stays small while the
/// materialized baseline keeps the paper's data-growth ratio.  Smoke
/// runs also cut the entries by 8.
data::DatasetSpec pems_bay_n41(bool smoke);

/// End-to-end metrics come from measured runs, per-layer metrics from
/// traced runs.
enum class Kind { kEndToEnd, kLayer };
/// Measured wall-clock quantities and modeled (SimClock / NetworkModel)
/// ones are never mixed; modeled seconds carry the unit `modeled_s`.
enum class Axis { kMeasured, kModeled };

struct MetricDef {
  const char* name;
  const char* unit;
  Kind kind;
  Axis axis;
};

/// Every metric the benchmark reports, in print order (BENCHMARK.json
/// lists the same names).  A run sets the metrics of its kind that its
/// workload exercises; a per-layer metric of a layer the workload never
/// runs reads 0.
const std::vector<MetricDef>& metric_defs();

/// What one workload run produced: metric values, operation counts, and
/// the outcome of every correctness gate.
class Report {
 public:
  Report(std::string workload, Kind kind) : workload_(std::move(workload)), kind_(kind) {}

  /// Sets a metric of metric_defs(); an unknown name is a program bug.
  void set(const std::string& name, double value);
  bool has(const std::string& name) const;

  /// Records a correctness gate; a failed gate fails the run.  Returns
  /// `ok`.
  bool gate(bool ok, const std::string& what);

  /// Counts operations (training steps or serving requests).
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return gate_failures_ == 0 && failed_ == 0 && attempted_ > 0; }

  /// Prints one `# gate` line per gate, one
  /// `workload metric value unit kind axis` line per metric of the
  /// run's kind, and last the one-line JSON result.
  void print() const;

  /// Writes the run's metrics, counts and gates as a JSON document.
  void write_json(const std::string& path) const;

 private:
  std::string workload_;
  Kind kind_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, bool>> gates_;
  int gate_failures_ = 0;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Nearest-rank percentile (p in [0, 1]) of `v`; 0 for an empty sample.
/// The median of an even count is the lower middle value.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

void run_train_index(const Options& opt, Report& report);
void run_ddp(const Options& opt, bool baseline, Report& report);
/// serve-stream (`hot`: 80% of requests on the newest windows) or
/// serve-uniform (no hot share).
void run_serve(const Options& opt, bool hot, Report& report);

/// Kernel rates at one DCGRU gate shape and the host copy ceiling:
/// sets tensor.matmul_gflops, graph.spmm_gbps and
/// runtime.host_memcpy_gbps.
void probe_kernels(const data::DatasetSpec& spec, std::int64_t batch,
                   std::int64_t hidden, Report& report);

}  // namespace pgti::benchmark
