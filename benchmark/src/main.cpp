// PGT-I benchmark harness.
//
//   pgti_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--out FILE] [--trace-out DIR]
//
// Runs one workload (train-index, ddp-baseline, ddp-index,
// serve-stream, serve-uniform).  --trace 0 is the measured run and reports the
// end-to-end metrics; --trace 1 is the traced run and reports the
// per-layer metrics.  Every metric is printed as a
// `workload metric value unit kind axis` line; the last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics.  The exit code is 0 only when every correctness
// gate passed and no operation failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace pgti::benchmark {

data::DatasetSpec pems_bay_n41(bool smoke) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay);
  spec.nodes = spec.scaled(8).nodes;
  if (smoke) spec.entries /= 8;
  spec.name = "pems-bay-n41";
  return spec;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

const char* kind_name(Kind k) { return k == Kind::kEndToEnd ? "e2e" : "layer"; }
const char* axis_name(Axis a) { return a == Axis::kMeasured ? "measured" : "modeled"; }

}  // namespace

const std::vector<MetricDef>& metric_defs() {
  constexpr Kind E = Kind::kEndToEnd, L = Kind::kLayer;
  constexpr Axis M = Axis::kMeasured, Mod = Axis::kModeled;
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", E, M},
      {"workflow_s", "s", E, M},
      {"items_per_s", "1/s", E, M},
      {"latency_p50_ms", "ms", E, M},
      {"peak_host_mb", "MB", E, M},
      {"nn.forward_ms.p50", "ms", L, M},
      {"autograd.backward_ms.p50", "ms", L, M},
      {"core.loss_ms.p50", "ms", L, M},
      {"optim.step_ms.p50", "ms", L, M},
      {"core.step_ms.p50", "ms", L, M},
      {"core.step_ms.p90", "ms", L, M},
      {"core.first_epoch_s", "s", L, M},
      {"core.trace_overhead", "ratio", L, M},
      {"data.next_ms.p50", "ms", L, M},
      {"data.next_share", "ratio", L, M},
      {"data.signal_s", "s", L, M},
      {"data.preprocess_s", "s", L, M},
      {"dist.grad_drain_ms.p50", "ms", L, M},
      {"dist.allreduce_calls_per_step", "count", L, M},
      {"dist.allreduce_bytes_per_step", "B", L, M},
      {"dist.modeled_allreduce_s", "modeled_s", L, Mod},
      {"dist.store.bytes_copied_per_step", "B", L, M},
      {"dist.store.remote_snapshots_per_step", "count", L, M},
      {"dist.store.request_messages_per_step", "count", L, M},
      {"dist.store.cache_hit_ratio", "ratio", L, M},
      {"dist.store.modeled_exposed_fetch_s", "modeled_s", L, Mod},
      {"dist.store.modeled_overlapped_share", "ratio", L, Mod},
      {"runtime.heap_allocs_per_step", "count", L, M},
      {"runtime.host_memcpy_gbps", "GB/s", L, M},
      {"tensor.matmul_gflops", "GFLOP/s", L, M},
      {"graph.spmm_gbps", "GB/s", L, M},
      {"serve.queue_ms.p50", "ms", L, M},
      {"serve.avg_batch", "count", L, M},
      {"serve.p90_ms", "ms", L, M},
      {"serve.p99_ms", "ms", L, M},
      {"serve.sat_p50_ms", "ms", L, M},
      {"serve.publish_ms.p50", "ms", L, M},
      {"serve.gen_late_ms.max", "ms", L, M},
      {"serve.store_bytes_copied_per_req", "B", L, M},
      {"serve.cache_hit_ratio", "ratio", L, M},
  };
  return defs;
}

void Report::set(const std::string& name, double value) {
  for (const MetricDef& d : metric_defs()) {
    if (name == d.name) {
      if (!std::isfinite(value)) gate(false, "metric " + name + " is finite");
      values_.emplace_back(name, value);
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

bool Report::has(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return true;
  }
  return false;
}

bool Report::gate(bool ok, const std::string& what) {
  gates_.emplace_back(what, ok);
  if (!ok) ++gate_failures_;
  return ok;
}

namespace {

/// The run's metrics in table order; per-layer metrics the workload did
/// not set read 0.
std::vector<std::pair<const MetricDef*, double>> rows(
    Kind kind, const std::vector<std::pair<std::string, double>>& values) {
  std::vector<std::pair<const MetricDef*, double>> out;
  for (const MetricDef& d : metric_defs()) {
    if (d.kind != kind) continue;
    double v = 0.0;
    for (const auto& [name, value] : values) {
      if (name == d.name) v = value;
    }
    out.emplace_back(&d, v);
  }
  return out;
}

}  // namespace

void Report::print() const {
  for (const auto& [what, ok] : gates_) {
    std::printf("# %s gate %s: %s\n", workload_.c_str(), ok ? "PASS" : "FAIL", what.c_str());
  }
  std::printf("# %s ops attempted %lld failed %lld\n", workload_.c_str(),
              static_cast<long long>(attempted_), static_cast<long long>(failed_));
  std::string metrics;
  for (const auto& [d, v] : rows(kind_, values_)) {
    std::printf("%s %s %s %s %s %s\n", workload_.c_str(), d->name, json_number(v).c_str(),
                d->unit, kind_name(d->kind), axis_name(d->axis));
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(d->name) + ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(d->unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct() ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

void Report::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\": " << json_string(workload_)
      << ", \"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ",\n \"metrics\": [";
  const auto r = rows(kind_, values_);
  for (std::size_t i = 0; i < r.size(); ++i) {
    const MetricDef& d = *r[i].first;
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_string(d.name)
        << ", \"value\": " << json_number(r[i].second) << ", \"unit\": " << json_string(d.unit)
        << ", \"kind\": \"" << kind_name(d.kind) << "\", \"axis\": \"" << axis_name(d.axis)
        << "\"}";
  }
  out << "],\n \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    out << (i ? ",\n  " : "\n  ") << "{\"gate\": " << json_string(gates_[i].first)
        << ", \"pass\": " << (gates_[i].second ? "true" : "false") << "}";
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing " + path);
}

}  // namespace pgti::benchmark

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pgti_bench: %s\nusage: pgti_bench --workload "
               "{train-index|ddp-baseline|ddp-index|serve-stream|serve-uniform} [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--trace-out DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgti::benchmark;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--out") {
        opt.out = value();
      } else if (arg == "--trace-out") {
        opt.trace_out = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) usage("--seconds must be in (0, 600]");

  const std::map<std::string, void (*)(const Options&, Report&)> workloads = {
      {"train-index", run_train_index},
      {"ddp-baseline", [](const Options& o, Report& r) { run_ddp(o, true, r); }},
      {"ddp-index", [](const Options& o, Report& r) { run_ddp(o, false, r); }},
      {"serve-stream", [](const Options& o, Report& r) { run_serve(o, true, r); }},
      {"serve-uniform", [](const Options& o, Report& r) { run_serve(o, false, r); }},
  };
  const auto it = workloads.find(opt.workload);
  if (it == workloads.end()) usage("--workload names no workload");

  Report report(opt.workload, opt.trace ? Kind::kLayer : Kind::kEndToEnd);
  try {
    it->second(opt, report);
    if (!opt.trace) {
      for (const MetricDef& d : metric_defs()) {
        if (d.kind == Kind::kEndToEnd && !report.has(d.name)) {
          report.gate(false, std::string("end-to-end metric measured: ") + d.name);
        }
      }
    }
  } catch (const std::exception& e) {
    report.gate(false, std::string("run completed without error: ") + e.what());
    report.ops(1, 1);
  }
  if (!opt.out.empty()) report.write_json(opt.out);
  report.print();
  return report.correct() ? 0 : 1;
}
