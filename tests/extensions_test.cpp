// Tests for the paper's optional / future-work extensions: masked and
// Huber losses, missing-data injection, LR schedules, checkpointing,
// prefetching, scheduled sampling, and dynamic graphs with temporal
// signal (paper §7).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "autograd/gradcheck.h"
#include "core/pgt_i.h"
#include "data/dynamic_graph.h"
#include "data/prefetch.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "optim/optim.h"
#include "tensor/tensor_ops.h"

namespace pgti {
namespace {

// ------------------------------------------------------------ masked loss

TEST(MaskedMae, IgnoresNullEntries) {
  Variable pred(Tensor::from_vector({1.0f, 5.0f, 3.0f}), true);
  Tensor target = Tensor::from_vector({2.0f, 0.0f, 1.0f});  // middle missing
  Variable loss = ag::masked_mae_loss(pred, target, 0.0f);
  EXPECT_FLOAT_EQ(loss.value().item(), 1.5f);  // (1 + 2) / 2
  loss.backward();
  EXPECT_EQ(pred.grad().at({1}), 0.0f) << "missing entry must get no gradient";
  EXPECT_NE(pred.grad().at({0}), 0.0f);
}

TEST(MaskedMae, AllMissingIsZeroLoss) {
  Variable pred(Tensor::from_vector({1.0f, 2.0f}), true);
  Variable loss = ag::masked_mae_loss(pred, Tensor::zeros({2}), 0.0f);
  EXPECT_EQ(loss.value().item(), 0.0f);
  loss.backward();
  EXPECT_EQ(ops::max_abs(pred.grad()), 0.0f);
}

TEST(MaskedMae, EqualsPlainMaeWithoutNulls) {
  Rng rng(1);
  Variable pred(Tensor::randn({4, 5}, rng), true);
  Tensor target = ops::add_scalar(Tensor::randn({4, 5}, rng), 10.0f);  // never 0
  EXPECT_FLOAT_EQ(ag::masked_mae_loss(pred, target, 0.0f).value().item(),
                  ag::mae_loss(pred, target).value().item());
}

TEST(HuberLoss, QuadraticInsideLinearOutside) {
  Variable pred(Tensor::from_vector({0.5f, 3.0f}), true);
  Tensor target = Tensor::zeros({2});
  Variable loss = ag::huber_loss(pred, target, 1.0f);
  // (0.5*0.25 + (3 - 0.5)) / 2
  EXPECT_NEAR(loss.value().item(), (0.125f + 2.5f) / 2.0f, 1e-6f);
  loss.backward();
  EXPECT_NEAR(pred.grad().at({0}), 0.25f, 1e-6f);  // d/dx 0.5x^2 / n
  EXPECT_NEAR(pred.grad().at({1}), 0.5f, 1e-6f);   // clipped at delta / n
}

TEST(HuberLoss, GradCheck) {
  Rng rng(2);
  Variable pred(Tensor::randn({3, 4}, rng), true);
  Tensor target = Tensor::randn({3, 4}, rng);
  auto res = ag::gradcheck(
      [&](const Variable& x) { return ag::huber_loss(x, target, 0.7f); }, pred, 1e-3f);
  EXPECT_LT(res.max_rel_err, 3e-2);
}

// ------------------------------------------------------- missing data

TEST(MissingData, InjectsRequestedFraction) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(16);
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 3);
  data::inject_missing_data(raw, 0.1, 8, 7);
  std::int64_t zeros = 0;
  const float* p = raw.data();
  for (std::int64_t i = 0; i < raw.numel(); ++i) zeros += p[i] == 0.0f;
  const double frac = static_cast<double>(zeros) / static_cast<double>(raw.numel());
  EXPECT_GT(frac, 0.03);
  EXPECT_LT(frac, 0.25);
}

TEST(MissingData, ZeroFractionIsNoop) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kChickenpoxHungary);
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 4);
  Tensor before = raw.clone();
  data::inject_missing_data(raw, 0.0, 8, 7);
  EXPECT_EQ(ops::max_abs_diff(raw, before), 0.0f);
}

TEST(MissingData, DropoutsComeInRuns) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(32);
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 5);
  data::inject_missing_data(raw, 0.1, 12, 9);
  // Count zero->zero transitions vs isolated zeros on node 0: runs mean
  // most zero entries are followed by another zero.
  std::int64_t zz = 0, z = 0;
  for (std::int64_t t = 0; t + 1 < spec.entries; ++t) {
    if (raw.at({t, 0, 0}) == 0.0f) {
      ++z;
      if (raw.at({t + 1, 0, 0}) == 0.0f) ++zz;
    }
  }
  if (z > 10) {
    EXPECT_GT(static_cast<double>(zz) / static_cast<double>(z), 0.6);
  }
}

// ------------------------------------------------------------ schedules

TEST(StepDecay, HalvesEverySteps) {
  optim::StepDecaySchedule sched(1.0f, 10, 0.5f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(0), 1.0f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(9), 1.0f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(10), 0.5f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(25), 0.25f);
}

TEST(Cosine, StartsHighEndsLow) {
  optim::CosineSchedule sched(1.0f, 0.1f, 11);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(0), 1.0f);
  EXPECT_NEAR(sched.lr_for_epoch(5), 0.55f, 1e-5f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(10), 0.1f);
  EXPECT_FLOAT_EQ(sched.lr_for_epoch(50), 0.1f);  // clamps past the end
}

TEST(Cosine, MonotoneNonIncreasing) {
  optim::CosineSchedule sched(0.01f, 0.0001f, 30);
  for (int e = 1; e < 30; ++e) {
    EXPECT_LE(sched.lr_for_epoch(e), sched.lr_for_epoch(e - 1) + 1e-9f);
  }
}

// ---------------------------------------------------------- checkpoints

TEST(Checkpoint, SaveLoadRoundTrip) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  SensorNetwork net = data::network_for(spec);
  auto a = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, 8, 1, 1, 11);
  auto b = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, 8, 1, 1, 99);

  const std::string path = "/tmp/pgti_ckpt_test.bin";
  nn::save_checkpoint(*a.model, path);
  nn::load_checkpoint(*b.model, path);
  auto pa = a.model->parameters();
  auto pb = b.model->parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(ops::max_abs_diff(pa[i].value(), pb[i].value()), 0.0f);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ShapeMismatchRejected) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  SensorNetwork net = data::network_for(spec);
  auto a = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, 8, 1, 1, 11);
  auto b = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, 16, 1, 1, 11);
  const std::string path = "/tmp/pgti_ckpt_mismatch.bin";
  nn::save_checkpoint(*a.model, path);
  EXPECT_THROW(nn::load_checkpoint(*b.model, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileRejected) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  SensorNetwork net = data::network_for(spec);
  auto a = core::make_model(core::ModelKind::kPgtDcrnn, spec, net, 8, 1, 1, 11);
  EXPECT_THROW(nn::load_checkpoint(*a.model, "/tmp/does_not_exist_pgti.bin"),
               std::runtime_error);
}

// Writes checkpoint fields one at a time in save_checkpoint's layout
// (magic, count, then per entry: name length, name, rank, dims, float
// data), so a test can corrupt any of them.  Removes the file when it
// goes out of scope.
class RawCheckpoint {
 public:
  explicit RawCheckpoint(const std::string& file)
      : path_(testing::TempDir() + file), os_(path_, std::ios::binary | std::ios::trunc) {
    const std::uint32_t magic = 0x50475449;
    os_.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  }
  ~RawCheckpoint() { std::remove(path_.c_str()); }

  RawCheckpoint& u64(std::uint64_t v) {
    os_.write(reinterpret_cast<const char*>(&v), sizeof(v));
    return *this;
  }
  RawCheckpoint& name(const std::string& n) {
    u64(n.size());
    os_.write(n.data(), static_cast<std::streamsize>(n.size()));
    return *this;
  }
  /// One well-formed entry: `dims` and dims-product zero floats.
  RawCheckpoint& entry(const std::string& n, const std::vector<std::uint64_t>& dims) {
    name(n).u64(dims.size());
    std::uint64_t numel = 1;
    for (std::uint64_t d : dims) {
      u64(d);
      numel *= d;
    }
    const std::vector<float> data(numel, 0.0f);
    os_.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(numel * sizeof(float)));
    return *this;
  }
  const std::string& path() {
    os_.flush();
    return path_;
  }

 private:
  std::string path_;
  std::ofstream os_;
};

TEST(Checkpoint, RepeatedParameterRejected) {
  // weight twice, bias never: the count matches the module's, but the
  // file does not cover it.
  Rng rng(3);
  nn::Linear layer(3, 2, rng);
  RawCheckpoint file("pgti_ckpt_repeated.bin");
  file.u64(2).entry("weight", {3, 2}).entry("weight", {3, 2});
  EXPECT_THROW(nn::load_checkpoint(layer, file.path()), std::runtime_error);
}

TEST(Checkpoint, OversizedNameLengthRejected) {
  // Name lengths no parameter has are refused before anything is
  // allocated, whether absurd (2^62) or merely large (3 GiB).
  Rng rng(3);
  nn::Linear layer(3, 2, rng);
  for (std::uint64_t len : {std::uint64_t{1} << 62, std::uint64_t{3} << 30}) {
    RawCheckpoint file("pgti_ckpt_long_name.bin");
    file.u64(1).u64(len);
    EXPECT_THROW(nn::load_checkpoint(layer, file.path()), std::runtime_error) << len;
  }
}

TEST(Checkpoint, OverflowingShapeRejected) {
  // A shape whose element count overflows int64 is a shape mismatch,
  // reported before any element count is computed from it.
  Rng rng(3);
  nn::Linear layer(3, 2, rng);
  RawCheckpoint file("pgti_ckpt_huge_shape.bin");
  file.u64(1).name("weight").u64(2).u64(std::uint64_t{1} << 62).u64(4);
  EXPECT_THROW(nn::load_checkpoint(layer, file.path()), std::runtime_error);
}

// ------------------------------------------------------------- prefetch

TEST(Prefetch, SameBatchSequenceAsInnerLoader) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 6);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 8;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 3, 8};

  data::DataLoader plain(source, opt, 0, 200);
  std::vector<std::vector<std::int64_t>> expected;
  plain.start_epoch(2);
  data::Batch b;
  while (plain.next(b)) expected.push_back(b.indices);

  data::DataLoader inner(source, opt, 0, 200);
  data::PrefetchLoader prefetch(inner);
  prefetch.start_epoch(2);
  std::size_t i = 0;
  while (prefetch.next(b)) {
    ASSERT_LT(i, expected.size());
    EXPECT_EQ(b.indices, expected[i]);
    ++i;
  }
  EXPECT_EQ(i, expected.size());
}

TEST(Prefetch, SurvivesMultipleEpochs) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 7);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 16;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kGlobal, 0, 1, 3, 16};
  data::DataLoader inner(source, opt, 0, 100);
  data::PrefetchLoader prefetch(inner);
  data::Batch b;
  for (int epoch = 0; epoch < 3; ++epoch) {
    prefetch.start_epoch(epoch);
    int count = 0;
    while (prefetch.next(b)) ++count;
    EXPECT_EQ(count, 6);
  }
}

TEST(Prefetch, BatchContentsMatchSnapshots) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  Tensor raw = data::generate_signal(spec, net, 8);
  data::IndexDataset ds(raw, spec);
  data::IndexSource source(ds);
  data::LoaderOptions opt;
  opt.batch_size = 4;
  opt.sampler = data::SamplerOptions{data::ShuffleMode::kNone, 0, 1, 1, 4};
  data::DataLoader inner(source, opt, 0, 40);
  data::PrefetchLoader prefetch(inner);
  prefetch.start_epoch(0);
  data::Batch b;
  while (prefetch.next(b)) {
    for (std::int64_t i = 0; i < b.size; ++i) {
      const auto [x, y] = ds.get(b.indices[static_cast<std::size_t>(i)]);
      EXPECT_EQ(ops::max_abs_diff(b.x.select(0, i).contiguous(), x.contiguous()), 0.0f);
    }
  }
}

// ----------------------------------------------------- scheduled sampling

TEST(ScheduledSampling, FullTeacherForcingDiffersFromFree) {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kPemsBay).scaled(64);
  spec.horizon = 4;
  SensorNetwork net = data::network_for(spec);
  auto bundle = core::make_model(core::ModelKind::kDcrnn, spec, net, 8, 1, 1, 13);
  auto* dcrnn = dynamic_cast<nn::DCRNN*>(bundle.model.get());
  ASSERT_NE(dcrnn, nullptr);
  Rng xr(14);
  Tensor x = Tensor::randn({2, 4, spec.nodes, spec.features}, xr);
  Tensor y = Tensor::randn({2, 4, spec.nodes, 1}, xr);
  Rng coin1(1), coin2(2);
  auto free_run = dcrnn->forward_seq(x);
  auto forced = dcrnn->forward_seq_scheduled(x, y, 1.0f, coin1);
  auto never = dcrnn->forward_seq_scheduled(x, y, 0.0f, coin2);
  // Step 0 is identical (no previous target yet)...
  EXPECT_EQ(ops::max_abs_diff(free_run[0].value(), forced[0].value()), 0.0f);
  // ...later steps differ under teacher forcing...
  EXPECT_GT(ops::max_abs_diff(free_run[2].value(), forced[2].value()), 0.0f);
  // ...and every step matches the free run bit for bit without it.
  ASSERT_EQ(never.size(), free_run.size());
  for (std::size_t t = 0; t < free_run.size(); ++t) {
    const Tensor a = free_run[t].value().contiguous();
    const Tensor b = never[t].value().contiguous();
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), sizeof(float) * static_cast<std::size_t>(a.numel())),
              0)
        << "step " << t;
  }
  // The scheduled entry point validates x like forward_seq does.
  Rng coin3(3);
  Tensor bad_x = Tensor::randn({2, 4, spec.nodes, spec.features + 1}, xr);
  EXPECT_THROW(dcrnn->forward_seq_scheduled(bad_x, y, 0.5f, coin3), std::invalid_argument);
  EXPECT_THROW(dcrnn->forward_seq_scheduled(x.select(1, 0), y, 0.5f, coin3),
               std::invalid_argument);
}

// -------------------------------------------- dynamic graphs (paper §7)

data::DatasetSpec dyn_spec() {
  data::DatasetSpec spec = data::spec_for(data::DatasetKind::kMetrLa).scaled(24);
  spec.horizon = 4;
  return spec;
}

TEST(DynamicGraph, GeneratorProducesOneGraphPerStep) {
  data::DatasetSpec spec = dyn_spec();
  auto series = data::generate_dynamic_graph_signal(spec, 5);
  EXPECT_EQ(static_cast<std::int64_t>(series.graphs.size()), spec.entries);
  EXPECT_EQ(series.signal.shape(), (Shape{spec.entries, spec.nodes, 1}));
}

TEST(DynamicGraph, TopologyActuallyEvolves) {
  data::DatasetSpec spec = dyn_spec();
  auto series = data::generate_dynamic_graph_signal(spec, 5);
  data::DynamicIndexDataset ds(std::move(series), spec);
  EXPECT_GT(ds.distinct_graphs(), 1u);
  // But far fewer distinct graphs than steps (shared within periods).
  EXPECT_LT(ds.distinct_graphs(), static_cast<std::size_t>(spec.entries) / 4);
}

TEST(DynamicGraph, SnapshotsAreViewsWithGraphSpans) {
  data::DatasetSpec spec = dyn_spec();
  auto series = data::generate_dynamic_graph_signal(spec, 6);
  data::DynamicIndexDataset ds(std::move(series), spec);
  const auto snap = ds.get(10);
  EXPECT_TRUE(snap.x.shares_storage_with(ds.data()));
  EXPECT_TRUE(snap.y.shares_storage_with(ds.data()));
  EXPECT_EQ(static_cast<std::int64_t>(snap.graphs.size()), spec.horizon);
}

TEST(DynamicGraph, OutOfRangeThrows) {
  data::DatasetSpec spec = dyn_spec();
  auto series = data::generate_dynamic_graph_signal(spec, 7);
  data::DynamicIndexDataset ds(std::move(series), spec);
  EXPECT_THROW(ds.get(ds.num_snapshots()), std::out_of_range);
}

TEST(DynamicGraph, DcgruRunsWithPerStepSupports) {
  data::DatasetSpec spec = dyn_spec();
  auto series = data::generate_dynamic_graph_signal(spec, 8);
  data::DynamicIndexDataset ds(std::move(series), spec);

  // Build the cell against the step-0 supports; run it with each
  // step's own supports (the dynamic-topology forward).
  const auto snap0 = ds.get(0);
  auto base_supports = nn::GraphSupports::from(dual_random_walk_supports(*snap0.graphs[0]));
  Rng rng(15);
  nn::DCGRUCell cell(spec.features, 8, base_supports, 1, rng);

  const auto snap = ds.get(3);
  Variable h(Tensor::zeros({1, spec.nodes, 8}), false);
  for (std::int64_t t = 0; t < spec.horizon; ++t) {
    auto step_supports = nn::GraphSupports::from(
        dual_random_walk_supports(*snap.graphs[static_cast<std::size_t>(t)]));
    Tensor xt = snap.x.select(0, t).contiguous().reshape({1, spec.nodes, spec.features});
    h = cell.forward(Variable(xt, false), h, step_supports);
  }
  EXPECT_EQ(h.value().shape(), (Shape{1, spec.nodes, 8}));
  EXPECT_GT(ops::max_abs(h.value()), 0.0f);
  // Gradients flow through the dynamic path too.
  ag::mean_all(h).backward();
  for (Variable& p : cell.parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(DynamicGraph, SupportCountMismatchRejected) {
  data::DatasetSpec spec = dyn_spec();
  SensorNetwork net = data::network_for(spec);
  auto dual = nn::GraphSupports::from(dual_random_walk_supports(net.adjacency));
  Rng rng(16);
  nn::DCGRUCell cell(spec.features, 4, dual, 1, rng);
  std::vector<Csr> single;
  single.push_back(net.adjacency.row_normalized());
  auto one = nn::GraphSupports::from(std::move(single));
  Variable x(Tensor::zeros({1, spec.nodes, spec.features}), false);
  Variable h(Tensor::zeros({1, spec.nodes, 4}), false);
  EXPECT_THROW(cell.forward(x, h, one), std::invalid_argument);
}

}  // namespace
}  // namespace pgti
